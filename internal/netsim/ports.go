package netsim

import "fmt"

// PortTable is a compiled port wiring for a general connected graph: the
// one piece of the delivery pipeline that varies with the topology.
// Config.Ports selects it; nil keeps the complete network's fixed
// wiring, which the pipeline routes by arithmetic. The compressed-
// sparse-row layout stores, for every node u and local port p in
// 1..Degree(u), the peer node behind the port and the arrival port on
// which the peer receives, both resolved at compile time, so routing a
// message is two int32 loads with no search. A PortTable is immutable
// after CompilePorts and may be shared by concurrent runs.
type PortTable struct {
	row    []int32 // len n+1; node u's port entries occupy [row[u], row[u+1])
	peer   []int32 // peer[row[u]+p-1] is the node behind port p of u
	aport  []int32 // aport[row[u]+p-1] is the arrival port at that peer
	maxDeg int
}

// Wiring is the port-numbered adjacency CompilePorts reads;
// internal/graph's Graph satisfies it. Node u's ports are 1..Degree(u),
// Neighbor(u, p) is the node behind port p, and PortOf(v, u) is the port
// of v that leads back to u.
type Wiring interface {
	N() int
	Degree(u int) int
	Neighbor(u, p int) int
	PortOf(u, v int) int
}

// CompilePorts builds the port table of g. Ports keep the graph's own
// numbering, so an execution on the table is identical to one driven
// through g directly. Every port must lead to another node whose
// reverse port leads back, or replies on arrival ports would reach the
// wrong node.
func CompilePorts(g Wiring) (*PortTable, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("netsim: graph has %d nodes, need >= 2", n)
	}
	t := &PortTable{row: make([]int32, n+1)}
	total := 0
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		if d < 1 {
			return nil, fmt.Errorf("netsim: node %d has degree 0", u)
		}
		total += d
		t.row[u+1] = int32(total)
		t.maxDeg = max(t.maxDeg, d)
	}
	t.peer = make([]int32, total)
	t.aport = make([]int32, total)
	for u := 0; u < n; u++ {
		base := t.row[u]
		for p := 1; p <= g.Degree(u); p++ {
			v := g.Neighbor(u, p)
			if v < 0 || v >= n || v == u {
				return nil, fmt.Errorf("netsim: Neighbor(%d,%d) = %d is invalid", u, p, v)
			}
			ap := g.PortOf(v, u)
			if ap < 1 || ap > g.Degree(v) || g.Neighbor(v, ap) != u {
				return nil, fmt.Errorf("netsim: edge (%d,%d) has no reverse port", u, v)
			}
			t.peer[base+int32(p)-1] = int32(v)
			t.aport[base+int32(p)-1] = int32(ap)
		}
	}
	return t, nil
}

// N returns the number of nodes.
func (t *PortTable) N() int { return len(t.row) - 1 }

// Degree returns the number of node u's local ports.
func (t *PortTable) Degree(u int) int { return int(t.row[u+1] - t.row[u]) }

// Edge resolves port p of node u, which must be in 1..Degree(u): the
// peer node and the arrival port the peer receives on.
func (t *PortTable) Edge(u, p int) (peer, arrival int) {
	i := t.row[u] + int32(p) - 1
	return int(t.peer[i]), int(t.aport[i])
}
