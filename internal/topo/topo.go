// Package topo names and compiles the network topologies the simulator
// runs on: the paper's complete network and the general connected
// graphs of its open problem 2 — the setting of the diameter-two and
// well-connected election papers in PAPERS.md.
//
// A graph.Graph compiles once into a Topology, whose port table
// (netsim.PortTable) plugs into netsim.Config.Ports. Executions then run
// on netsim's one delivery pipeline, with the same round structure,
// adversary contract, CONGEST accounting, digest schema, and Tracer
// event stream as the clique: the wiring is the only thing that
// changes. The clique itself is the Topology with no table (Clique),
// routed by netsim's arithmetic.
//
// The only model difference from the clique is the port space: node u
// has ports 1..Degree(u) following the topology instead of 1..n-1.
// Per-edge CONGEST is enforced identically — one message per port per
// round, a per-message budget of CongestFactor*ceil(log2 n) bits.
package topo

import (
	"fmt"

	"sublinear/internal/graph"
	"sublinear/internal/netsim"
)

// Topology is a compiled, immutable port-numbered adjacency: a
// netsim.PortTable, or no table for the clique.
type Topology struct {
	n     int
	ports *netsim.PortTable // nil for the clique
}

// Compile builds the port table of g (see netsim.CompilePorts). Ports
// keep the graph's own numbering, so a protocol's execution on the
// compiled topology is identical to one driven through graph.Graph
// directly.
func Compile(g graph.Graph) (*Topology, error) {
	ports, err := netsim.CompilePorts(g)
	if err != nil {
		return nil, err
	}
	return &Topology{n: ports.N(), ports: ports}, nil
}

// Clique returns the complete topology on n nodes with netsim's fixed
// port wiring (port p of u leads to (u+p) mod n). It carries no port
// table: routing is pure arithmetic.
func Clique(n int) *Topology {
	return &Topology{n: n}
}

// N returns the number of nodes.
func (t *Topology) N() int { return t.n }

// Ports returns the compiled port table for netsim.Config.Ports: nil for
// the clique, which the pipeline routes by arithmetic.
func (t *Topology) Ports() *netsim.PortTable { return t.ports }

// Degree returns the degree of node u — the number of its local ports.
func (t *Topology) Degree(u int) int {
	if t.ports == nil {
		return t.n - 1
	}
	return t.ports.Degree(u)
}

// Edge resolves port p of node u: the peer node and the arrival port the
// peer receives on. p must be in 1..Degree(u).
func (t *Topology) Edge(u, p int) (peer, arrival int) {
	if p < 1 || p > t.Degree(u) {
		panic(fmt.Sprintf("topo: port %d out of range [1,%d] at node %d", p, t.Degree(u), u))
	}
	if t.ports == nil {
		return netsim.Peer(t.n, u, p), t.n - p
	}
	return t.ports.Edge(u, p)
}

// Diameter returns the topology's diameter by breadth-first search from
// every node. It is an O(n * m) preprocessing helper for protocols whose
// round budget depends on the diameter (the well-connected election);
// compile-time, never on the per-round path.
func (t *Topology) Diameter() int {
	if t.ports == nil {
		return 1
	}
	dist := make([]int32, t.n)
	queue := make([]int32, 0, t.n)
	diam := 0
	for s := 0; s < t.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if int(dist[u]) > diam {
				diam = int(dist[u])
			}
			for p := 1; p <= t.ports.Degree(int(u)); p++ {
				v, _ := t.ports.Edge(int(u), p)
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, int32(v))
				}
			}
		}
	}
	return diam
}

// ResolveTopology builds a named topology at size n: the shared lookup
// for sweeps, benchmarks, and service job specs. Known names: "clique"
// (or empty), "cluster-d2", "star", "ring", "wellconnected", and
// "random-regular". seed parameterises the randomized families; the same
// (name, n, seed) always yields the same topology.
func ResolveTopology(name string, n int, seed uint64) (*Topology, error) {
	var (
		g   graph.Graph
		err error
	)
	switch name {
	case "", "clique":
		if n < 2 {
			return nil, fmt.Errorf("topo: n = %d, need >= 2", n)
		}
		return Clique(n), nil
	case "cluster-d2":
		g, err = graph.ClusterD2(n)
	case "star":
		g, err = graph.Star(n)
	case "ring":
		g, err = graph.Ring(n)
	case "wellconnected":
		g, err = graph.WellConnected(n, seed)
	case "random-regular":
		g, err = graph.RandomRegular(n, 4, seed)
	default:
		return nil, fmt.Errorf("topo: unknown topology %q", name)
	}
	if err != nil {
		return nil, err
	}
	return Compile(g)
}

// TopologyNames lists the names ResolveTopology accepts, in table order.
func TopologyNames() []string {
	return []string{"clique", "cluster-d2", "star", "ring", "wellconnected", "random-regular"}
}
