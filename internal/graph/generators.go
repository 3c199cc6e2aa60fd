package graph

// Topology generators for the non-complete protocol families studied by
// the related work (PAPERS.md): the diameter-two cluster graphs of
// Chatterjee–Pandurangan–Robinson ("Chasm at Diameter Two"), the
// well-connected expanders of Gilbert–Robinson–Sourav, and the star as
// the degenerate diameter-two extreme. All generators are deterministic:
// the same (n, seed) yields the same byte-stable adjacency, which the
// topology systems' digest pins rely on.

import "fmt"

// ClusterD2 returns a deterministic diameter-two cluster graph on n
// nodes: h = ceil(sqrt(n)) hub nodes are adjacent to every node (hubs
// included), and the remaining nodes are partitioned into consecutive
// blocks of h that each form a clique. Every pair of nodes shares hub 0
// as a common neighbor, so the diameter is at most 2, while the edge
// count stays Theta(n^1.5) — the sparse diameter-two regime of the
// Chatterjee et al. lower bound, far below the clique's n^2.
func ClusterD2(n int) (Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: n = %d", n)
	}
	h := 1
	for h*h < n {
		h++
	}
	if h >= n {
		// Tiny n: the hub set is the whole graph; the construction
		// degenerates to the clique.
		h = n - 1
	}
	var edges [][2]int
	for i := 0; i < h; i++ {
		for v := i + 1; v < n; v++ {
			edges = append(edges, [2]int{i, v})
		}
	}
	for start := h; start < n; start += h {
		end := min(start+h, n)
		for u := start; u < end; u++ {
			for v := u + 1; v < end; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return build("cluster-d2", n, edges)
}

// Star returns the star graph: node 0 is adjacent to every other node.
// The degenerate diameter-two topology — minimal edges, maximal
// dependence on one node — useful as an adversarial extreme for the
// diameter-two protocols.
func Star(n int) (Graph, error) {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return build("star", n, edges)
}

// WellConnected returns a well-connected (expander) graph in the
// Gilbert–Robinson–Sourav sense: a random near-8-regular union of
// Hamiltonian cycles (see RandomRegular), whose conductance is constant
// w.h.p. Below n = 6 the degree bound forces the complete graph.
func WellConnected(n int, seed uint64) (Graph, error) {
	if n < 6 {
		g, err := Complete(n)
		if err != nil {
			return nil, err
		}
		return Renamed(g, "wellconnected"), nil
	}
	d := 8
	if d >= n {
		d = (n - 1) &^ 1
	}
	g, err := RandomRegular(n, d, seed)
	if err != nil {
		return nil, err
	}
	return Renamed(g, "wellconnected"), nil
}

// Renamed wraps a graph under a different table label, leaving the
// adjacency untouched.
func Renamed(g Graph, name string) Graph { return &renamed{Graph: g, name: name} }

type renamed struct {
	Graph
	name string
}

func (g *renamed) Name() string { return g.name }

// CliquePorts returns the complete graph with netsim's fixed port
// wiring — port p of node u leads to (u+p) mod n — rather than the
// sorted-neighbor ports of Complete. Compiled into a port table, it
// reproduces the arithmetically routed clique's executions bit-for-bit
// (digest included), which the CSR-vs-arithmetic parity test in
// internal/topo checks; Complete's ports differ and would yield a
// different (equally valid) execution.
func CliquePorts(n int) (Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: n = %d", n)
	}
	return cliquePorts{n: n}, nil
}

type cliquePorts struct{ n int }

func (g cliquePorts) N() int         { return g.n }
func (g cliquePorts) Degree(int) int { return g.n - 1 }
func (g cliquePorts) Name() string   { return "clique" }

func (g cliquePorts) Neighbor(u, p int) int {
	if p < 1 || p > g.n-1 {
		panic(fmt.Sprintf("graph: port %d out of range [1,%d] at node %d", p, g.n-1, u))
	}
	return (u + p) % g.n
}

func (g cliquePorts) PortOf(u, v int) int {
	if u == v {
		return 0
	}
	return ((v-u)%g.n + g.n) % g.n
}
