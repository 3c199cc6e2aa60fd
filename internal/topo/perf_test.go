package topo

import (
	"testing"

	"sublinear/internal/netsim"
)

// fixedPingMachine sends one message on port 1 every round: fixed
// fanout, so buffer capacities stabilize after the first round and any
// further allocation is the engine's own.
type fixedPingMachine struct {
	last    int
	payload pingPayload
	out     [1]netsim.Send
}

func (m *fixedPingMachine) Step(_ *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	m.payload.bits = 8
	m.out[0] = netsim.Send{Port: 1, Payload: &m.payload}
	return m.out[:]
}

func (m *fixedPingMachine) Done() bool  { return false }
func (m *fixedPingMachine) Output() any { return m.last }

// TestTopoZeroAllocSteadyState pins that at n = 4096 on the
// diameter-two graph's port table (and on the clique), once a run's
// arenas warm up, extra rounds cost no allocations. Measured as
// the marginal allocations per extra message between a short and a long
// run, so construction cost cancels.
func TestTopoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		n     = 4096
		short = 6
		long  = 56
	)
	for _, tc := range []struct {
		name    string
		workers int
		topo    func() (*Topology, error)
	}{
		{"cluster-d2/w1", 1, func() (*Topology, error) { return ResolveTopology("cluster-d2", n, 7) }},
		{"cluster-d2/w0", 0, func() (*Topology, error) { return ResolveTopology("cluster-d2", n, 7) }},
		{"clique/w0", 0, func() (*Topology, error) { return Clique(n), nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := tc.topo()
			if err != nil {
				t.Fatal(err)
			}
			measure := func(rounds int) float64 {
				return testing.AllocsPerRun(3, func() {
					machines := machinesOf(n, func() netsim.Machine { return &fixedPingMachine{} })
					if _, err := runOn(tp, netsim.Config{Alpha: 1, Seed: 42, MaxRounds: rounds, Workers: tc.workers},
						machines, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
			extraMsgs := float64((long - short) * n)
			marginal := (measure(long) - measure(short)) / extraMsgs
			if marginal > 0.01 {
				t.Errorf("marginal allocations = %.4f per message, want ~0", marginal)
			}
		})
	}
}

func benchTopo(b *testing.B, tp *Topology, rounds, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		machines := machinesOf(tp.N(), func() netsim.Machine { return &degPingMachine{} })
		if _, err := runOn(tp, netsim.Config{Alpha: 1, Seed: uint64(i), MaxRounds: rounds, Workers: workers},
			machines, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopoClusterD2(b *testing.B) {
	tp, err := ResolveTopology("cluster-d2", 4096, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("w1", func(b *testing.B) { benchTopo(b, tp, 50, 1) })
	b.Run("w0", func(b *testing.B) { benchTopo(b, tp, 50, 0) })
}

func BenchmarkTopoClique(b *testing.B) {
	tp := Clique(4096)
	b.Run("w1", func(b *testing.B) { benchTopo(b, tp, 50, 1) })
	b.Run("w0", func(b *testing.B) { benchTopo(b, tp, 50, 0) })
}
