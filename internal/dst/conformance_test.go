package dst

import (
	"fmt"
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// runSummary is what cross-engine conformance compares: the execution
// digest plus every externally observable total and the verdict.
type runSummary struct {
	Digest   uint64
	Rounds   int
	Messages int64
	Bits     int64
	Outputs  string
}

// TestCrossEngineConformance locks in the harness's foundational
// assumption: every registered protocol that judges its runs — the
// paper's three core algorithms and all clique baselines — produces an
// identical digest, metric totals, outputs and verdict in both engine
// modes, across seeds and crash-round delivery policies.
func TestCrossEngineConformance(t *testing.T) {
	const n = 32
	const f = 6
	const alpha = 1 - float64(f)/n
	s := Setup{N: n, Alpha: alpha, F: f, Bits: make([]int, n), Values: make([]uint64, n)}
	for u := 0; u < n; u++ {
		s.Bits[u] = u & 1
		s.Values[u] = uint64((u * 37) % 101)
	}
	modes := []struct {
		name string
		mode netsim.RunMode
	}{{"sequential", netsim.Sequential}, {"parallel", netsim.Parallel}}
	policies := []fault.DropPolicy{fault.DropAll, fault.DropHalf, fault.DropRandom, fault.DropNone}

	for _, name := range AllSystems() {
		sys, _ := Lookup(name)
		if sys.Evaluate == nil || sys.Topology != "" {
			continue
		}
		faulty := sys.MaxF(n, alpha) > 0
		// run builds the same randomized crash plan for every mode: a
		// fresh rng from the same seed makes construction deterministic.
		run := func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			s := s
			s.Seed = seed
			var adv netsim.Adversary
			if faulty {
				adv = fault.Must(fault.NewRandomPlan(n, f, 4, policy, rng.New(seed^0xad)))
			}
			cfg, machines, err := sys.Build(s)
			if err != nil {
				return runSummary{}, err
			}
			res, err := netsim.Execute(mode, cfg, machines, adv)
			if err != nil {
				return runSummary{}, err
			}
			ok, reason := sys.Evaluate(s, res)
			return runSummary{res.Digest, res.Rounds, res.Counters.Messages(), res.Counters.Bits(),
				fmt.Sprintf("%+v success=%v reason=%q", res.Outputs, ok, reason)}, nil
		}
		// The Table I comparators (every system but the paper's core
		// protocols, which carry their admissibility floor as
		// DefaultAlpha) run under a baseline/ prefix.
		label := name
		if sys.DefaultAlpha == nil {
			label = "baseline/" + name
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			pols := policies
			if !faulty {
				pols = policies[:1] // fault-free protocol: policy is moot
			}
			for seed := uint64(1); seed <= 3; seed++ {
				for _, policy := range pols {
					ref, err := run(modes[0].mode, seed, policy)
					if err != nil {
						t.Fatalf("seed %d policy %v: %v", seed, policy, err)
					}
					if ref.Digest == 0 {
						t.Fatalf("seed %d policy %v: zero digest — hashing hook not wired", seed, policy)
					}
					for _, m := range modes[1:] {
						got, err := run(m.mode, seed, policy)
						if err != nil {
							t.Fatalf("seed %d policy %v %s: %v", seed, policy, m.name, err)
						}
						if got != ref {
							t.Fatalf("seed %d policy %v: %s diverged from sequential:\n%+v\n%+v",
								seed, policy, m.name, ref, got)
						}
					}
				}
			}
		})
	}
}
