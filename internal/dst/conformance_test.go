package dst

import (
	"fmt"
	"testing"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// runSummary is what cross-engine conformance compares: the execution
// digest plus every externally observable total.
type runSummary struct {
	Digest   uint64
	Rounds   int
	Messages int64
	Bits     int64
	Outputs  string
}

func baselineSummary(res *baseline.Result, err error) (runSummary, error) {
	if err != nil {
		return runSummary{}, err
	}
	return runSummary{
		Digest:   res.Digest,
		Rounds:   res.Rounds,
		Messages: res.Counters.Messages(),
		Bits:     res.Counters.Bits(),
		Outputs:  fmt.Sprintf("%+v success=%v value=%d", res.Outputs, res.Success, res.Value),
	}, nil
}

// TestCrossEngineConformance locks in the harness's foundational
// assumption: every protocol in the repo — the paper's three core
// algorithms and all baselines — produces an identical digest, metric
// totals, and outputs in both engine modes, across seeds and
// crash-round delivery policies.
func TestCrossEngineConformance(t *testing.T) {
	const n = 32
	const f = 6
	const alpha = 1 - float64(f)/n
	binInputs := make([]int, n)
	for u := range binInputs {
		binInputs[u] = u & 1
	}
	// plan builds the same randomized crash plan for every mode: a fresh
	// rng from the same seed makes construction deterministic.
	plan := func(seed uint64, policy fault.DropPolicy) netsim.Adversary {
		return fault.Must(fault.NewRandomPlan(n, f, 4, policy, rng.New(seed^0xad)))
	}
	type runner struct {
		name   string
		faulty bool // whether the protocol takes an adversary at all
		run    func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error)
	}
	coreRun := func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy, faulty bool) core.RunConfig {
		cfg := core.RunConfig{N: n, Alpha: alpha, Seed: seed, Mode: mode}
		if faulty {
			cfg.Adversary = plan(seed, policy)
		}
		return cfg
	}
	runners := []runner{
		{"election", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			res, err := core.RunElection(coreRun(mode, seed, policy, true))
			if err != nil {
				return runSummary{}, err
			}
			return runSummary{res.Digest, res.Rounds, res.Counters.Messages(), res.Counters.Bits(),
				fmt.Sprintf("%+v", res.Outputs)}, nil
		}},
		{"agreement", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			res, err := core.RunAgreement(coreRun(mode, seed, policy, true), binInputs)
			if err != nil {
				return runSummary{}, err
			}
			return runSummary{res.Digest, res.Rounds, res.Counters.Messages(), res.Counters.Bits(),
				fmt.Sprintf("%+v", res.Outputs)}, nil
		}},
		{"minagree", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			values := make([]uint64, n)
			for u := range values {
				values[u] = uint64((u * 37) % 101)
			}
			res, err := core.RunMinAgreement(coreRun(mode, seed, policy, true), values)
			if err != nil {
				return runSummary{}, err
			}
			return runSummary{res.Digest, res.Rounds, res.Counters.Messages(), res.Counters.Bits(),
				fmt.Sprintf("%+v", res.Outputs)}, nil
		}},
		{"baseline/allpairs", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunAllPairs(
				baseline.AllPairsConfig{N: n, Seed: seed, Mode: mode, F: f}, plan(seed, policy)))
		}},
		{"baseline/floodset", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunFloodSet(
				baseline.FloodSetConfig{N: n, Seed: seed, Mode: mode, F: f}, binInputs, plan(seed, policy)))
		}},
		{"baseline/rotating", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunRotating(
				baseline.RotatingConfig{N: n, Seed: seed, Mode: mode, F: f}, binInputs, plan(seed, policy)))
		}},
		{"baseline/gossip", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunGossip(
				baseline.GossipConfig{N: n, Seed: seed, Mode: mode}, binInputs, plan(seed, policy)))
		}},
		{"baseline/gk", true, func(mode netsim.RunMode, seed uint64, policy fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunGK(
				baseline.GKConfig{N: n, Seed: seed, Mode: mode}, binInputs, plan(seed, policy)))
		}},
		{"baseline/amp", false, func(mode netsim.RunMode, seed uint64, _ fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunAMP(
				baseline.AMPConfig{N: n, Seed: seed, Mode: mode}, binInputs))
		}},
		{"baseline/kutten", false, func(mode netsim.RunMode, seed uint64, _ fault.DropPolicy) (runSummary, error) {
			return baselineSummary(baseline.RunKutten(
				baseline.KuttenConfig{N: n, Seed: seed, Mode: mode}))
		}},
	}
	modes := []struct {
		name string
		mode netsim.RunMode
	}{{"sequential", netsim.Sequential}, {"parallel", netsim.Parallel}}
	policies := []fault.DropPolicy{fault.DropAll, fault.DropHalf, fault.DropRandom, fault.DropNone}

	for _, r := range runners {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			pols := policies
			if !r.faulty {
				pols = policies[:1] // fault-free baseline: policy is moot
			}
			for seed := uint64(1); seed <= 3; seed++ {
				for _, policy := range pols {
					ref, err := r.run(modes[0].mode, seed, policy)
					if err != nil {
						t.Fatalf("seed %d policy %v: %v", seed, policy, err)
					}
					if ref.Digest == 0 {
						t.Fatalf("seed %d policy %v: zero digest — hashing hook not wired", seed, policy)
					}
					for _, m := range modes[1:] {
						got, err := r.run(m.mode, seed, policy)
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
