package dst

import (
	"fmt"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/netsim"
)

// This file registers the topology-family protocols: leader election on
// diameter-two graphs and on well-connected (bounded-degree expander)
// graphs, both running on compiled port tables (internal/topo) instead
// of the clique wiring. The differential check still applies — the
// engine-mode axis maps onto the pipeline's worker count, so
// "sequential vs parallel" becomes "1 vs GOMAXPROCS workers", and any
// scheduling-dependent divergence in the sharded pipeline trips the same
// digest diff as on the clique.

// topoWorkers maps an engine mode to the pipeline's worker count for a
// topology system. Every worker count must produce the identical
// digest.
func topoWorkers(mode netsim.RunMode) (int, error) {
	switch mode {
	case netsim.Sequential:
		return 1, nil
	case netsim.Parallel:
		return 0, nil
	}
	return 0, fmt.Errorf("dst: topology systems cannot run in mode %d", mode)
}

// topoRun adapts a baseline topology-election result into a dst Run.
func topoRun(c Case, res *baseline.Result) *Run {
	faulty := make([]bool, c.N)
	for _, cr := range c.Schedule.Crashes {
		faulty[cr.Node] = true
	}
	return &Run{
		Digest:   res.Digest,
		Rounds:   res.Rounds,
		Messages: res.Counters.Messages(),
		Bits:     res.Counters.Bits(),
		Outputs:  fmt.Sprintf("%+v", res.Outputs),
		View: core.NewRunView(res.Outputs, res.CrashedAt, faulty, res.Rounds,
			res.Counters, netsim.PerMessageBudget(c.N, anonCongestFactor), 0),
	}
}

// d2MaxKeyCandidate returns the index of the maximum-key candidate, or
// -1 when no node self-selected.
func d2MaxKeyCandidate(outputs []any, key func(any) (int64, bool, error)) (int, error) {
	who := -1
	var maxKey int64 = -1
	for u, o := range outputs {
		k, cand, err := key(o)
		if err != nil {
			return -1, fmt.Errorf("node %d: %w", u, err)
		}
		if cand && k > maxKey {
			maxKey, who = k, u
		}
	}
	return who, nil
}

// d2ExistenceOracle is sound under every crash schedule: only candidate
// keys ever circulate, so the globally maximum key can never be exceeded
// — a never-crashed holder of it keeps Best == Key and claims
// leadership no matter who else crashes or what they drop.
func d2ExistenceOracle() core.Oracle {
	return core.Oracle{
		Name: "d2-existence",
		Check: func(v *core.RunView) error {
			who, err := d2MaxKeyCandidate(v.Outputs, func(o any) (int64, bool, error) {
				d, ok := o.(baseline.D2Output)
				if !ok {
					return 0, false, fmt.Errorf("output is %T, want D2Output", o)
				}
				return d.Key, d.Candidate, nil
			})
			if err != nil || who < 0 {
				return err
			}
			if v.CrashedAt[who] != 0 {
				return nil
			}
			if !v.Outputs[who].(baseline.D2Output).Leader {
				return fmt.Errorf("never-crashed maximum-key candidate %d did not claim leadership", who)
			}
			return nil
		},
	}
}

// d2UniquenessOracle is the conditional half of the guarantee: the
// election's relay structure lives entirely in rounds 1-2 (announce,
// then report-back through a shared neighbour — complete because the
// graph has diameter <= 2), so when no node crashes before round 3 the
// winner is unique. Crashes inside the relay window void the condition:
// a crashing relay can hide the maximum key from a lower candidate.
func d2UniquenessOracle() core.Oracle {
	return core.Oracle{
		Name: "d2-uniqueness",
		Check: func(v *core.RunView) error {
			for _, at := range v.CrashedAt {
				if at != 0 && at < 3 {
					return nil
				}
			}
			leaders := 0
			for u, o := range v.Outputs {
				d, ok := o.(baseline.D2Output)
				if !ok {
					return fmt.Errorf("node %d output is %T, want D2Output", u, o)
				}
				if v.CrashedAt[u] == 0 && d.Leader {
					leaders++
				}
			}
			if leaders > 1 {
				return fmt.Errorf("%d leaders with no crash before round 3, want <= 1", leaders)
			}
			return nil
		},
	}
}

// wcExistenceOracle mirrors d2ExistenceOracle for the flooding variant;
// the same no-key-exceeds-the-maximum argument makes it unconditional.
func wcExistenceOracle() core.Oracle {
	return core.Oracle{
		Name: "wc-existence",
		Check: func(v *core.RunView) error {
			who, err := d2MaxKeyCandidate(v.Outputs, func(o any) (int64, bool, error) {
				w, ok := o.(baseline.WCOutput)
				if !ok {
					return 0, false, fmt.Errorf("output is %T, want WCOutput", o)
				}
				return w.Key, w.Candidate, nil
			})
			if err != nil || who < 0 {
				return err
			}
			if v.CrashedAt[who] != 0 {
				return nil
			}
			if !v.Outputs[who].(baseline.WCOutput).Leader {
				return fmt.Errorf("never-crashed maximum-key candidate %d did not claim leadership", who)
			}
			return nil
		},
	}
}

// wcUniquenessOracle: in a crash-free run the maximum key floods to
// every node within diameter-many rounds, so at most one node keeps
// Best == Key. Any crash voids the condition — a crashed relay can
// partition the flood for the rest of the (diameter-bounded) horizon.
func wcUniquenessOracle() core.Oracle {
	return core.Oracle{
		Name: "wc-uniqueness",
		Check: func(v *core.RunView) error {
			for _, at := range v.CrashedAt {
				if at != 0 {
					return nil
				}
			}
			leaders := 0
			for u, o := range v.Outputs {
				w, ok := o.(baseline.WCOutput)
				if !ok {
					return fmt.Errorf("node %d output is %T, want WCOutput", u, o)
				}
				if w.Leader {
					leaders++
				}
			}
			if leaders > 1 {
				return fmt.Errorf("%d leaders in a crash-free run, want <= 1", leaders)
			}
			return nil
		},
	}
}

func init() {
	register(&System{
		Name:    "d2election",
		MaxF:    crashBudget,
		Horizon: 3,
		Oracles: []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(),
			d2ExistenceOracle(), d2UniquenessOracle()},
		Run: func(c Case, mode netsim.RunMode, tracer netsim.Tracer) (*Run, error) {
			workers, err := topoWorkers(mode)
			if err != nil {
				return nil, err
			}
			adv, err := c.adversary()
			if err != nil {
				return nil, err
			}
			res, err := baseline.RunD2Election(baseline.D2Config{
				N: c.N, Seed: c.Seed, Workers: workers, Tracer: tracer, Alpha: c.Alpha,
			}, adv)
			if err != nil {
				return nil, err
			}
			return topoRun(c, res), nil
		},
	})

	register(&System{
		Name:    "wcelection",
		MaxF:    crashBudget,
		Horizon: 3,
		Oracles: []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(),
			wcExistenceOracle(), wcUniquenessOracle()},
		Run: func(c Case, mode netsim.RunMode, tracer netsim.Tracer) (*Run, error) {
			workers, err := topoWorkers(mode)
			if err != nil {
				return nil, err
			}
			adv, err := c.adversary()
			if err != nil {
				return nil, err
			}
			res, err := baseline.RunWCElection(baseline.WCConfig{
				N: c.N, Seed: c.Seed, Workers: workers, Tracer: tracer, Alpha: c.Alpha,
			}, adv)
			if err != nil {
				return nil, err
			}
			return topoRun(c, res), nil
		},
	})
}
