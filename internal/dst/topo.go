package dst

import (
	"fmt"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/netsim"
)

// This file registers the topology-family protocols: leader election on
// diameter-two graphs and on well-connected (bounded-degree expander)
// graphs, both running on compiled port tables instead of the clique
// wiring. The differential check applies unchanged: the sequential
// reference runs the pipeline on one inline shard, the parallel lane
// shards it over the worker pool, and any scheduling-dependent
// divergence trips the same digest diff as on the clique. The socket
// engine runs only the complete network, so these two have no realnet
// lane.

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

// implicitElection is the Evaluate of the topology elections.
func implicitElection(_ Setup, res *netsim.Result) (bool, string) {
	return verdict(baseline.EvaluateImplicitElection(res))
}

func init() {
	register(&System{
		Name:     "d2election",
		MaxF:     crashBudget,
		Horizon:  3,
		Topology: "cluster-d2",
		Oracles: []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(),
			d2ExistenceOracle(), d2UniquenessOracle()},
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildD2Election(baseline.D2Config{N: s.N, Seed: s.Seed, Topology: s.Topology}, s.Alpha)
		},
		Evaluate: implicitElection,
	})

	register(&System{
		Name:     "wcelection",
		MaxF:     crashBudget,
		Horizon:  3,
		Topology: "wellconnected",
		Oracles: []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(),
			wcExistenceOracle(), wcUniquenessOracle()},
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildWCElection(baseline.WCConfig{N: s.N, Seed: s.Seed, Topology: s.Topology}, s.Alpha)
		},
		Evaluate: implicitElection,
	})
}
