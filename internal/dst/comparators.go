package dst

import (
	"fmt"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/netsim"
)

// This file registers the Table I comparators of internal/baseline that
// run on the complete network (floodset registers with the small-n
// systems in anon.go). They are opt-in: DefaultSystems keeps the nine
// systems its campaigns were pinned with, and campaigns and mc name
// these explicitly.
//
// Each gets the crash-model and CONGEST oracles. A comparator also gets
// an agreement oracle only where agreement holds under every schedule
// its crash budget admits; the argument sits on each registration.
// gossip, kutten and amp keep their guarantees only with high
// probability, so they get none.

// comparatorOracles is the safety suite of a Table I comparator.
func comparatorOracles(extra ...core.Oracle) []core.Oracle {
	return append([]core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle()}, extra...)
}

// agreementOracle re-checks explicit agreement from the raw outputs:
// every never-crashed node decided, all decisions agree, and the
// decided value is some node's input. read returns a node's input, its
// decision and whether it decided, or ok false for a foreign output.
func agreementOracle(name string, read func(o any) (input, value uint64, decided, ok bool)) core.Oracle {
	return core.Oracle{
		Name: name,
		Check: func(v *core.RunView) error {
			var val uint64
			first := -1
			haveInput := map[uint64]bool{}
			for u, o := range v.Outputs {
				in, x, decided, ok := read(o)
				if !ok {
					return fmt.Errorf("node %d output is %T", u, o)
				}
				haveInput[in] = true
				switch {
				case v.CrashedAt[u] != 0:
				case !decided:
					return fmt.Errorf("never-crashed node %d did not decide", u)
				case first < 0:
					first, val = u, x
				case x != val:
					return fmt.Errorf("live nodes %d and %d decided %d vs %d", first, u, val, x)
				}
			}
			if first >= 0 && !haveInput[val] {
				return fmt.Errorf("decided value %d is no node's input", val)
			}
			return nil
		},
	}
}

// floodSetAgreementOracle: Case.Validate caps the faulty count at the F
// the run is dimensioned for, and F+1 rounds with at most F crashes
// always contain a crash-free round, after which every live node holds
// the same minimum.
func floodSetAgreementOracle() core.Oracle {
	return agreementOracle("floodset-agreement", func(o any) (uint64, uint64, bool, bool) {
		f, ok := o.(baseline.FloodSetOutput)
		return uint64(f.Input), uint64(f.Value), true, ok
	})
}

// gkAgreementOracle is conditional on a committee member that never
// crashes. Then at most k-1 members crash, so one of the k committee
// rounds has no member crash, and after it every live member holds the
// same minimum; the never-crashed member's announcement reaches every
// node, and every announcement carries that minimum. An adversary that
// crashes the whole committee defeats GK — the resilience gap the
// paper's algorithm closes — so such runs are not judged.
func gkAgreementOracle() core.Oracle {
	o := agreementOracle("gk-agreement", func(o any) (uint64, uint64, bool, bool) {
		g, ok := o.(baseline.GKOutput)
		return uint64(g.Input), uint64(g.Value), g.Decided, ok
	})
	check := o.Check
	o.Check = func(v *core.RunView) error {
		for u, out := range v.Outputs {
			if g, ok := out.(baseline.GKOutput); ok && g.Committee && v.CrashedAt[u] == 0 {
				return check(v)
			}
		}
		return nil
	}
	return o
}

// rotatingAgreementOracle: the F+1 phase coordinators are distinct
// nodes and at most F nodes crash, so some coordinator never crashes;
// its broadcast gives every live node its value, which every later
// coordinator then holds too.
func rotatingAgreementOracle() core.Oracle {
	return agreementOracle("rotating-agreement", func(o any) (uint64, uint64, bool, bool) {
		r, ok := o.(baseline.RotatingOutput)
		return uint64(r.Input), uint64(r.Value), true, ok
	})
}

// allPairsAgreementOracle: the FloodSet argument over ranks. F+1 rounds
// of change-triggered flooding against at most F crashes contain a
// crash-free round, after which every live node holds the same minimum
// rank, and every flooded rank is some node's own.
func allPairsAgreementOracle() core.Oracle {
	return agreementOracle("allpairs-agreement", func(o any) (uint64, uint64, bool, bool) {
		a, ok := o.(baseline.AllPairsOutput)
		return a.Rank, a.Winner, true, ok
	})
}

// verdict reads a baseline evaluation.
func verdict(r *baseline.Result, err error) (bool, string) {
	if err != nil {
		return false, err.Error()
	}
	return r.Success, r.Reason
}

// explicitAgreement is the Evaluate of the explicit binary agreements.
func explicitAgreement(s Setup, res *netsim.Result) (bool, string) {
	return verdict(baseline.EvaluateExplicitAgreement(res, s.Bits))
}

// faultFree is the crash budget of the protocols that assume no crashes.
func faultFree(int, float64) int { return 0 }

func init() {
	register(&System{
		Name:    "gk",
		MaxF:    crashBudget,
		Horizon: 6,
		Input:   BitInputs,
		Oracles: comparatorOracles(gkAgreementOracle()),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildGK(baseline.GKConfig{N: s.N, Seed: s.Seed}, s.Alpha, s.Bits)
		},
		Evaluate: explicitAgreement,
		optIn:    true,
	})

	register(&System{
		Name:    "gossip",
		MaxF:    crashBudget,
		Horizon: 8,
		Input:   BitInputs,
		Oracles: comparatorOracles(),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildGossip(baseline.GossipConfig{N: s.N, Seed: s.Seed}, s.Alpha, s.Bits)
		},
		Evaluate: explicitAgreement,
		optIn:    true,
	})

	register(&System{
		Name:    "rotating",
		MaxF:    crashBudget,
		Horizon: 4,
		Input:   BitInputs,
		Oracles: comparatorOracles(rotatingAgreementOracle()),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildRotating(baseline.RotatingConfig{N: s.N, Seed: s.Seed, F: s.F}, s.Alpha, s.Bits)
		},
		Evaluate: explicitAgreement,
		optIn:    true,
	})

	register(&System{
		Name:    "allpairs",
		MaxF:    crashBudget,
		Horizon: 4,
		Oracles: comparatorOracles(allPairsAgreementOracle()),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			cfg, machines := baseline.BuildAllPairs(baseline.AllPairsConfig{N: s.N, Seed: s.Seed, F: s.F}, s.Alpha)
			return cfg, machines, nil
		},
		Evaluate: func(_ Setup, res *netsim.Result) (bool, string) {
			return verdict(baseline.EvaluateAllPairs(res))
		},
		optIn: true,
	})

	register(&System{
		Name:    "kutten",
		MaxF:    faultFree,
		Horizon: 3,
		Oracles: comparatorOracles(),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			cfg, machines := baseline.BuildKutten(baseline.KuttenConfig{N: s.N, Seed: s.Seed}, s.Alpha)
			return cfg, machines, nil
		},
		Evaluate: func(_ Setup, res *netsim.Result) (bool, string) {
			return verdict(baseline.EvaluateKutten(res))
		},
		optIn: true,
	})

	register(&System{
		Name:    "amp",
		MaxF:    faultFree,
		Horizon: 3,
		Input:   BitInputs,
		Oracles: comparatorOracles(),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildAMP(baseline.AMPConfig{N: s.N, Seed: s.Seed}, s.Alpha, s.Bits)
		},
		Evaluate: func(s Setup, res *netsim.Result) (bool, string) {
			return verdict(baseline.EvaluateAMP(res, s.Bits))
		},
		optIn: true,
	})
}
