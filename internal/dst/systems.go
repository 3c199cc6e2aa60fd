package dst

import (
	"sublinear/internal/core"
	"sublinear/internal/netsim"
)

// crashBudget is the fault-model bound: the adversary may select at
// most (1-alpha)n faulty nodes, and the harness additionally keeps at
// least two nodes live so every protocol's output is meaningful.
func crashBudget(n int, alpha float64) int {
	f := int((1 - alpha) * float64(n))
	if f > n-2 {
		f = n - 2
	}
	if f < 0 {
		f = 0
	}
	return f
}

// coreAlpha is the core protocols' DefaultAlpha: the paper's
// admissibility floor log^2 n / n, clamped up to the campaign's 0.7. At
// model-checking sizes (n < 32) the floor is 1, so the exhaustive
// universe of an admissible core run is the single fault-free schedule —
// the paper's fault tolerance only exists at scale.
func coreAlpha(n int) float64 {
	a := core.MinimumAlpha(n)
	if a < 0.7 {
		a = 0.7
	}
	return a
}

func init() {
	register(&System{
		Name:         "election",
		MaxF:         crashBudget,
		Horizon:      8,
		DefaultAlpha: coreAlpha,
		Oracles:      core.ElectionOracles(),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return core.BuildElection(coreConfig(s))
		},
		Evaluate: func(s Setup, res *netsim.Result) (bool, string) {
			r, err := core.EvaluateElection(coreConfig(s), res)
			if err != nil {
				return false, err.Error()
			}
			return r.Eval.Success, r.Eval.Reason
		},
	})

	register(&System{
		Name:         "agreement",
		MaxF:         crashBudget,
		Horizon:      6,
		Input:        BitInputs,
		DefaultAlpha: coreAlpha,
		Oracles:      core.AgreementOracles(),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return core.BuildAgreement(coreConfig(s), s.Bits)
		},
		Evaluate: func(s Setup, res *netsim.Result) (bool, string) {
			r, err := core.EvaluateAgreement(coreConfig(s), s.Bits, res)
			if err != nil {
				return false, err.Error()
			}
			return r.Eval.Success, r.Eval.Reason
		},
	})

	register(&System{
		Name:         "minagree",
		MaxF:         crashBudget,
		Horizon:      6,
		Input:        ValueInputs,
		DefaultAlpha: coreAlpha,
		Oracles:      core.MinAgreementOracles(),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return core.BuildMinAgreement(coreConfig(s), s.Values)
		},
		Evaluate: func(s Setup, res *netsim.Result) (bool, string) {
			r, err := core.EvaluateMinAgreement(s.Values, res)
			if err != nil {
				return false, err.Error()
			}
			return r.Eval.Success, r.Eval.Reason
		},
	})
}

// coreConfig is the paper-default run configuration of a setup. The
// core protocols read no fault bound: they are dimensioned by alpha.
func coreConfig(s Setup) core.RunConfig {
	return core.RunConfig{N: s.N, Alpha: s.Alpha, Seed: s.Seed}
}
