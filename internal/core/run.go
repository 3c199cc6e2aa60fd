package core

import (
	"fmt"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// RunConfig configures one protocol execution.
type RunConfig struct {
	// N is the network size (>= 2).
	N int
	// Alpha is the guaranteed non-faulty fraction, in
	// [log^2 n / n, 1].
	Alpha float64
	// Seed makes the run reproducible.
	Seed uint64
	// Params tunes the algorithm; the zero value is the paper's
	// defaults.
	Params Params
	// Adversary injects crash faults; nil means a fault-free run.
	Adversary netsim.Adversary
	// Record enables message tracing for influence-cloud analysis.
	Record bool
	// Tracer, when non-nil, streams every engine event (rounds, sends,
	// drops, crashes, violations) to an execution flight recorder — see
	// internal/trace. Unlike Record it does not constrain the engine to
	// one worker and costs nothing when nil. Honored by every mode,
	// including the socket engine, which emits the identical event
	// stream.
	Tracer netsim.Tracer
	// Mode selects the engine: netsim.Sequential (the zero value),
	// netsim.Parallel, or a registered engine like netsim.RealNet. All
	// modes produce identical executions.
	Mode netsim.RunMode
	// CongestFactor overrides the per-message bit budget multiplier;
	// zero selects 12, which admits the largest protocol payload
	// (two ranks = 8 ceil(log2 n) bits plus flags) with headroom.
	CongestFactor int
}

// DefaultCongestFactor is the per-message bit-budget multiplier the core
// protocols run under when RunConfig.CongestFactor is zero; it admits
// the largest protocol payload with headroom. Exposed so the oracles can
// recompute the enforced budget.
const DefaultCongestFactor = 12

func (c RunConfig) engineConfig(maxRounds int) netsim.Config {
	factor := c.CongestFactor
	if factor == 0 {
		factor = DefaultCongestFactor
	}
	return netsim.Config{
		N:             c.N,
		Alpha:         c.Alpha,
		Seed:          c.Seed,
		MaxRounds:     maxRounds,
		CongestFactor: factor,
		Strict:        true,
		Record:        c.Record,
		Tracer:        c.Tracer,
	}
}

// ElectionResult is the outcome of one leader-election run.
type ElectionResult struct {
	// Outputs holds every node's protocol output, indexed by node.
	Outputs []ElectionOutput
	// CrashedAt[u] is the crash round of node u, or 0.
	CrashedAt []int
	// Faulty[u] reports whether the adversary selected node u as faulty.
	Faulty []bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Counters carries message/bit accounting.
	Counters *metrics.Counters
	// Trace is the message trace when RunConfig.Record was set.
	Trace *netsim.Trace
	// Digest is the engine's execution fingerprint (netsim.Result.Digest).
	Digest uint64
	// Eval summarises success per Definition 1.
	Eval ElectionEval
}

// RunElection executes the fault-tolerant leader election of Section IV-A
// on a fresh simulated network.
func RunElection(cfg RunConfig) (*ElectionResult, error) {
	ecfg, machines, err := BuildElection(cfg)
	if err != nil {
		return nil, err
	}
	res, err := netsim.Execute(cfg.Mode, ecfg, machines, cfg.Adversary)
	if err != nil {
		return nil, fmt.Errorf("election run: %w", err)
	}
	return EvaluateElection(cfg, res)
}

// BuildElection returns the engine configuration and the machines of one
// election run.
func BuildElection(cfg RunConfig) (netsim.Config, []netsim.Machine, error) {
	d, err := deriveParams(cfg.Params, cfg.N, cfg.Alpha)
	if err != nil {
		return netsim.Config{}, nil, err
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = newElectionMachine(d)
	}
	return cfg.engineConfig(electionRounds(d)), machines, nil
}

// EvaluateElection types an election run's outputs and judges the run
// against Definition 1.
func EvaluateElection(cfg RunConfig, res *netsim.Result) (*ElectionResult, error) {
	out := &ElectionResult{
		Outputs:   make([]ElectionOutput, cfg.N),
		CrashedAt: res.CrashedAt,
		Faulty:    res.Faulty,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
		Trace:     res.Trace,
		Digest:    res.Digest,
	}
	for u, o := range res.Outputs {
		eo, ok := o.(ElectionOutput)
		if !ok {
			return nil, fmt.Errorf("election run: node %d returned %T", u, o)
		}
		out.Outputs[u] = eo
	}
	out.Eval = evaluateElection(out.Outputs, res.CrashedAt, cfg.Params.Explicit)
	return out, nil
}

// AgreementResult is the outcome of one agreement run.
type AgreementResult struct {
	// Outputs holds every node's protocol output, indexed by node.
	Outputs []AgreementOutput
	// CrashedAt[u] is the crash round of node u, or 0.
	CrashedAt []int
	// Faulty[u] reports whether the adversary selected node u as faulty.
	Faulty []bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Counters carries message/bit accounting.
	Counters *metrics.Counters
	// Trace is the message trace when RunConfig.Record was set.
	Trace *netsim.Trace
	// Digest is the engine's execution fingerprint (netsim.Result.Digest).
	Digest uint64
	// Eval summarises success per Definition 2.
	Eval AgreementEval
}

// RunAgreement executes the fault-tolerant implicit agreement of Section
// V-A. inputs must have length cfg.N with values in {0, 1}.
func RunAgreement(cfg RunConfig, inputs []int) (*AgreementResult, error) {
	ecfg, machines, err := BuildAgreement(cfg, inputs)
	if err != nil {
		return nil, err
	}
	res, err := netsim.Execute(cfg.Mode, ecfg, machines, cfg.Adversary)
	if err != nil {
		return nil, fmt.Errorf("agreement run: %w", err)
	}
	return EvaluateAgreement(cfg, inputs, res)
}

// BuildAgreement returns the engine configuration and the machines of
// one agreement run.
func BuildAgreement(cfg RunConfig, inputs []int) (netsim.Config, []netsim.Machine, error) {
	d, err := deriveParams(cfg.Params, cfg.N, cfg.Alpha)
	if err != nil {
		return netsim.Config{}, nil, err
	}
	if len(inputs) != cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("agreement run: %d inputs for N=%d", len(inputs), cfg.N)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		if inputs[u] != 0 && inputs[u] != 1 {
			return netsim.Config{}, nil, fmt.Errorf("agreement run: input[%d] = %d, want 0 or 1", u, inputs[u])
		}
		machines[u] = newAgreementMachine(d, inputs[u])
	}
	return cfg.engineConfig(agreementRounds(d, 0)), machines, nil
}

// EvaluateAgreement types an agreement run's outputs and judges the run
// against Definition 2.
func EvaluateAgreement(cfg RunConfig, inputs []int, res *netsim.Result) (*AgreementResult, error) {
	out := &AgreementResult{
		Outputs:   make([]AgreementOutput, cfg.N),
		CrashedAt: res.CrashedAt,
		Faulty:    res.Faulty,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
		Trace:     res.Trace,
		Digest:    res.Digest,
	}
	for u, o := range res.Outputs {
		ao, ok := o.(AgreementOutput)
		if !ok {
			return nil, fmt.Errorf("agreement run: node %d returned %T", u, o)
		}
		out.Outputs[u] = ao
	}
	out.Eval = evaluateAgreement(out.Outputs, inputs, res.CrashedAt, cfg.Params.Explicit)
	return out, nil
}

// Derived exposes the concrete parameter values the algorithms would use
// for (n, alpha) under p — committee size expectations, referee sample
// size, iteration budget and total round budget. Used by documentation,
// the CLIs, and the experiment harness.
type Derived struct {
	CandidateProb      float64
	ExpectedCandidates float64
	RefereeCount       int
	Iterations         int
	ElectionRounds     int
	AgreementRounds    int
}

// DeriveParams validates (n, alpha) and reports the derived quantities.
func DeriveParams(p Params, n int, alpha float64) (Derived, error) {
	d, err := deriveParams(p, n, alpha)
	if err != nil {
		return Derived{}, err
	}
	return Derived{
		CandidateProb:      d.candidateProb,
		ExpectedCandidates: d.candidateProb * float64(n),
		RefereeCount:       d.refereeCount,
		Iterations:         d.iterations,
		ElectionRounds:     electionRounds(d),
		AgreementRounds:    agreementRounds(d, 0),
	}, nil
}
