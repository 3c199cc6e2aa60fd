package sublinear

import (
	"errors"
	"fmt"

	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// Re-exported result and evaluation types. These are the concrete types
// returned by Elect and Agree; their fields and methods are documented in
// internal/core.
type (
	// ElectionResult is the outcome of one leader-election run.
	ElectionResult = core.ElectionResult
	// ElectionOutput is a single node's election output.
	ElectionOutput = core.ElectionOutput
	// ElectionEval is the per-run success evaluation (Definition 1).
	ElectionEval = core.ElectionEval
	// AgreementResult is the outcome of one agreement run.
	AgreementResult = core.AgreementResult
	// AgreementOutput is a single node's agreement output.
	AgreementOutput = core.AgreementOutput
	// AgreementEval is the per-run success evaluation (Definition 2).
	AgreementEval = core.AgreementEval
	// MinAgreementResult is the outcome of one multi-valued agreement
	// run (AgreeMin).
	MinAgreementResult = core.MinAgreementResult
	// MinAgreementOutput is a single node's multi-valued output.
	MinAgreementOutput = core.MinAgreementOutput
	// Tuning exposes the algorithm constants (candidate probability,
	// referee sample and iteration budget factors).
	Tuning = core.Params
)

// Node election states.
const (
	// Undecided is the bot state.
	Undecided = core.Undecided
	// Elected marks the unique leader.
	Elected = core.Elected
	// NonElected marks every other node.
	NonElected = core.NonElected
)

// DropPolicy selects what happens to a crashing node's final-round
// messages.
type DropPolicy = fault.DropPolicy

// Crash-round delivery policies, re-exported from internal/fault.
const (
	// DropAll loses every message of the crash round.
	DropAll = fault.DropAll
	// DropNone delivers everything, then the node halts.
	DropNone = fault.DropNone
	// DropHalf delivers half the outbox — the adversarial split.
	DropHalf = fault.DropHalf
	// DropRandom loses each message with probability 1/2.
	DropRandom = fault.DropRandom
)

// FaultModel describes the crash-fault adversary for a run. The faulty
// set is chosen uniformly at random (the paper's static adversary); crash
// timing follows the selected mode.
type FaultModel struct {
	// Faulty is the number of faulty nodes f. The run's alpha must
	// satisfy f <= (1-alpha) n.
	Faulty int
	// Policy governs crash-round message delivery. Zero means DropHalf,
	// the adversarial default.
	Policy DropPolicy
	// Window limits crash rounds to [1, Window]; 0 means the whole
	// execution.
	Window int
	// CrashAfterElection, when set, crashes every faulty node late with
	// full delivery (the paper's footnote-3 scenario, under which the
	// elected leader is faulty with probability f/n).
	CrashAfterElection bool
	// Hunter switches to the adaptive adversary that crashes faulty
	// nodes the moment they burst messages like committee members,
	// splitting delivery.
	Hunter bool
	// Seed seeds the adversary's choices; 0 derives it from the run
	// seed.
	Seed uint64
}

// Options configures a protocol run.
type Options struct {
	// N is the network size (>= 2).
	N int
	// Alpha is the guaranteed non-faulty fraction, in [log^2 n / n, 1].
	Alpha float64
	// Seed makes the run reproducible.
	Seed uint64
	// Faults selects the adversary; nil runs fault-free.
	Faults *FaultModel
	// Explicit extends the implicit protocol so every node learns the
	// result (O(n log n / alpha) extra messages, O(1) extra rounds).
	Explicit bool
	// Tuning overrides the paper's constants; the zero value is the
	// defaults.
	Tuning Tuning
	// Concurrent runs the sharded pipeline on a worker pool with a
	// round barrier (netsim.Parallel) instead of the sequential engine.
	// Both produce identical results for identical seeds.
	Concurrent bool
	// TCP runs the protocol over real TCP loopback sockets with the
	// binary wire codec instead of the in-memory simulator: one socket
	// per node, a hub enforcing the round structure, identical model
	// semantics — the socket engine (internal/realnet) produces the
	// same execution digest as the simulator for the same seed and
	// schedule. Intended for modest n (every round is n socket
	// round-trips). Overrides Concurrent.
	TCP bool
	// Record keeps the message trace (needed for influence-cloud
	// analysis; costs memory). Not available over TCP.
	Record bool
	// Tracer streams every engine event to an execution flight
	// recorder (see internal/trace and cmd/tracectl). Unlike Record it
	// works at any worker count and costs nothing when nil. Honored by
	// every mode including TCP, which emits the identical event stream.
	Tracer Tracer
}

// Tracer receives the engine's event stream; trace.NewRecorder builds
// one that writes the binary trace format with a digest witness.
type Tracer = netsim.Tracer

// ErrTooManyFaults is returned when the fault model exceeds what alpha
// admits.
var ErrTooManyFaults = errors.New("sublinear: faulty count exceeds (1-alpha)*n")

// Elect runs fault-tolerant implicit (or explicit) leader election and
// returns the full result, including per-node outputs, message/bit/round
// accounting, and the Definition-1 evaluation.
func Elect(opts Options) (*ElectionResult, error) {
	cfg, err := opts.runConfig()
	if err != nil {
		return nil, err
	}
	if opts.TCP {
		return core.RunElectionOverTCP(cfg)
	}
	return core.RunElection(cfg)
}

// AgreeMin runs the multi-valued generalization of the agreement
// protocol: the committee converges on the MINIMUM of its members'
// values (one value per node, < 2^62 to fit the CONGEST payload). The
// binary protocol is the 0/1 special case. Implicit only.
func AgreeMin(opts Options, values []uint64) (*MinAgreementResult, error) {
	cfg, err := opts.runConfig()
	if err != nil {
		return nil, err
	}
	if opts.TCP {
		return core.RunMinAgreementOverTCP(cfg, values)
	}
	return core.RunMinAgreement(cfg, values)
}

// Agree runs fault-tolerant implicit (or explicit) binary agreement on
// the given inputs (one bit per node).
func Agree(opts Options, inputs []int) (*AgreementResult, error) {
	cfg, err := opts.runConfig()
	if err != nil {
		return nil, err
	}
	if opts.TCP {
		return core.RunAgreementOverTCP(cfg, inputs)
	}
	return core.RunAgreement(cfg, inputs)
}

// MinimumAlpha returns the smallest admissible alpha for n nodes,
// log^2(n)/n — the resilience frontier f = n - log^2 n.
func MinimumAlpha(n int) float64 { return core.MinimumAlpha(n) }

// Derived reports the concrete protocol quantities for a parameter
// choice: candidate probability, expected committee size, referee sample
// size, iteration budget, and total round budgets.
type Derived = core.Derived

// Describe validates (n, alpha) under the given tuning and returns the
// derived protocol quantities.
func Describe(t Tuning, n int, alpha float64) (Derived, error) {
	return core.DeriveParams(t, n, alpha)
}

// RandomInputs returns n random bits, each 1 with probability pOne, for
// agreement workloads.
func RandomInputs(n int, pOne float64, seed uint64) []int {
	src := rng.New(seed)
	inputs := make([]int, n)
	for i := range inputs {
		if src.Bool(pOne) {
			inputs[i] = 1
		}
	}
	return inputs
}

// ConstantInputs returns n copies of bit — the validity-critical
// workloads (all zeros / all ones).
func ConstantInputs(n, bit int) []int {
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = bit
	}
	return inputs
}

// SparseZeros returns all-ones inputs with exactly k zeros planted at
// uniformly random positions — the hardest workload for the 0-biased
// agreement (the zeros must reach the committee to matter).
func SparseZeros(n, k int, seed uint64) []int {
	inputs := ConstantInputs(n, 1)
	if k <= 0 {
		return inputs
	}
	if k > n {
		k = n
	}
	src := rng.New(seed)
	for _, idx := range src.SampleDistinct(k, n, nil) {
		inputs[idx] = 0
	}
	return inputs
}

func (opts Options) runConfig() (core.RunConfig, error) {
	params := opts.Tuning
	params.Explicit = params.Explicit || opts.Explicit
	cfg := core.RunConfig{
		N:      opts.N,
		Alpha:  opts.Alpha,
		Seed:   opts.Seed,
		Params: params,
		Record: opts.Record,
		Tracer: opts.Tracer,
	}
	if opts.Concurrent {
		cfg.Mode = netsim.Parallel
	}
	if opts.Faults == nil {
		return cfg, nil
	}
	adv, err := opts.buildAdversary(params)
	if err != nil {
		return core.RunConfig{}, err
	}
	cfg.Adversary = adv
	return cfg, nil
}

func (opts Options) buildAdversary(params core.Params) (netsim.Adversary, error) {
	fm := *opts.Faults
	maxFaulty := int((1 - opts.Alpha) * float64(opts.N))
	if fm.Faulty > maxFaulty {
		return nil, fmt.Errorf("%w: f=%d, (1-alpha)n=%d", ErrTooManyFaults, fm.Faulty, maxFaulty)
	}
	if fm.Policy == 0 {
		fm.Policy = DropHalf
	}
	seed := fm.Seed
	if seed == 0 {
		seed = opts.Seed ^ 0x5eedfa17
	}
	src := rng.New(seed)
	derived, err := core.DeriveParams(params, opts.N, opts.Alpha)
	if err != nil {
		return nil, err
	}
	horizon := derived.ElectionRounds
	if derived.AgreementRounds > horizon {
		horizon = derived.AgreementRounds
	}
	switch {
	case fm.CrashAfterElection:
		return fault.NewLateCrashPlan(opts.N, fm.Faulty, horizon+1, src)
	case fm.Hunter:
		return fault.NewHunter(opts.N, fm.Faulty, 8, fm.Policy, src), nil
	default:
		window := fm.Window
		if window <= 0 || window > horizon {
			window = horizon
		}
		return fault.NewRandomPlan(opts.N, fm.Faulty, window, fm.Policy, src)
	}
}
