package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"sublinear"
	"sublinear/internal/dst"
	"sublinear/internal/experiment"
	"sublinear/internal/fault"
	"sublinear/internal/mc"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/stats"
	"sublinear/internal/topo"
	"sublinear/internal/trace"
)

// JobResult is the aggregated outcome of one job's repetitions.
type JobResult struct {
	// Success counts repetitions whose protocol-level evaluation passed.
	Success int `json:"success"`
	// Reps is the number of repetitions actually run.
	Reps int `json:"reps"`
	// SuccessRate is Success/Reps with its 95% Wilson interval.
	SuccessRate float64 `json:"successRate"`
	CILow       float64 `json:"ciLow"`
	CIHigh      float64 `json:"ciHigh"`
	// Messages, Bits, Rounds summarise the per-repetition counters.
	Messages stats.Summary `json:"messages"`
	Bits     stats.Summary `json:"bits"`
	Rounds   stats.Summary `json:"rounds"`
	// PerKind is the message-kind breakdown summed over repetitions.
	PerKind map[string]int64 `json:"perKind,omitempty"`
	// Failures lists distinct failure reasons (deduplicated, capped).
	Failures []string `json:"failures,omitempty"`
	// Report is the rendered text report for experiment jobs.
	Report string `json:"report,omitempty"`
	// MC is the model-checking report for "mc" jobs: resolved config,
	// explored index range, and the state-space accounting. Its repro
	// files ride in Failures as "desc repro={json}" strings, same as dst
	// jobs. A success is a violation-free range.
	MC *mc.Report `json:"mc,omitempty"`
	// Raw is the per-repetition series, present when the spec asked for
	// it (JobSpec.Raw). Entry r of every slice belongs to repetition r.
	Raw *RawSeries `json:"raw,omitempty"`
	// TraceID is the content address of the recorded execution trace
	// when the spec asked for one (JobSpec.Trace); fetch the bytes from
	// GET /v1/traces/{id}. Set by the service when it deposits the
	// trace in its store.
	TraceID string `json:"traceId,omitempty"`
	// TraceRep is the repetition the trace records (the first failed
	// repetition, or 0 when all succeeded). Meaningful with TraceID.
	TraceRep int `json:"traceRep,omitempty"`

	// traceData carries the recorded trace from the runner to the
	// service, which moves it into the trace store and replaces it with
	// TraceID. Unexported: never serialized, never cached.
	traceData []byte
}

// RawSeries carries per-repetition observations in repetition order. It
// exists so shards of one logical run, executed on different workers,
// can be concatenated and re-summarized into statistics bit-identical
// to an unsharded run: summary quantities like the median and P90 are
// not mergeable from per-shard summaries, only from the samples.
type RawSeries struct {
	Messages []int64 `json:"messages"`
	Bits     []int64 `json:"bits"`
	Rounds   []int64 `json:"rounds"`
	Success  []bool  `json:"success"`
	// Reasons[r] is the failure reason of repetition r, "" on success.
	Reasons []string `json:"reasons"`
}

// repOutcome is what one repetition of any protocol produces.
type repOutcome struct {
	counters *metrics.Counters
	rounds   int
	success  bool
	reason   string
}

// runSpec executes a normalized spec, checking ctx between repetitions so
// a timed-out or draining job stops at the next rep boundary.
func runSpec(ctx context.Context, spec JobSpec) (*JobResult, error) {
	if spec.Protocol == ProtoExperiment {
		return runExperiment(spec)
	}
	if spec.Protocol == ProtoDST {
		return runDST(ctx, spec)
	}
	if spec.Protocol == ProtoMC {
		return runMC(ctx, spec)
	}
	res := &JobResult{PerKind: map[string]int64{}}
	if spec.Raw {
		res.Raw = &RawSeries{}
	}
	progress := progressFn(ctx)
	var msgs, bits, rounds []float64
	agg := new(metrics.Counters)
	seen := map[string]bool{}
	for rep := 0; rep < spec.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cancelled after %d/%d reps: %w", rep, spec.Reps, err)
		}
		progress(rep, spec.Reps)
		out, err := runOnce(spec, repSeed(spec, rep), nil)
		if err != nil {
			return nil, err
		}
		res.Reps++
		if res.Raw != nil {
			res.Raw.Messages = append(res.Raw.Messages, out.counters.Messages())
			res.Raw.Bits = append(res.Raw.Bits, out.counters.Bits())
			res.Raw.Rounds = append(res.Raw.Rounds, int64(out.rounds))
			res.Raw.Success = append(res.Raw.Success, out.success)
			reason := ""
			if !out.success {
				reason = out.reason
			}
			res.Raw.Reasons = append(res.Raw.Reasons, reason)
		}
		// Each repetition's counters are owned by this worker; Snapshot +
		// MergeSnapshot is the race-free aggregation contract.
		agg.MergeSnapshot(out.counters.Snapshot())
		msgs = append(msgs, float64(out.counters.Messages()))
		bits = append(bits, float64(out.counters.Bits()))
		rounds = append(rounds, float64(out.rounds))
		if out.success {
			res.Success++
		} else if !seen[out.reason] && len(res.Failures) < 8 {
			seen[out.reason] = true
			res.Failures = append(res.Failures, out.reason)
		}
	}
	res.Messages = stats.Summarize(msgs)
	res.Bits = stats.Summarize(bits)
	res.Rounds = stats.Summarize(rounds)
	res.SuccessRate = float64(res.Success) / float64(res.Reps)
	res.CILow, res.CIHigh = stats.WilsonInterval(res.Success, res.Reps)
	res.PerKind = agg.Snapshot().PerKind
	if spec.Trace {
		if err := recordTrace(spec, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// recordTrace re-runs the most interesting repetition — the first one
// that failed, or rep 0 when all passed — with a flight recorder
// attached, and stashes the trace bytes on the result for the service
// to deposit. Repetitions are deterministic in their seed, so the
// re-run is an exact replay of what the aggregate already counted.
func recordTrace(spec JobSpec, res *JobResult) error {
	rep := 0
	if res.Raw != nil {
		for r, passed := range res.Raw.Success {
			if !passed {
				rep = r
				break
			}
		}
	} else if res.Success > 0 && res.Success < res.Reps {
		// Without the raw series we know something failed but not which
		// rep (when everything failed, rep 0 already is a failed rep);
		// find the first failure the same way the loop did.
		for r := 0; r < res.Reps; r++ {
			out, err := runOnce(spec, repSeed(spec, r), nil)
			if err != nil {
				return err
			}
			if !out.success {
				rep = r
				break
			}
		}
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.Header{
		N: spec.N, Seed: repSeed(spec, rep), Label: spec.Protocol,
	})
	if err != nil {
		return err
	}
	if _, err := runOnce(spec, repSeed(spec, rep), rec); err != nil {
		return err
	}
	if err := rec.Close(); err != nil {
		return fmt.Errorf("trace of rep %d: %w", rep, err)
	}
	res.TraceRep = rep
	res.traceData = buf.Bytes()
	return nil
}

// repSeed is the seed of repetition r, shared by the aggregation loop
// and the trace re-run.
func repSeed(spec JobSpec, r int) uint64 { return spec.Seed + uint64(r)*7919 }

// runOnce executes one repetition at one seed. tracer is nil except for
// the trace re-run.
func runOnce(spec JobSpec, seed uint64, tracer netsim.Tracer) (repOutcome, error) {
	switch spec.Protocol {
	case ProtoElection, ProtoAgreement, ProtoMinAgree:
		return runCore(spec, seed, tracer)
	default:
		return runSystem(spec, seed, tracer)
	}
}

// coreOptions translates a normalized spec into sublinear.Options.
func coreOptions(spec JobSpec, seed uint64, tracer netsim.Tracer) sublinear.Options {
	opts := sublinear.Options{
		N: spec.N, Alpha: spec.Alpha, Seed: seed,
		Explicit:   spec.Explicit,
		Concurrent: spec.Engine == "concurrent",
		Tracer:     tracer,
	}
	if f := *spec.F; f > 0 {
		opts.Faults = &sublinear.FaultModel{
			Faulty: f, Policy: parsePolicy(spec.Policy),
			Hunter: spec.Hunter, CrashAfterElection: spec.Late,
		}
	}
	return opts
}

func parsePolicy(s string) sublinear.DropPolicy {
	switch s {
	case "all":
		return sublinear.DropAll
	case "none":
		return sublinear.DropNone
	case "random":
		return sublinear.DropRandom
	default:
		return sublinear.DropHalf
	}
}

func runCore(spec JobSpec, seed uint64, tracer netsim.Tracer) (repOutcome, error) {
	opts := coreOptions(spec, seed, tracer)
	switch spec.Protocol {
	case ProtoElection:
		res, err := sublinear.Elect(opts)
		if err != nil {
			return repOutcome{}, err
		}
		return repOutcome{res.Counters, res.Rounds, res.Eval.Success, res.Eval.Reason}, nil
	case ProtoAgreement:
		inputs := sublinear.RandomInputs(spec.N, spec.POne, seed^0xbeef)
		res, err := sublinear.Agree(opts, inputs)
		if err != nil {
			return repOutcome{}, err
		}
		return repOutcome{res.Counters, res.Rounds, res.Eval.Success, res.Eval.Reason}, nil
	default: // minagree
		res, err := sublinear.AgreeMin(opts, minAgreeValues(spec.N, seed))
		if err != nil {
			return repOutcome{}, err
		}
		return repOutcome{res.Counters, res.Rounds, res.Eval.Success, res.Eval.Reason}, nil
	}
}

// minAgreeValues draws the service's min-agreement inputs: values
// below 16n.
func minAgreeValues(n int, seed uint64) []uint64 {
	src := rng.New(seed ^ 0x313a6)
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(src.Int64n(int64(n) * 16))
	}
	return values
}

// crashWindow is the latest round a protocol's random crash plan crashes
// a node in: the protocols that run f+1 rounds get all of them. 0 means
// the protocol runs fault-free.
func crashWindow(protocol string, f int) int {
	switch protocol {
	case "gk", "gossip":
		return 20
	case "floodset", "rotating", "allpairs":
		return f + 1
	case "d2election", "wcelection":
		return 3
	}
	return 0 // kutten and amp assume no crashes
}

// runSystem runs one repetition of a registered system with the
// service's own input derivation and crash plans, the same adversary
// family the experiment harness uses.
func runSystem(spec JobSpec, seed uint64, tracer netsim.Tracer) (repOutcome, error) {
	sys := runnable(spec.Protocol)
	if sys == nil {
		return repOutcome{}, fmt.Errorf("unknown protocol %q", spec.Protocol)
	}
	n, f := spec.N, *spec.F
	s := dst.Setup{N: n, Alpha: spec.Alpha, Seed: seed, F: f}
	switch sys.Input {
	case dst.BitInputs:
		s.Bits = sublinear.RandomInputs(n, spec.POne, seed^0xbeef)
	case dst.ValueInputs:
		s.Values = minAgreeValues(n, seed)
	}
	if sys.Topology != "" {
		tp, err := topo.ResolveTopology(spec.Topology, n, seed)
		if err != nil {
			return repOutcome{}, err
		}
		s.Topology = tp
	}
	cfg, machines, err := sys.Build(s)
	if err != nil {
		return repOutcome{}, err
	}
	cfg.Tracer = tracer
	// Normalize has already bounded n, f, and the policy, so the only
	// way the plan constructor can fail here is a harness bug — surface
	// it.
	var adv netsim.Adversary
	if w := crashWindow(spec.Protocol, f); w > 0 {
		adv = fault.Must(fault.NewRandomPlan(n, f, w, parsePolicy(spec.Policy), rng.New(seed^0xadd5)))
	}
	mode := netsim.Sequential
	if spec.Engine == "concurrent" {
		mode = netsim.Parallel
	}
	res, err := netsim.Execute(mode, cfg, machines, adv)
	if err != nil {
		return repOutcome{}, err
	}
	ok, reason := sys.Evaluate(s, res)
	return repOutcome{res.Counters, res.Rounds, ok, reason}, nil
}

// runDST runs one deterministic-simulation fuzzing campaign over the
// real protocols; each case is one "repetition", a success is a case
// with no engine divergence and no oracle violation, and each failure
// reason carries the minimized reproducer so the submitter can replay
// it with `dstrun -repro`.
func runDST(ctx context.Context, spec JobSpec) (*JobResult, error) {
	camp, err := dst.RunCampaign(ctx, dst.CampaignConfig{Cases: spec.Reps, Seed: spec.Seed}, nil)
	if err != nil {
		return nil, err
	}
	res := &JobResult{
		Reps:    camp.Cases,
		Success: camp.Cases - len(camp.Failures),
	}
	if res.Reps > 0 {
		res.SuccessRate = float64(res.Success) / float64(res.Reps)
		res.CILow, res.CIHigh = stats.WilsonInterval(res.Success, res.Reps)
	}
	for _, f := range camp.Failures {
		if len(res.Failures) >= 8 {
			break
		}
		repro, jerr := json.Marshal(f.Case)
		if jerr != nil {
			return nil, jerr
		}
		res.Failures = append(res.Failures, fmt.Sprintf("%s repro=%s", &f, repro))
	}
	return res, nil
}

// runMC explores one index range of a system's bounded schedule
// universe with the exhaustive model checker. The job is the fleet's
// sharding unit: disjoint [Lo, Hi) ranges over the same universe are
// shards of one exhaustive run, and their exact counts (Scanned,
// SymSkipped, Violations) merge by summation into the single-process
// totals. Success means the range verified clean; each violating bug
// class contributes one minimized reproducer to Failures.
func runMC(ctx context.Context, spec JobSpec) (*JobResult, error) {
	cfg := mc.Config{
		System: spec.System, N: spec.N, Alpha: spec.Alpha, MaxF: *spec.F,
		Horizon: spec.Horizon, Seed: spec.Seed, POne: spec.POne,
	}
	if spec.Policies != "" {
		for _, p := range strings.Split(spec.Policies, ",") {
			pol, err := fault.ParsePolicy(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			cfg.Policies = append(cfg.Policies, pol)
		}
	}
	hi := spec.Hi
	if hi == 0 {
		hi = -1 // whole universe
	}
	rep, err := mc.ExploreRange(ctx, cfg, spec.Lo, hi, nil)
	if err != nil {
		return nil, err
	}
	res := &JobResult{Reps: 1, MC: rep}
	if rep.Clean() {
		res.Success = 1
	}
	res.SuccessRate = float64(res.Success)
	res.CILow, res.CIHigh = stats.WilsonInterval(res.Success, res.Reps)
	for _, f := range rep.Failures {
		if len(res.Failures) >= 8 {
			break
		}
		repro, jerr := json.Marshal(f.Case)
		if jerr != nil {
			return nil, jerr
		}
		res.Failures = append(res.Failures, fmt.Sprintf("%s repro=%s", &f, repro))
	}
	return res, nil
}

// runExperiment replays a registered experiment through the shared
// registry and returns its rendered report.
func runExperiment(spec JobSpec) (*JobResult, error) {
	r, ok := experiment.Find(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	rep, err := r.Run(experiment.Config{Quick: spec.Quick, SeedBase: spec.Seed})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		return nil, err
	}
	return &JobResult{Reps: 1, Success: 1, SuccessRate: 1, Report: b.String()}, nil
}
