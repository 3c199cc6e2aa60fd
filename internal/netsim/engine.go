package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"sublinear/internal/metrics"
	"sublinear/internal/rng"
)

// Engine executes a set of machines under the synchronous crash-fault
// model. Construct with NewEngine and call Run once.
type Engine struct {
	cfg      Config
	machines []Machine
	adv      Adversary

	envs      []*Env
	crashedAt []int

	counters   metrics.Counters
	violations []Violation
	trace      *Trace
	bitBudget  int
	digest     digest

	// Mode selects the run mode: Sequential (default, a pure
	// single-threaded reference pipeline) or Parallel (the sharded
	// worker-pool pipeline). Semantics are identical across modes;
	// tests assert equivalence.
	Mode RunMode
}

// NewEngine validates the configuration and prepares an engine. machines
// must have length cfg.N. adv may be nil, meaning no faults.
func NewEngine(cfg Config, machines []Machine, adv Adversary) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("netsim: %d machines for N=%d", len(machines), cfg.N)
	}
	for u, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("netsim: machine %d is nil", u)
		}
	}
	if adv == nil {
		adv = NoFaults{}
	}
	e := &Engine{
		cfg:       cfg,
		machines:  machines,
		adv:       adv,
		envs:      make([]*Env, cfg.N),
		crashedAt: make([]int, cfg.N),
		bitBudget: cfg.bitBudget(),
		digest:    newDigest(),
	}
	e.counters.ReserveRounds(cfg.MaxRounds)
	e.counters.ReserveKinds(metrics.KindCount())
	root := rng.New(cfg.Seed)
	// One backing array for all Envs: at large n the per-node environments
	// are a noticeable slice of construction cost, and a single contiguous
	// block both halves the allocation count and keeps the step phase's
	// env loads local.
	envs := make([]Env, cfg.N)
	for u := 0; u < cfg.N; u++ {
		envs[u] = Env{N: cfg.N, ID: u, Alpha: cfg.Alpha, Rand: root.Split(uint64(u)), Deg: cfg.degree(u), tracing: cfg.Tracer != nil}
		e.envs[u] = &envs[u]
	}
	if cfg.Record {
		e.trace = newTrace(cfg.N)
	}
	return e, nil
}

// Run executes rounds until every live machine is done and no messages
// are in flight, or MaxRounds elapses. It returns an error only for
// model violations in strict mode.
//
// Every round delivers the previous round's messages, steps the round's
// active machines (every live one unless some machine is a Sleeper; see
// wake.go), decides crashes, and processes the new outboxes — all on the
// sharded pipeline (see shard.go). Adversary calls stay on the
// coordination thread in node order, the per-message work fans out over
// the worker pool, and everything order-sensitive folds back in node
// order at the round barrier, so results are identical across modes and
// worker counts. In rounds where no crash can occur — no live faulty
// node remains, a CrashCalendar names no node for the round, or a
// CrashPlanner adversary has published a crash-free window — the three
// pipeline stages fuse into a single dispatch, so the steady state pays
// one barrier per round instead of three.
func (e *Engine) Run() (*Result, error) {
	n := e.cfg.N
	workers := e.cfg.workerCount()
	if e.Mode == Sequential {
		// The sequential engine stays a pure single-threaded reference
		// implementation: same pipeline, one inline shard, no goroutines.
		workers = 1
	}
	if e.trace != nil {
		// Trace recording is order-sensitive and unsynchronized; run the
		// whole pipeline on the coordination thread.
		workers = 1
	}
	pipe := newPipeline(e, workers)
	defer pipe.close()

	// The faulty set is static (see Adversary), so it is consulted once
	// up front, and so is a CrashCalendar's round for each faulty node.
	// liveFaulty tracks how many faulty nodes have yet to crash: when it
	// reaches zero no adversary call can change the execution and every
	// remaining round runs on the fused path.
	calendar, _ := e.adv.(CrashCalendar)
	liveFaulty := 0
	for u := 0; u < n; u++ {
		if !e.adv.Faulty(u) {
			continue
		}
		liveFaulty++
		if calendar == nil {
			pipe.faulty = append(pipe.faulty, int32(u))
		} else if r := calendar.CrashRound(u); r >= 1 && r <= e.cfg.MaxRounds {
			pipe.due = append(pipe.due, crashDue{round: r, node: u})
		}
	}
	slices.SortFunc(pipe.due, func(a, b crashDue) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.node, b.node))
	})
	planner, _ := e.adv.(CrashPlanner)
	windowEnd := 0 // first round that needs a crash pass; recompute when reached

	for round := 1; round <= e.cfg.MaxRounds; round++ {
		e.counters.BeginRound(round)
		e.digest.words(digestRound, uint64(round))
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.TraceRound(round)
		}

		crashPossible := liveFaulty > 0
		if calendar != nil {
			crashPossible = pipe.dueAt(round)
		} else if crashPossible && planner != nil {
			if round >= windowEnd {
				windowEnd = planner.NextCrashRound(round)
				if windowEnd < round {
					windowEnd = round
				}
			}
			crashPossible = round >= windowEnd
		}

		if crashPossible {
			pipe.deliverStep(round)
			liveFaulty -= pipe.crashPass(round)
			pipe.senders(round)
		} else {
			pipe.fusedRound(round)
		}

		inFlight, err := pipe.merge(round)
		if err != nil {
			return nil, err
		}
		if !inFlight && e.allQuiet() {
			break
		}
	}
	return e.result(), nil
}

// stepOne runs machine u for the given round against the given inbox and
// returns its outbox, or nil if the machine is crashed. Machines that
// report Done keep being stepped: Done means "I will not send unless I
// receive something", which matters for reactive roles (a referee acts
// only when contacted); it does not halt the machine. Only Sleeper
// wake-ups let the engine skip a live machine's round.
func (e *Engine) stepOne(u, round int, inbox []Delivery) []Send {
	if e.crashedAt[u] != 0 {
		return nil
	}
	out := e.machines[u].Step(e.envs[u], round, inbox)
	if e.trace != nil && len(inbox) > 0 {
		e.trace.noteReceive(u, round)
	}
	if out == nil {
		return emptyOutbox
	}
	return out
}

// emptyOutbox distinguishes "stepped, sent nothing" from "did not step"
// (crashed, or asleep this round).
var emptyOutbox = make([]Send, 0)

func (e *Engine) allQuiet() bool {
	for u := range e.machines {
		if e.crashedAt[u] != 0 {
			continue
		}
		if !e.machines[u].Done() {
			return false
		}
	}
	return true
}

func (e *Engine) result() *Result {
	e.digest.words(digestOutcome, uint64(e.counters.Rounds()), uint64(e.counters.Messages()), uint64(e.counters.Bits()))
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceFinish(e.counters.Rounds(), e.counters.Messages(), e.counters.Bits(), e.digest.h)
	}
	res := &Result{
		Digest:     e.digest.h,
		Outputs:    make([]any, e.cfg.N),
		CrashedAt:  append([]int(nil), e.crashedAt...),
		Faulty:     make([]bool, e.cfg.N),
		Rounds:     e.counters.Rounds(),
		Counters:   &e.counters,
		Violations: e.violations,
		Trace:      e.trace,
	}
	for u, m := range e.machines {
		res.Outputs[u] = m.Output()
		res.Faulty[u] = e.adv.Faulty(u)
	}
	return res
}
