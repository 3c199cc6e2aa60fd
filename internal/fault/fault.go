// Package fault implements crash-fault adversaries for the simulator.
//
// The paper's adversary (Section II) is static in its choice of the faulty
// set — it selects up to f = (1-alpha)n nodes before execution — but
// adaptive in timing: it chooses, during the run, when each faulty node
// crashes and which subset of the crash-round messages is lost. The
// adversaries here implement that power at several strengths, from benign
// (crash late, lose nothing) to the split-delivery behaviour the election
// algorithm's iteration logic exists to survive.
package fault

import (
	"fmt"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// DropPolicy decides which of a crashing node's final-round messages are
// delivered.
type DropPolicy int

// Drop policies for the crash round.
const (
	// DropAll loses every message of the crash round.
	DropAll DropPolicy = iota + 1
	// DropNone delivers every message and crashes the node afterwards.
	DropNone
	// DropHalf delivers only the first half of the outbox — the
	// adversarial "split" that leaves two groups with different views.
	DropHalf
	// DropRandom loses each message independently with probability 1/2.
	DropRandom
)

// Plan is a precomputed static fault plan: which nodes are faulty, when
// each crashes, and how its crash round is filtered. It implements
// netsim.Adversary deterministically.
type Plan struct {
	faulty     []bool
	crashRound []int // 0 = never crashes
	policy     DropPolicy
	coin       *rng.Source
}

var (
	_ netsim.Adversary     = (*Plan)(nil)
	_ netsim.CrashCalendar = (*Plan)(nil)
)

// NewRandomPlan selects f faulty nodes uniformly at random, assigns each a
// uniform crash round in [1, horizon], and applies the given drop policy.
// It rejects impossible parameters — f outside [0, n], a non-positive
// horizon with f > 0, an invalid policy, or a nil source — instead of
// panicking mid-construction. Must unwraps the result where parameters
// are static and known-good.
func NewRandomPlan(n, f, horizon int, policy DropPolicy, src *rng.Source) (*Plan, error) {
	if err := validatePlanArgs(n, f, policy, src); err != nil {
		return nil, err
	}
	if f > 0 && horizon < 1 {
		return nil, fmt.Errorf("fault: horizon %d, need >= 1 when f > 0", horizon)
	}
	p := newPlan(n, policy, src)
	if f == 0 {
		return p, nil
	}
	for _, u := range src.SampleDistinct(f, n, nil) {
		p.faulty[u] = true
		p.crashRound[u] = 1 + src.Intn(horizon)
	}
	return p, nil
}

// validatePlanArgs holds the checks shared by the plan constructors.
func validatePlanArgs(n, f int, policy DropPolicy, src *rng.Source) error {
	if n < 1 {
		return fmt.Errorf("fault: n = %d, need >= 1", n)
	}
	if f < 0 || f > n {
		return fmt.Errorf("fault: f = %d out of range [0, %d]", f, n)
	}
	if !validPolicy(policy) {
		return fmt.Errorf("fault: invalid policy %d", int(policy))
	}
	if src == nil {
		return fmt.Errorf("fault: nil rng source")
	}
	return nil
}

// Must unwraps a plan constructor's result, panicking on error. For tests
// and benchmarks whose parameters are static and known-good.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// NewLateCrashPlan selects f faulty nodes uniformly at random and crashes
// all of them in the given round, delivering all of their messages
// (DropNone). With round beyond the protocol's horizon this models the
// paper's footnote-3 scenario: every faulty node executes correctly until
// the leader is elected, then crashes — so an elected leader is faulty
// with probability f/n.
func NewLateCrashPlan(n, f, round int, src *rng.Source) (*Plan, error) {
	if err := validatePlanArgs(n, f, DropNone, src); err != nil {
		return nil, err
	}
	if f > 0 && round < 1 {
		return nil, fmt.Errorf("fault: crash round %d, need >= 1", round)
	}
	p := newPlan(n, DropNone, src)
	for _, u := range src.SampleDistinct(f, n, nil) {
		p.faulty[u] = true
		p.crashRound[u] = round
	}
	return p, nil
}

// NewTargetedPlan crashes the given nodes at the given rounds with the
// given policy. Useful for deterministic scenario tests.
func NewTargetedPlan(n int, crashRound map[int]int, policy DropPolicy, src *rng.Source) (*Plan, error) {
	if err := validatePlanArgs(n, len(crashRound), policy, src); err != nil {
		return nil, err
	}
	p := newPlan(n, policy, src)
	for u, r := range crashRound {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("fault: node %d out of range [0, %d)", u, n)
		}
		if r < 1 {
			return nil, fmt.Errorf("fault: node %d crash round %d, need >= 1", u, r)
		}
		p.faulty[u] = true
		p.crashRound[u] = r
	}
	return p, nil
}

func newPlan(n int, policy DropPolicy, src *rng.Source) *Plan {
	return &Plan{
		faulty:     make([]bool, n),
		crashRound: make([]int, n),
		policy:     policy,
		coin:       src.Split(0x0fa17),
	}
}

// Faulty reports whether node is in the static faulty set.
func (p *Plan) Faulty(node int) bool { return p.faulty[node] }

// CrashNow reports whether node's scheduled crash round has arrived.
func (p *Plan) CrashNow(node, round int, _ []netsim.Send) bool {
	return p.crashRound[node] != 0 && round >= p.crashRound[node]
}

// CrashRound implements netsim.CrashCalendar: node's scheduled crash
// round, or 0 if it never crashes. CrashNow is false before it and true
// in it, so the engine asks only then.
func (p *Plan) CrashRound(node int) int { return p.crashRound[node] }

// DeliverOnCrash applies the plan's drop policy.
func (p *Plan) DeliverOnCrash(_, _, msgIndex int, _ netsim.Send) bool {
	return deliver(p.policy, p.coin, msgIndex)
}

// FaultyCount returns the size of the faulty set.
func (p *Plan) FaultyCount() int {
	count := 0
	for _, f := range p.faulty {
		if f {
			count++
		}
	}
	return count
}

func deliver(policy DropPolicy, coin *rng.Source, msgIndex int) bool {
	switch policy {
	case DropAll:
		return false
	case DropNone:
		return true
	case DropHalf:
		// Parity split: deliver even indices. Index order is the order
		// the machine emitted sends, so this cuts a broadcast in half.
		return msgIndex%2 == 0
	case DropRandom:
		return coin.Bool(0.5)
	default:
		return true
	}
}

// Hunter is an adaptive adversary that targets protocol committees: it
// watches outboxes and crashes a faulty node the first round that node
// sends a burst of at least Threshold messages (the signature of a
// candidate or referee broadcast), splitting the delivery. This is the
// worst case the election iteration is designed for: the minimum-rank
// candidate crashing mid-broadcast so only part of the committee learns
// its rank.
type Hunter struct {
	faulty    []bool
	threshold int
	policy    DropPolicy
	budget    int // remaining crashes; guards are per-run
	coin      *rng.Source
}

var _ netsim.Adversary = (*Hunter)(nil)

// NewHunter selects f faulty nodes uniformly at random and returns a
// Hunter with the given burst threshold. At most f nodes crash. Policy
// DropHalf is the canonical choice.
func NewHunter(n, f, threshold int, policy DropPolicy, src *rng.Source) *Hunter {
	h := &Hunter{
		faulty:    make([]bool, n),
		threshold: threshold,
		policy:    policy,
		budget:    f,
		coin:      src.Split(0x1fa17),
	}
	if f > n {
		f = n
	}
	if f > 0 {
		for _, u := range src.SampleDistinct(f, n, nil) {
			h.faulty[u] = true
		}
	}
	return h
}

// Faulty reports whether node is in the static faulty set.
func (h *Hunter) Faulty(node int) bool { return h.faulty[node] }

// CrashNow crashes a faulty node the first time it bursts.
func (h *Hunter) CrashNow(_, _ int, outbox []netsim.Send) bool {
	if h.budget <= 0 || len(outbox) < h.threshold {
		return false
	}
	h.budget--
	return true
}

// DeliverOnCrash applies the hunter's drop policy.
func (h *Hunter) DeliverOnCrash(_, _, msgIndex int, _ netsim.Send) bool {
	return deliver(h.policy, h.coin, msgIndex)
}
