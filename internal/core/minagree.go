package core

import (
	"fmt"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// Multi-valued implicit agreement: the natural generalization of Section
// V-A from bits to arbitrary uint64 values under the MIN rule. The binary
// protocol is the special case where the only possible improvement is
// 1 -> 0. Candidates register with their value; a party (candidate or
// referee) forwards a value only when it strictly improves its current
// minimum, so each referee-candidate edge carries at most as many
// messages as there are distinct improvements (<= |C|), for a worst case
// of O(|C|^2 sqrt(n log n / alpha)) messages and the same O(log n/alpha)
// round budget — still sublinear for the paper's parameter regime, at one
// extra log-factor over the binary bound.

// valueMsg propagates a candidate minimum (register distinguishes the
// committee-membership announcement from later improvements).
type valueMsg struct {
	v        uint64
	register bool
}

var kindValue = metrics.InternKind("value")

func (valueMsg) Kind() string         { return "value" }
func (valueMsg) Bits(n int) int       { return rankBits(n) + 3 }
func (valueMsg) KindID() metrics.Kind { return kindValue }

// MinAgreementOutput is a node's output from the multi-valued protocol.
type MinAgreementOutput struct {
	// IsCandidate reports committee membership.
	IsCandidate bool
	// Input is the node's initial value.
	Input uint64
	// Decided reports the candidate reached termination.
	Decided bool
	// Value is the decided minimum.
	Value uint64
}

// minAgreeMachine runs the min-propagation protocol on one node.
type minAgreeMachine struct {
	d         derived
	input     uint64
	lastRound int
	mainEnd   int
	endRound  int

	isCandidate bool
	refPorts    []int
	refPortSet  map[int]bool
	min         uint64
	sentMin     uint64 // last minimum forwarded to referees; ^0 = none

	refActive bool
	candPorts []int
	candSet   map[int]bool
	refMin    uint64
	refSent   map[int]uint64 // per-port last pushed minimum; absent = none

	out netsim.EdgeQueue
}

var _ netsim.Machine = (*minAgreeMachine)(nil)

func newMinAgreeMachine(d derived, input uint64) *minAgreeMachine {
	m := &minAgreeMachine{d: d, input: input, refMin: ^uint64(0), sentMin: ^uint64(0)}
	m.mainEnd = 1 + 2*d.iterations + 2
	m.endRound = m.mainEnd
	return m
}

func (m *minAgreeMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		return m.start(env)
	}
	for _, msg := range inbox {
		m.handle(msg)
	}
	if m.isCandidate && m.min < m.sentMin {
		// Forward the improved minimum to all referees (at most once per
		// improvement).
		m.sentMin = m.min
		for _, rp := range m.refPorts {
			m.out.Enqueue(rp, valueMsg{v: m.min})
		}
	}
	return m.out.Flush(nil)
}

func (m *minAgreeMachine) start(env *netsim.Env) []netsim.Send {
	m.min = m.input
	if !env.Rand.Bool(m.d.candidateProb) {
		return nil
	}
	m.isCandidate = true
	m.sentMin = m.input
	ports := env.Rand.SampleDistinct(m.d.refereeCount, env.N-1, nil)
	m.refPorts = make([]int, len(ports))
	m.refPortSet = make(map[int]bool, len(ports))
	sends := make([]netsim.Send, len(ports))
	for i, p := range ports {
		m.refPorts[i] = p + 1
		m.refPortSet[p+1] = true
		sends[i] = netsim.Send{Port: p + 1, Payload: valueMsg{v: m.input, register: true}}
	}
	return sends
}

func (m *minAgreeMachine) handle(msg netsim.Delivery) {
	pl, ok := msg.Payload.(valueMsg)
	if !ok {
		return
	}
	fromMyReferee := m.isCandidate && m.refPortSet[msg.Port]
	if fromMyReferee && pl.v < m.min {
		m.min = pl.v
	}
	// Referee side applies when the sender registers, is already a
	// registered candidate port (the two roles can share an edge), or is
	// an unknown port (a candidate whose registration was lost to a
	// crash). A pure push from one of our own referees is not referee
	// traffic.
	if fromMyReferee && !pl.register && !m.candSet[msg.Port] {
		return
	}
	if m.candSet == nil {
		m.candSet = make(map[int]bool)
	}
	if !m.candSet[msg.Port] {
		m.refActive = true
		m.candSet[msg.Port] = true
		m.candPorts = append(m.candPorts, msg.Port)
		if m.refMin != ^uint64(0) {
			m.pushTo(msg.Port)
		}
	}
	if pl.v < m.refMin {
		m.refMin = pl.v
		for _, cp := range m.candPorts {
			m.pushTo(cp)
		}
	}
}

// pushTo forwards the referee's current minimum to one candidate port if
// it improves what that port has already been sent.
func (m *minAgreeMachine) pushTo(port int) {
	if m.refSent == nil {
		m.refSent = make(map[int]uint64)
	}
	last, sent := m.refSent[port]
	if sent && last <= m.refMin {
		return
	}
	m.refSent[port] = m.refMin
	m.out.Enqueue(port, valueMsg{v: m.refMin})
}

func (m *minAgreeMachine) Done() bool {
	if m.lastRound >= m.endRound {
		return true
	}
	if !m.d.params.EarlyStop {
		return false
	}
	// Unlike the binary protocol, a candidate can never know the global
	// minimum early, so early stop only drains queues.
	return m.lastRound >= 2 && m.out.Empty() && (!m.isCandidate || m.min >= m.sentMin)
}

func (m *minAgreeMachine) Output() any {
	return MinAgreementOutput{
		IsCandidate: m.isCandidate,
		Input:       m.input,
		Decided:     m.isCandidate && m.lastRound >= m.mainEnd,
		Value:       m.min,
	}
}

// MinAgreementEval judges a multi-valued run: live decided candidates
// must share a value that is some node's input (and, under min-validity,
// no larger than the minimum committee input that survived).
type MinAgreementEval struct {
	Candidates  int
	DecidedLive int
	Value       uint64
	Success     bool
	Reason      string
}

// MinAgreementResult is the outcome of one multi-valued agreement run.
type MinAgreementResult struct {
	Outputs   []MinAgreementOutput
	CrashedAt []int
	Faulty    []bool
	Rounds    int
	Counters  *metrics.Counters
	// Digest is the engine's execution fingerprint (netsim.Result.Digest).
	Digest uint64
	Eval   MinAgreementEval
}

// RunMinAgreement executes the multi-valued implicit agreement. values
// must have length cfg.N.
func RunMinAgreement(cfg RunConfig, values []uint64) (*MinAgreementResult, error) {
	d, err := deriveParams(cfg.Params, cfg.N, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if len(values) != cfg.N {
		return nil, fmt.Errorf("min agreement: %d values for N=%d", len(values), cfg.N)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		if values[u] >= 1<<62 {
			return nil, fmt.Errorf("min agreement: value[%d] = %d exceeds the 62-bit CONGEST payload", u, values[u])
		}
		machines[u] = newMinAgreeMachine(d, values[u])
	}
	maxRounds := newMinAgreeMachine(d, 0).endRound
	res, err := netsim.Execute(cfg.Mode, cfg.engineConfig(maxRounds), machines, cfg.Adversary)
	if err != nil {
		return nil, fmt.Errorf("min agreement run: %w", err)
	}
	out := &MinAgreementResult{
		Outputs:   make([]MinAgreementOutput, cfg.N),
		CrashedAt: res.CrashedAt,
		Faulty:    res.Faulty,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
		Digest:    res.Digest,
	}
	for u, o := range res.Outputs {
		mo, ok := o.(MinAgreementOutput)
		if !ok {
			return nil, fmt.Errorf("min agreement run: node %d returned %T", u, o)
		}
		out.Outputs[u] = mo
	}
	out.Eval = evaluateMinAgreement(out.Outputs, values, res.CrashedAt)
	return out, nil
}

func evaluateMinAgreement(outputs []MinAgreementOutput, values []uint64, crashedAt []int) MinAgreementEval {
	var ev MinAgreementEval
	inputSet := make(map[uint64]bool, len(values))
	for _, v := range values {
		inputSet[v] = true
	}
	agree := true
	first := true
	for u, o := range outputs {
		if !o.IsCandidate {
			continue
		}
		ev.Candidates++
		if crashedAt[u] != 0 || !o.Decided {
			continue
		}
		ev.DecidedLive++
		if first {
			ev.Value = o.Value
			first = false
		} else if ev.Value != o.Value {
			agree = false
		}
	}
	switch {
	case ev.Candidates == 0:
		ev.Reason = "no candidates self-selected"
	case ev.DecidedLive == 0:
		ev.Reason = "no live decided node"
	case !agree:
		ev.Reason = "live candidates disagree"
	case !inputSet[ev.Value]:
		ev.Reason = "decided value is no node's input"
	default:
		ev.Success = true
	}
	return ev
}
