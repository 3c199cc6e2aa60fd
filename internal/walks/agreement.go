package walks

import (
	"fmt"

	"sublinear/internal/graph"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// Walk-based implicit binary agreement on general graphs: the same
// token machinery as the election, but marks carry the *minimum* input
// bit (the paper's 0-bias) instead of the maximum rank. A single
// committee member holding 0 infects every node its tokens touch; any
// other committee member whose tokens cross those marks carries the 0
// home. On fast-mixing graphs the election budget suffices; slow mixers
// need the same stretch.

// agreeToken is the agreement walk token; carried is the minimum bit
// seen (0 or 1).
type agreeToken struct {
	id      uint32
	carried uint8
	step    uint16
	back    bool
}

func (agreeToken) Kind() string { return "token" }

func (agreeToken) Bits(int) int { return 32 + 1 + 16 + 1 }

// AgreementOutput is a node's result from the walk agreement.
type AgreementOutput struct {
	// IsCandidate reports committee membership.
	IsCandidate bool
	// Input is the node's input bit.
	Input int
	// Decided reports the candidate reached termination.
	Decided bool
	// Value is the decided bit.
	Value int
}

// agreeMachine is the per-node walk-agreement state machine.
type agreeMachine struct {
	params    Params
	walkLen   int
	input     int
	lastRound int

	isCandidate bool
	minSeen     uint8

	mark      uint8 // minimum bit written into this node; 1 initially
	marked    bool
	backPorts map[uint64]int
	out       netsim.EdgeQueue
}

var _ netsim.Machine = (*agreeMachine)(nil)

func (m *agreeMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		m.mark = 1
		m.minSeen = 1
		m.start(env)
	}
	for _, d := range inbox {
		m.handle(env, d)
	}
	return m.out.Flush(nil)
}

func (m *agreeMachine) start(env *netsim.Env) {
	prob := m.params.CandidateFactor * rng.LogN(env.N) / float64(env.N)
	if prob > 1 {
		prob = 1
	}
	if !env.Rand.Bool(prob) {
		return
	}
	m.isCandidate = true
	m.minSeen = uint8(m.input)
	m.mark = uint8(m.input)
	m.marked = true
	for i := 0; i < m.params.Tokens; i++ {
		tok := agreeToken{
			id:      uint32(env.Rand.Uint64()),
			carried: uint8(m.input),
			step:    1,
		}
		m.out.Enqueue(1+env.Rand.Intn(env.Deg), tok)
	}
}

func (m *agreeMachine) handle(env *netsim.Env, d netsim.Delivery) {
	tok, ok := d.Payload.(agreeToken)
	if !ok {
		return
	}
	// Exchange minima with the node's mark.
	if m.marked && m.mark < tok.carried {
		tok.carried = m.mark
	} else if tok.carried < m.mark || !m.marked {
		m.mark = tok.carried
		m.marked = true
	}
	if !tok.back {
		if m.backPorts == nil {
			m.backPorts = make(map[uint64]int)
		}
		m.backPorts[backKey(tok.id, tok.step)] = d.Port
		if int(tok.step) >= m.walkLen {
			tok.back = true
			tok.step--
			m.out.Enqueue(d.Port, tok)
			return
		}
		tok.step++
		m.out.Enqueue(1+env.Rand.Intn(env.Deg), tok)
		return
	}
	if tok.step == 0 {
		if m.isCandidate && tok.carried < m.minSeen {
			m.minSeen = tok.carried
		}
		return
	}
	port, found := m.backPorts[backKey(tok.id, tok.step)]
	if !found {
		return
	}
	tok.step--
	m.out.Enqueue(port, tok)
}

func (m *agreeMachine) Done() bool { return true }

func (m *agreeMachine) Output() any {
	return AgreementOutput{
		IsCandidate: m.isCandidate,
		Input:       m.input,
		Decided:     m.isCandidate,
		Value:       int(m.minSeen),
	}
}

// AgreementEval summarises a walk-agreement run per Definition 2.
type AgreementEval struct {
	Candidates  int
	DecidedLive int
	Value       int
	Success     bool
	Reason      string
}

// AgreementResult is a walk-agreement run outcome.
type AgreementResult struct {
	Outputs   []AgreementOutput
	CrashedAt []int
	Rounds    int
	Counters  *metrics.Counters
	WalkLen   int
	Eval      AgreementEval
}

// RunAgreement executes the walk-based implicit agreement on the graph.
// inputs must have one bit per node. adv may be nil.
func RunAgreement(g graph.Graph, seed uint64, params Params, inputs []int, adv netsim.Adversary) (*AgreementResult, error) {
	n := g.N()
	if len(inputs) != n {
		return nil, fmt.Errorf("walk agreement: %d inputs for n=%d", len(inputs), n)
	}
	p := params.withDefaults(n)
	l := p.walkLen(n)
	machines := make([]netsim.Machine, n)
	for u := range machines {
		if inputs[u] != 0 && inputs[u] != 1 {
			return nil, fmt.Errorf("walk agreement: input[%d] = %d", u, inputs[u])
		}
		machines[u] = &agreeMachine{params: p, walkLen: l, input: inputs[u]}
	}
	res, err := runOnGraph(g, seed, 4*l+8, machines, adv)
	if err != nil {
		return nil, fmt.Errorf("walk agreement: %w", err)
	}
	out := &AgreementResult{
		Outputs:   make([]AgreementOutput, n),
		CrashedAt: res.CrashedAt,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
		WalkLen:   l,
	}
	for u, o := range res.Outputs {
		ao, ok := o.(AgreementOutput)
		if !ok {
			return nil, fmt.Errorf("walk agreement: node %d returned %T", u, o)
		}
		out.Outputs[u] = ao
	}
	out.Eval = evaluateAgreement(out.Outputs, inputs, res.CrashedAt)
	return out, nil
}

func evaluateAgreement(outputs []AgreementOutput, inputs []int, crashedAt []int) AgreementEval {
	var ev AgreementEval
	ev.Value = -1
	haveInput := [2]bool{}
	for _, in := range inputs {
		haveInput[in] = true
	}
	agree := true
	for u, o := range outputs {
		if !o.IsCandidate {
			continue
		}
		ev.Candidates++
		if crashedAt[u] != 0 || !o.Decided {
			continue
		}
		ev.DecidedLive++
		if ev.Value == -1 {
			ev.Value = o.Value
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
	case !haveInput[ev.Value]:
		ev.Reason = "decided value is no node's input"
	default:
		ev.Success = true
	}
	return ev
}
