// Package walks implements randomized implicit leader election on general
// graphs via random-walk sampling — the direction of the paper's open
// problem 2, in the spirit of Gilbert–Robinson–Sourav (PODC'18) and
// Kowalski–Mosteiro (ICDCS'21), which the related-work section cites as
// the general-graph state of the art.
//
// The complete-network algorithm's referees are uniform samples; on a
// general graph uniform sampling is not available, so candidates sample
// by walking: each candidate launches K tokens that perform L-step random
// walks, writing the maximum rank seen into every visited node and
// absorbing the maxima already written (the walk doubles as both the
// "announce" and the "referee" role). Tokens then retrace their paths
// home, so each candidate learns the maximum rank over every node its
// tokens touched. Two candidates conflict exactly when their visited sets
// intersect in a compatible order; with K*L walk-steps sized like the
// paper's referee sample, Theta(sqrt(n log n)) marks suffice on graphs
// with good mixing, while slow-mixing graphs (the ring) need the stretch
// factor raised — reproducing the t_mix dependence of the cited bounds.
package walks

import (
	"fmt"
	"math"

	"sublinear/internal/graph"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/topo"
)

// Params tunes the walk election.
type Params struct {
	// CandidateFactor scales the candidate probability
	// CandidateFactor * ln n / n; default 6 (as in the paper).
	CandidateFactor float64
	// Tokens is the number of walk tokens per candidate; default
	// ceil(2 ln n).
	Tokens int
	// MarkBudgetFactor scales each candidate's total walk-step budget
	// K*L = MarkBudgetFactor * sqrt(n * ln n); default 2 (the paper's
	// referee constant).
	MarkBudgetFactor float64
	// Stretch multiplies the per-token walk length, compensating for
	// revisits on slow-mixing graphs; default 1.
	Stretch float64
}

func (p Params) withDefaults(n int) Params {
	if p.CandidateFactor == 0 {
		p.CandidateFactor = 6
	}
	if p.Tokens == 0 {
		p.Tokens = int(math.Ceil(2 * rng.LogN(n)))
	}
	if p.MarkBudgetFactor == 0 {
		p.MarkBudgetFactor = 2
	}
	if p.Stretch == 0 {
		p.Stretch = 1
	}
	return p
}

// walkLen returns the per-token walk length L.
func (p Params) walkLen(n int) int {
	budget := p.MarkBudgetFactor * math.Sqrt(float64(n)*rng.LogN(n)) * p.Stretch
	l := int(math.Ceil(budget / float64(p.Tokens)))
	if l < 2 {
		l = 2
	}
	return l
}

// walkToken is the protocol's only payload: a token on its way out
// (back=false) or retracing home (back=true). id is a random 32-bit token
// identifier used for the back-pointers; carried is the running maximum
// rank; step is the position on the out-path.
type walkToken struct {
	id      uint32
	carried uint64
	step    uint16
	back    bool
}

func (walkToken) Kind() string { return "token" }

func (walkToken) Bits(n int) int {
	// id(32) + carried(4 ceil(log2 n) <= 62, the rank space) + step(16)
	// + flag.
	return 32 + min(4*netsim.BitsLen(n), 62) + 16 + 1
}

// Output is a node's result.
type Output struct {
	// IsCandidate reports whether the node drew a rank and launched
	// tokens.
	IsCandidate bool
	// Rank is the candidate's rank.
	Rank uint64
	// MaxSeen is the highest rank the candidate's tokens brought home
	// (its leader belief).
	MaxSeen uint64
	// Elected reports MaxSeen == Rank at termination.
	Elected bool
	// TokensHome counts tokens that completed the round trip.
	TokensHome int
}

// machine is the per-node walk-election state machine (KT0 on a general
// graph: it only uses Env.Deg and arrival ports).
type machine struct {
	params    Params
	walkLen   int
	endRound  int
	lastRound int

	isCandidate bool
	rank        uint64
	maxSeen     uint64
	tokensHome  int
	launched    bool

	mark      uint64         // highest rank written into this node
	backPorts map[uint64]int // (tokenID<<16 | step) -> port toward home
	out       netsim.EdgeQueue
}

var _ netsim.Machine = (*machine)(nil)

func (m *machine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		m.start(env)
	}
	for _, d := range inbox {
		m.handle(env, d)
	}
	return m.out.Flush(nil)
}

func (m *machine) start(env *netsim.Env) {
	prob := m.params.CandidateFactor * rng.LogN(env.N) / float64(env.N)
	if prob > 1 {
		prob = 1
	}
	if !env.Rand.Bool(prob) {
		return
	}
	m.isCandidate = true
	m.rank = 1 + uint64(env.Rand.Int64n(int64(rankSpace(env.N))))
	m.maxSeen = m.rank
	m.mark = m.rank
	for i := 0; i < m.params.Tokens; i++ {
		tok := walkToken{
			id:      uint32(env.Rand.Uint64()),
			carried: m.rank,
			step:    1,
		}
		port := 1 + env.Rand.Intn(env.Deg)
		m.out.Enqueue(port, tok)
	}
	m.launched = true
}

func (m *machine) handle(env *netsim.Env, d netsim.Delivery) {
	tok, ok := d.Payload.(walkToken)
	if !ok {
		return
	}
	// Exchange maxima with this node's mark (both directions).
	if m.mark > tok.carried {
		tok.carried = m.mark
	} else if tok.carried > m.mark {
		m.mark = tok.carried
	}
	if !tok.back {
		// Outbound: remember the way home for this (token, step).
		if m.backPorts == nil {
			m.backPorts = make(map[uint64]int)
		}
		m.backPorts[backKey(tok.id, tok.step)] = d.Port
		if int(tok.step) >= m.walkLen {
			// Turn around: retrace via the port it arrived on.
			tok.back = true
			tok.step--
			m.out.Enqueue(d.Port, tok)
			return
		}
		tok.step++
		m.out.Enqueue(1+env.Rand.Intn(env.Deg), tok)
		return
	}
	// Homebound: step is the position of THIS node on the out-path.
	if tok.step == 0 {
		// This delivery came back to the home node.
		m.absorb(tok)
		return
	}
	port, found := m.backPorts[backKey(tok.id, tok.step)]
	if !found {
		// Back-pointer lost (only possible under crashes rerouting);
		// drop the token.
		return
	}
	tok.step--
	m.out.Enqueue(port, tok)
}

// absorb processes a token that completed its round trip.
func (m *machine) absorb(tok walkToken) {
	if !m.isCandidate {
		return
	}
	m.tokensHome++
	if tok.carried > m.maxSeen {
		m.maxSeen = tok.carried
	}
}

func backKey(id uint32, step uint16) uint64 {
	return uint64(id)<<16 | uint64(step)
}

func (m *machine) Done() bool { return true } // purely reactive after launch

func (m *machine) Output() any {
	return Output{
		IsCandidate: m.isCandidate,
		Rank:        m.rank,
		MaxSeen:     m.maxSeen,
		Elected:     m.isCandidate && m.maxSeen == m.rank,
		TokensHome:  m.tokensHome,
	}
}

func rankSpace(n int) uint64 {
	fn := float64(n)
	r := fn * fn * fn * fn
	if r > float64(uint64(1)<<62) {
		return 1 << 62
	}
	if r < 16 {
		return 16
	}
	return uint64(r)
}

// Eval summarises a walk-election run. Success follows Definition 1 of
// the paper: exactly one live node elected. FullAgreement is the stronger
// diagnostic that every live candidate also learned the global maximum
// rank (the analogue of a complete rankList).
type Eval struct {
	Candidates    int
	AgreedRank    uint64
	ElectedCount  int
	Success       bool
	FullAgreement bool
	Reason        string
}

// Result is a walk-election run outcome.
type Result struct {
	Outputs   []Output
	CrashedAt []int
	Rounds    int
	Counters  *metrics.Counters
	WalkLen   int
	Eval      Eval
}

// Run executes the walk election on the graph. adv may be nil.
func Run(g graph.Graph, seed uint64, params Params, adv netsim.Adversary) (*Result, error) {
	n := g.N()
	p := params.withDefaults(n)
	l := p.walkLen(n)
	machines := make([]netsim.Machine, n)
	walkers := make([]*machine, n)
	for u := range machines {
		wm := &machine{params: p, walkLen: l}
		walkers[u] = wm
		machines[u] = wm
	}
	// Round budget: out + back plus queue-contention slack.
	maxRounds := 4*l + 8
	res, err := runOnGraph(g, seed, maxRounds, machines, adv)
	if err != nil {
		return nil, fmt.Errorf("walk election: %w", err)
	}
	out := &Result{
		Outputs:   make([]Output, n),
		CrashedAt: res.CrashedAt,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
		WalkLen:   l,
	}
	for u, o := range res.Outputs {
		wo, ok := o.(Output)
		if !ok {
			return nil, fmt.Errorf("walk election: node %d returned %T", u, o)
		}
		out.Outputs[u] = wo
	}
	out.Eval = evaluate(out.Outputs, res.CrashedAt)
	return out, nil
}

// runOnGraph compiles g and executes the machines on its port table
// with the sequential engine, under the walk protocols' CONGEST budget.
func runOnGraph(g graph.Graph, seed uint64, maxRounds int, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
	tp, err := topo.Compile(g)
	if err != nil {
		return nil, err
	}
	return netsim.Execute(netsim.Sequential, netsim.Config{
		N: tp.N(), Ports: tp.Ports(), Alpha: 1, Seed: seed, MaxRounds: maxRounds,
		CongestFactor: 16, Strict: true,
	}, machines, adv)
}

func evaluate(outputs []Output, crashedAt []int) Eval {
	var ev Eval
	var maxRank uint64
	for _, o := range outputs {
		if o.IsCandidate && o.Rank > maxRank {
			maxRank = o.Rank
		}
	}
	agree := true
	for u, o := range outputs {
		if !o.IsCandidate {
			continue
		}
		ev.Candidates++
		if crashedAt[u] != 0 {
			continue
		}
		if o.Elected {
			ev.ElectedCount++
		}
		if o.MaxSeen != maxRank {
			agree = false
		}
	}
	ev.FullAgreement = agree && ev.Candidates > 0
	switch {
	case ev.Candidates == 0:
		ev.Reason = "no candidates self-selected"
	case ev.ElectedCount != 1:
		ev.Reason = fmt.Sprintf("%d elected, want 1", ev.ElectedCount)
	default:
		ev.Success = true
		ev.AgreedRank = maxRank
	}
	return ev
}
