package baseline

import (
	"fmt"

	"sublinear/internal/netsim"
	"sublinear/internal/topo"
)

// WCConfig parameterises leader election on well-connected (bounded-
// degree expander) graphs: the sparse counterpart of the diameter-two
// election. Candidates self-select with probability Theta(log n / n) and
// flood their rank for diameter-many rounds over a constant-degree
// graph, so the message bill is O(n log n) — each node re-broadcasts at
// most once per candidate it hears about, over O(1) incident edges —
// while the round bill is the O(log n) diameter of the expander.
type WCConfig struct {
	N    int
	Seed uint64
	// Topology is the graph to run on; nil selects the wellconnected
	// generator (8-regular random) at N.
	Topology *topo.Topology
	// Rounds is the flooding horizon; 0 computes the topology's exact
	// diameter (O(n*m) preprocessing — pass an explicit bound in hot
	// loops).
	Rounds int
	// Tracer, when non-nil, streams the run to a flight recorder.
	Tracer netsim.Tracer
}

// WCOutput is a node's view after the flood.
type WCOutput struct {
	Candidate bool
	Key       int64
	Best      int64
	Leader    bool
}

// wcRank floods the best candidate key seen so far.
type wcRank struct{ key int64 }

func (wcRank) Kind() string   { return "wc-rank" }
func (wcRank) Bits(n int) int { return d2KeyBits(n) }

type wcMachine struct {
	n         int
	horizon   int // flooding rounds; folding continues through horizon+1
	lastRound int

	cand bool
	key  int64
	best int64
	sent int64 // best already broadcast; -1 = none
	out  []netsim.Send
}

var _ netsim.Machine = (*wcMachine)(nil)

func (m *wcMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		// Both draws always happen so the coin stream matches across
		// candidacy outcomes (same digest discipline as d2Machine).
		cand := env.Rand.Int64n(int64(m.n)) < d2CandThreshold(m.n)
		rank := env.Rand.Int64n(int64(m.n) * int64(m.n))
		m.best = -1
		m.sent = -1
		if cand {
			m.cand = true
			m.key = rank*int64(m.n) + int64(env.ID)
			m.best = m.key
		}
	}
	for _, msg := range inbox {
		if pl, ok := msg.Payload.(wcRank); ok && pl.key > m.best {
			m.best = pl.key
		}
	}
	if round > m.horizon || m.best < 0 || m.best <= m.sent {
		return nil
	}
	m.sent = m.best
	m.out = m.out[:0]
	for p := 1; p <= env.Deg; p++ {
		m.out = append(m.out, netsim.Send{Port: p, Payload: wcRank{key: m.best}})
	}
	return m.out
}

func (m *wcMachine) Done() bool { return m.lastRound > m.horizon }

func (m *wcMachine) Output() any {
	return WCOutput{
		Candidate: m.cand,
		Key:       m.key,
		Best:      m.best,
		Leader:    m.cand && m.best == m.key,
	}
}

// RunWCElection executes the well-connected election under the given
// adversary: Success means exactly one live node holds Leader, and Value
// is its id. In the fault-free run the maximum-key candidate's rank
// reaches every node within diameter-many rounds, so it is the unique
// winner; crashes can suppress relays, and the dst oracles state the
// exact conditional guarantees.
func RunWCElection(cfg WCConfig, adv netsim.Adversary) (*Result, error) {
	ecfg, machines, err := BuildWCElection(cfg, runAlpha)
	if err != nil {
		return nil, err
	}
	res, err := execute(netsim.Parallel, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateImplicitElection(res)
}

// BuildWCElection returns the engine configuration and the machines of
// one well-connected election.
func BuildWCElection(cfg WCConfig, alpha float64) (netsim.Config, []netsim.Machine, error) {
	tp, err := resolve(cfg.Topology, "wellconnected", cfg.N, cfg.Seed)
	if err != nil {
		return netsim.Config{}, nil, fmt.Errorf("wcelection: %w", err)
	}
	horizon := cfg.Rounds
	if horizon == 0 {
		horizon = tp.Diameter()
	}
	if horizon < 1 {
		horizon = 1
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &wcMachine{n: cfg.N, horizon: horizon}
	}
	return netsim.Config{
		N:         cfg.N,
		Ports:     tp.Ports(),
		Alpha:     alpha,
		Seed:      cfg.Seed,
		MaxRounds: horizon + 2,
		Strict:    true,
		Tracer:    cfg.Tracer,
	}, machines, nil
}
