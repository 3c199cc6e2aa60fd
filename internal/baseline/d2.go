package baseline

import (
	"fmt"

	"sublinear/internal/netsim"
	"sublinear/internal/topo"
)

// D2Config parameterises the diameter-two leader election of Chatterjee,
// Pandurangan and Robinson (ICDCN'19 / TCS'20): on any graph of diameter
// at most two, O(n log n) messages suffice for implicit election — below
// the Omega(m) = Theta(n^2) lower bound that holds for general graphs,
// and the regime PAPERS.md row [CPR19] quotes. Each node independently
// becomes a candidate with probability Theta(log n / n); candidates
// announce a random rank to all neighbours; every node folds the best
// rank it heard and reports it back to each announcer; a candidate that
// never hears a better rank wins. Diameter two makes round-trip relaying
// through a common neighbour complete in three rounds.
type D2Config struct {
	N    int
	Seed uint64
	// Topology is the graph to run on; nil selects the cluster-d2
	// generator at N (the canonical diameter-two family). The election
	// is correct on any diameter <= 2 topology.
	Topology *topo.Topology
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder; nil costs nothing.
	Tracer netsim.Tracer
}

// D2Output is a node's view after the three-round exchange.
type D2Output struct {
	// Candidate reports whether the node self-selected.
	Candidate bool
	// Key is the node's tie-broken rank (rank*n + id); unique across
	// nodes. Zero for non-candidates.
	Key int64
	// Best is the largest key the node heard, including its own when a
	// candidate; -1 when it heard none and did not run.
	Best int64
	// Leader reports Candidate && Best == Key: no better key reached
	// the node within the relay window.
	Leader bool
}

// d2Announce carries a candidate's key to its neighbours.
type d2Announce struct{ key int64 }

func (d2Announce) Kind() string   { return "d2-announce" }
func (d2Announce) Bits(n int) int { return d2KeyBits(n) }

// d2Reply reports the best key a node has heard back to an announcer.
type d2Reply struct{ best int64 }

func (d2Reply) Kind() string   { return "d2-reply" }
func (d2Reply) Bits(n int) int { return d2KeyBits(n) }

// d2KeyBits is the encoded key size: keys live in [0, n^3), so
// 3 ceil(log2 n) bits, capped at 62.
func d2KeyBits(n int) int { return min(3*netsim.BitsLen(n), 62) }

// d2CandThreshold is the candidacy cutoff: a node is a candidate when a
// uniform draw from [0, n) lands below min(n, 6 ceil(log2 n) + 6) —
// expected Theta(log n) candidates, and every node at small n (the
// exhaustively model-checked sizes), so the whole protocol surface is
// exercised there.
func d2CandThreshold(n int) int64 { return int64(min(6*netsim.BitsLen(n)+6, n)) }

type d2Machine struct {
	n         int
	lastRound int

	cand bool
	key  int64
	best int64
	// announcePorts are the arrival ports of round-2 announces, in
	// delivery order; each gets one reply.
	announcePorts []int
	out           []netsim.Send
}

var _ netsim.Machine = (*d2Machine)(nil)

func (m *d2Machine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	for _, msg := range inbox {
		switch pl := msg.Payload.(type) {
		case d2Announce:
			if pl.key > m.best {
				m.best = pl.key
			}
			if round == 2 {
				m.announcePorts = append(m.announcePorts, msg.Port)
			}
		case d2Reply:
			if pl.best > m.best {
				m.best = pl.best
			}
		}
	}
	switch round {
	case 1:
		// Both draws always happen so the coin stream — and hence the
		// digest — does not depend on the candidacy outcome.
		cand := env.Rand.Int64n(int64(m.n)) < d2CandThreshold(m.n)
		rank := env.Rand.Int64n(int64(m.n) * int64(m.n))
		m.best = -1
		if !cand {
			return nil
		}
		m.cand = true
		m.key = rank*int64(m.n) + int64(env.ID)
		m.best = m.key
		m.out = m.out[:0]
		for p := 1; p <= env.Deg; p++ {
			m.out = append(m.out, netsim.Send{Port: p, Payload: d2Announce{key: m.key}})
		}
		return m.out
	case 2:
		m.out = m.out[:0]
		for _, p := range m.announcePorts {
			m.out = append(m.out, netsim.Send{Port: p, Payload: d2Reply{best: m.best}})
		}
		return m.out
	default:
		return nil
	}
}

func (m *d2Machine) Done() bool { return m.lastRound >= 3 }

func (m *d2Machine) Output() any {
	return D2Output{
		Candidate: m.cand,
		Key:       m.key,
		Best:      m.best,
		Leader:    m.cand && m.best == m.key,
	}
}

// RunD2Election executes the diameter-two election under the given
// adversary and evaluates implicit election over live nodes: Success
// means exactly one live node holds Leader, and Value is its id.
//
// Fault tolerance is the protocol's honest envelope: the maximum-key
// candidate wins whenever it stays alive (crashes elsewhere only remove
// keys), and uniqueness additionally needs the round-1/round-2 relays
// intact — crashes from round 3 on can never produce two leaders. The
// dst oracles state exactly these conditions.
func RunD2Election(cfg D2Config, adv netsim.Adversary) (*Result, error) {
	ecfg, machines, err := BuildD2Election(cfg, runAlpha)
	if err != nil {
		return nil, err
	}
	res, err := execute(netsim.Parallel, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateImplicitElection(res)
}

// BuildD2Election returns the engine configuration and the machines of
// one diameter-two election.
func BuildD2Election(cfg D2Config, alpha float64) (netsim.Config, []netsim.Machine, error) {
	tp, err := resolve(cfg.Topology, "cluster-d2", cfg.N, cfg.Seed)
	if err != nil {
		return netsim.Config{}, nil, fmt.Errorf("d2election: %w", err)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &d2Machine{n: cfg.N}
	}
	return netsim.Config{
		N:         cfg.N,
		Ports:     tp.Ports(),
		Alpha:     alpha,
		Seed:      cfg.Seed,
		MaxRounds: 4,
		Strict:    true,
		Tracer:    cfg.Tracer,
	}, machines, nil
}

// resolve returns tp, or the native family at (n, seed) when tp is nil,
// after checking its size.
func resolve(tp *topo.Topology, native string, n int, seed uint64) (*topo.Topology, error) {
	if tp == nil {
		var err error
		if tp, err = topo.ResolveTopology(native, n, seed); err != nil {
			return nil, err
		}
	}
	if tp.N() != n {
		return nil, fmt.Errorf("topology has n=%d, config has N=%d", tp.N(), n)
	}
	return tp, nil
}

// EvaluateImplicitElection judges a diameter-two or well-connected
// election: exactly one live node claims leadership.
func EvaluateImplicitElection(res *netsim.Result) (*Result, error) {
	out := newResult(res)
	elected := 0
	who := -1
	for u, o := range res.Outputs {
		if res.CrashedAt[u] != 0 {
			continue
		}
		var claimed bool
		switch t := o.(type) {
		case D2Output:
			claimed = t.Leader
		case WCOutput:
			claimed = t.Leader
		default:
			return nil, fmt.Errorf("implicit election: unexpected output %T", o)
		}
		if claimed {
			elected++
			who = u
		}
	}
	if elected == 1 {
		out.Success = true
		out.Value = int64(who)
	} else {
		out.Reason = fmt.Sprintf("%d leaders, want 1", elected)
	}
	return out, nil
}
