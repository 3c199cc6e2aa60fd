package baseline

import (
	"fmt"

	"sublinear/internal/netsim"
)

// AllPairsConfig parameterises the trivial flooding leader election: every
// node draws a rank and floods it; the minimum rank wins. With F+1 rounds
// of change-triggered re-flooding the live network agrees on the winner
// under any crash pattern — at a Theta(n^2) message cost. This is the
// quadratic benchmark that makes the sublinear results visible.
type AllPairsConfig struct {
	N    int
	Seed uint64
	// Mode selects the engine execution strategy (all modes are
	// deterministic per seed and produce identical digests).
	Mode netsim.RunMode
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder (internal/trace); nil costs nothing.
	Tracer netsim.Tracer
	// F is the fault bound; the protocol runs F+1 rounds.
	F int
}

// AllPairsOutput is a node's view after the flood.
type AllPairsOutput struct {
	Rank    uint64
	Winner  uint64
	Elected bool
}

type apRank struct{ rank uint64 }

func (apRank) Kind() string   { return "rank" }
func (apRank) Bits(n int) int { return ridBits(n) }

type allPairsMachine struct {
	endRound  int
	lastRound int

	rank    uint64
	min     uint64
	sentMin uint64 // smallest already flooded; 0 = none
}

var _ netsim.Machine = (*allPairsMachine)(nil)

func (m *allPairsMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		m.rank = 1 + uint64(env.Rand.Int64n(int64(ridRange(env.N))))
		m.min = m.rank
	}
	for _, msg := range inbox {
		if pl, ok := msg.Payload.(apRank); ok && pl.rank < m.min {
			m.min = pl.rank
		}
	}
	if round > m.endRound || (m.sentMin != 0 && m.min >= m.sentMin) {
		return nil
	}
	m.sentMin = m.min
	sends := make([]netsim.Send, 0, env.N-1)
	for p := 1; p < env.N; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: apRank{rank: m.min}})
	}
	return sends
}

func (m *allPairsMachine) Done() bool { return m.lastRound > m.endRound }

func (m *allPairsMachine) Output() any {
	return AllPairsOutput{Rank: m.rank, Winner: m.min, Elected: m.min == m.rank}
}

// RunAllPairs executes the flooding election under the given adversary.
// Success means all live nodes agree on the winner rank; Value is that
// rank. (The winner itself may have crashed — the classical weakness of
// ID-flooding election, reported via Reason when it happens.)
func RunAllPairs(cfg AllPairsConfig, adv netsim.Adversary) (*Result, error) {
	ecfg, machines := BuildAllPairs(cfg, runAlpha)
	res, err := execute(cfg.Mode, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateAllPairs(res)
}

// BuildAllPairs returns the engine configuration and the machines of one
// flooding-election run.
func BuildAllPairs(cfg AllPairsConfig, alpha float64) (netsim.Config, []netsim.Machine) {
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &allPairsMachine{endRound: cfg.F + 1}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, cfg.F+2, cfg.Tracer), machines
}

// EvaluateAllPairs judges a flooding-election run: all live nodes agree
// on the winner rank.
func EvaluateAllPairs(res *netsim.Result) (*Result, error) {
	out := newResult(res)
	var winner uint64
	agree := true
	liveElected := 0
	for u, o := range res.Outputs {
		if res.CrashedAt[u] != 0 {
			continue
		}
		ao, ok := o.(AllPairsOutput)
		if !ok {
			return nil, fmt.Errorf("allpairs: unexpected output %T", o)
		}
		if winner == 0 {
			winner = ao.Winner
		} else if winner != ao.Winner {
			agree = false
		}
		if ao.Elected {
			liveElected++
		}
	}
	switch {
	case winner == 0:
		out.Reason = "no live nodes"
	case !agree:
		out.Reason = "live nodes disagree on the winner"
	default:
		out.Success = true
		out.Value = int64(winner)
		if liveElected == 0 {
			out.Reason = "agreed winner crashed"
		}
	}
	return out, nil
}
