package baseline

import (
	"fmt"
	"math"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// KuttenConfig parameterises the fault-free sublinear leader election of
// Kutten et al. (TCS'15), the algorithm the paper's election result
// generalises to the crash-fault setting.
type KuttenConfig struct {
	N    int
	Seed uint64
	// Mode selects the engine execution strategy (all modes are
	// deterministic per seed and produce identical digests).
	Mode netsim.RunMode
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder (internal/trace); nil costs nothing.
	Tracer netsim.Tracer
}

const (
	// candidateFactor scales the candidate probability of Kutten et al.
	// and AMP: candidateFactor * ln n / n.
	candidateFactor = 6
	// refereeFactor scales their referee sample
	// refereeFactor * sqrt(n ln n).
	refereeFactor = 2
)

// KuttenOutput is a node's output.
type KuttenOutput struct {
	IsCandidate bool
	Rank        uint64
	Elected     bool
	// WinnerRank is the smallest rank the node observed via its
	// referees; the true winner's rank at the winner itself.
	WinnerRank uint64
}

// kuttenPhases: round 1 candidates announce ranks to sampled referees;
// round 2 each referee replies with the minimum rank it saw; round 3
// candidates conclude: elected iff no referee reported a smaller rank.
// O(1) rounds, O(sqrt(n) log^{3/2} n) messages — the fault-free bounds of
// [21] that Table I cites.
type kuttenMachine struct {
	lastRound int

	isCandidate bool
	rank        uint64
	refPorts    []int
	winner      uint64 // min rank heard back

	// Referee role.
	minSeen   uint64
	replyTo   []int
	replyRank uint64
}

var _ netsim.Machine = (*kuttenMachine)(nil)

type kuttenAnnounce struct{ rank uint64 }

func (kuttenAnnounce) Kind() string   { return "announce" }
func (kuttenAnnounce) Bits(n int) int { return ridBits(n) }

type kuttenReply struct{ min uint64 }

func (kuttenReply) Kind() string   { return "reply" }
func (kuttenReply) Bits(n int) int { return ridBits(n) }

func (m *kuttenMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	switch round {
	case 1:
		prob := candidateFactor * rng.LogN(env.N) / float64(env.N)
		if prob > 1 {
			prob = 1
		}
		if !env.Rand.Bool(prob) {
			return nil
		}
		m.isCandidate = true
		m.rank = 1 + uint64(env.Rand.Int64n(int64(ridRange(env.N))))
		m.winner = m.rank
		k := int(math.Ceil(refereeFactor * math.Sqrt(float64(env.N)*rng.LogN(env.N))))
		if k > env.N-1 {
			k = env.N - 1
		}
		ports := env.Rand.SampleDistinct(k, env.N-1, nil)
		m.refPorts = make([]int, k)
		sends := make([]netsim.Send, k)
		for i, p := range ports {
			m.refPorts[i] = p + 1
			sends[i] = netsim.Send{Port: p + 1, Payload: kuttenAnnounce{rank: m.rank}}
		}
		return sends
	case 2:
		for _, msg := range inbox {
			pl, ok := msg.Payload.(kuttenAnnounce)
			if !ok {
				continue
			}
			if m.minSeen == 0 || pl.rank < m.minSeen {
				m.minSeen = pl.rank
			}
			m.replyTo = append(m.replyTo, msg.Port)
		}
		if len(m.replyTo) == 0 {
			return nil
		}
		sends := make([]netsim.Send, len(m.replyTo))
		for i, p := range m.replyTo {
			sends[i] = netsim.Send{Port: p, Payload: kuttenReply{min: m.minSeen}}
		}
		return sends
	case 3:
		for _, msg := range inbox {
			if pl, ok := msg.Payload.(kuttenReply); ok && pl.min < m.winner {
				m.winner = pl.min
			}
		}
		return nil
	}
	return nil
}

func (m *kuttenMachine) Done() bool { return m.lastRound >= 3 }

func (m *kuttenMachine) Output() any {
	return KuttenOutput{
		IsCandidate: m.isCandidate,
		Rank:        m.rank,
		Elected:     m.isCandidate && m.winner == m.rank,
		WinnerRank:  m.winner,
	}
}

// RunKutten executes the fault-free baseline election and evaluates it:
// success means exactly one candidate is elected.
func RunKutten(cfg KuttenConfig) (*Result, error) {
	ecfg, machines := BuildKutten(cfg, runAlpha)
	res, err := execute(cfg.Mode, ecfg, machines, nil)
	if err != nil {
		return nil, err
	}
	return EvaluateKutten(res)
}

// BuildKutten returns the engine configuration and the machines of one
// fault-free sublinear election.
func BuildKutten(cfg KuttenConfig, alpha float64) (netsim.Config, []netsim.Machine) {
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &kuttenMachine{}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, 3, cfg.Tracer), machines
}

// EvaluateKutten judges a sublinear-election run: exactly one candidate
// is elected.
func EvaluateKutten(res *netsim.Result) (*Result, error) {
	out := newResult(res)
	elected, candidates := 0, 0
	var leader uint64
	for _, o := range res.Outputs {
		ko, ok := o.(KuttenOutput)
		if !ok {
			return nil, fmt.Errorf("kutten: unexpected output %T", o)
		}
		if ko.IsCandidate {
			candidates++
		}
		if ko.Elected {
			elected++
			leader = ko.Rank
		}
	}
	switch {
	case candidates == 0:
		out.Reason = "no candidates"
	case elected != 1:
		out.Reason = fmt.Sprintf("%d elected, want 1", elected)
	default:
		out.Success = true
		out.Value = int64(leader)
	}
	return out, nil
}

// ridRange is the rank space [1, n^4] clamped to 2^62.
func ridRange(n int) uint64 {
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

// ridBits is the encoded rank size: 4 ceil(log2 n) bits, capped at 62,
// plus two flag bits.
func ridBits(n int) int { return min(4*netsim.BitsLen(n), 62) + 2 }
