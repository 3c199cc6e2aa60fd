package baseline

import (
	"fmt"
	"math"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// AMPConfig parameterises the fault-free sublinear implicit agreement of
// Augustine, Molla and Pandurangan (PODC'18), which introduced the
// implicit agreement problem the paper generalises to crash faults.
type AMPConfig struct {
	N    int
	Seed uint64
	// Mode selects the engine execution strategy (all modes are
	// deterministic per seed and produce identical digests).
	Mode netsim.RunMode
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder (internal/trace); nil costs nothing.
	Tracer netsim.Tracer
}

// AMPOutput is a node's output: candidates decide, everyone else stays
// undecided (implicit agreement).
type AMPOutput struct {
	IsCandidate bool
	Input       int
	Decided     bool
	Value       int
}

// ampMachine: round 1 candidates send their input bit to sampled
// referees; round 2 referees reply with the minimum bit they saw; round 3
// candidates decide the minimum of the replies and their own bit. The
// 0-biased min rule preserves validity, and pairwise common referees give
// agreement w.h.p. — O(1) rounds, Õ(sqrt(n)) messages.
type ampMachine struct {
	input     int
	lastRound int

	isCandidate bool
	value       int

	minSeen int
	replyTo []int
}

var _ netsim.Machine = (*ampMachine)(nil)

type ampBit struct{ bit int }

func (ampBit) Kind() string { return "bit" }
func (ampBit) Bits(int) int { return 2 }

type ampReply struct{ bit int }

func (ampReply) Kind() string { return "reply" }
func (ampReply) Bits(int) int { return 2 }

func (m *ampMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	switch round {
	case 1:
		m.minSeen = 1
		m.value = m.input
		prob := candidateFactor * rng.LogN(env.N) / float64(env.N)
		if prob > 1 {
			prob = 1
		}
		if !env.Rand.Bool(prob) {
			return nil
		}
		m.isCandidate = true
		k := int(math.Ceil(refereeFactor * math.Sqrt(float64(env.N)*rng.LogN(env.N))))
		if k > env.N-1 {
			k = env.N - 1
		}
		ports := env.Rand.SampleDistinct(k, env.N-1, nil)
		sends := make([]netsim.Send, k)
		for i, p := range ports {
			sends[i] = netsim.Send{Port: p + 1, Payload: ampBit{bit: m.input}}
		}
		return sends
	case 2:
		for _, msg := range inbox {
			pl, ok := msg.Payload.(ampBit)
			if !ok {
				continue
			}
			if pl.bit < m.minSeen {
				m.minSeen = pl.bit
			}
			m.replyTo = append(m.replyTo, msg.Port)
		}
		if len(m.replyTo) == 0 {
			return nil
		}
		sends := make([]netsim.Send, len(m.replyTo))
		for i, p := range m.replyTo {
			sends[i] = netsim.Send{Port: p, Payload: ampReply{bit: m.minSeen}}
		}
		return sends
	case 3:
		for _, msg := range inbox {
			if pl, ok := msg.Payload.(ampReply); ok && pl.bit < m.value {
				m.value = pl.bit
			}
		}
		return nil
	}
	return nil
}

func (m *ampMachine) Done() bool { return m.lastRound >= 3 }

func (m *ampMachine) Output() any {
	return AMPOutput{
		IsCandidate: m.isCandidate,
		Input:       m.input,
		Decided:     m.isCandidate,
		Value:       m.value,
	}
}

// RunAMP executes the fault-free baseline agreement and evaluates it:
// success means all candidates decide the same valid value.
func RunAMP(cfg AMPConfig, inputs []int) (*Result, error) {
	ecfg, machines, err := BuildAMP(cfg, runAlpha, inputs)
	if err != nil {
		return nil, err
	}
	res, err := execute(cfg.Mode, ecfg, machines, nil)
	if err != nil {
		return nil, err
	}
	return EvaluateAMP(res, inputs)
}

// BuildAMP returns the engine configuration and the machines of one
// fault-free sublinear agreement.
func BuildAMP(cfg AMPConfig, alpha float64, inputs []int) (netsim.Config, []netsim.Machine, error) {
	if len(inputs) != cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("amp: %d inputs for N=%d", len(inputs), cfg.N)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &ampMachine{input: inputs[u]}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, 3, cfg.Tracer), machines, nil
}

// EvaluateAMP judges a sublinear-agreement run: all candidates decide
// the same value, and it is some node's input.
func EvaluateAMP(res *netsim.Result, inputs []int) (*Result, error) {
	out := newResult(res)
	haveInput := [2]bool{}
	for _, in := range inputs {
		haveInput[in] = true
	}
	decided, value := 0, -1
	agree := true
	for _, o := range res.Outputs {
		ao, ok := o.(AMPOutput)
		if !ok {
			return nil, fmt.Errorf("amp: unexpected output %T", o)
		}
		if !ao.Decided {
			continue
		}
		decided++
		if value == -1 {
			value = ao.Value
		} else if value != ao.Value {
			agree = false
		}
	}
	switch {
	case decided == 0:
		out.Reason = "no node decided"
	case !agree:
		out.Reason = "deciders disagree"
	case !haveInput[value]:
		out.Reason = "decided value is no node's input"
	default:
		out.Success = true
		out.Value = int64(value)
	}
	return out, nil
}
