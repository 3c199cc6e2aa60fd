package baseline

import (
	"fmt"

	"sublinear/internal/netsim"
)

// FloodSetConfig parameterises the classical FloodSet explicit binary
// agreement (Lynch, ch. 6): run f+1 rounds; every node floods its current
// minimum to everyone whenever it changes; after f+1 rounds all live nodes
// hold the same minimum. This is the textbook crash-tolerant comparator:
// it tolerates any f but costs Theta(n^2) messages and f+1 rounds — the
// regime the paper's Table I deterministic rows [35], [37], [42] occupy.
type FloodSetConfig struct {
	N    int
	Seed uint64
	// Mode selects the engine execution strategy (all modes are
	// deterministic per seed and produce identical digests).
	Mode netsim.RunMode
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder (internal/trace); nil costs nothing.
	Tracer netsim.Tracer
	// F is the fault bound; the protocol runs F+1 rounds. Required >= 0.
	F int
}

// FloodSetOutput is a node's (explicit) decision.
type FloodSetOutput struct {
	Input int
	Value int
}

type floodValue struct{ bit int }

func (floodValue) Kind() string { return "flood" }
func (floodValue) Bits(int) int { return 2 }

type floodSetMachine struct {
	input     int
	min       int
	sentMin   int // smallest value already flooded; 2 = none
	endRound  int
	lastRound int
}

var _ netsim.Machine = (*floodSetMachine)(nil)

func (m *floodSetMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		m.min = m.input
		m.sentMin = 2
	}
	for _, msg := range inbox {
		if pl, ok := msg.Payload.(floodValue); ok && pl.bit < m.min {
			m.min = pl.bit
		}
	}
	if round > m.endRound || m.min >= m.sentMin {
		return nil
	}
	// Flood the improved minimum to everyone. Each node floods at most
	// twice (1 then possibly 0), keeping total messages <= 2n^2.
	m.sentMin = m.min
	sends := make([]netsim.Send, 0, env.N-1)
	for p := 1; p < env.N; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: floodValue{bit: m.min}})
	}
	return sends
}

func (m *floodSetMachine) Done() bool { return m.lastRound > m.endRound }

func (m *floodSetMachine) Output() any {
	return FloodSetOutput{Input: m.input, Value: m.min}
}

// RunFloodSet executes FloodSet under the given adversary and evaluates
// explicit agreement over live nodes.
func RunFloodSet(cfg FloodSetConfig, inputs []int, adv netsim.Adversary) (*Result, error) {
	ecfg, machines, err := BuildFloodSet(cfg, runAlpha, inputs)
	if err != nil {
		return nil, err
	}
	res, err := execute(cfg.Mode, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateExplicitAgreement(res, inputs)
}

// BuildFloodSet returns the engine configuration and the machines of one
// FloodSet run.
func BuildFloodSet(cfg FloodSetConfig, alpha float64, inputs []int) (netsim.Config, []netsim.Machine, error) {
	if len(inputs) != cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("floodset: %d inputs for N=%d", len(inputs), cfg.N)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &floodSetMachine{input: inputs[u], endRound: cfg.F + 1}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, cfg.F+2, cfg.Tracer), machines, nil
}

// EvaluateExplicitAgreement judges an explicit binary agreement run
// (FloodSet, GK, gossip, rotating coordinator): all live nodes decided
// the same value, and it is some node's input.
func EvaluateExplicitAgreement(res *netsim.Result, inputs []int) (*Result, error) {
	out := newResult(res)
	haveInput := [2]bool{}
	for _, in := range inputs {
		haveInput[in] = true
	}
	value := -1
	agree := true
	decided := 0
	for u, o := range res.Outputs {
		if res.CrashedAt[u] != 0 {
			continue
		}
		var v int
		switch t := o.(type) {
		case FloodSetOutput:
			v = t.Value
		case GossipOutput:
			v = t.Value
		case RotatingOutput:
			v = t.Value
		case GKOutput:
			if !t.Decided {
				agree = false
				continue
			}
			v = t.Value
		default:
			return nil, fmt.Errorf("explicit agreement: unexpected output %T", o)
		}
		decided++
		if value == -1 {
			value = v
		} else if value != v {
			agree = false
		}
	}
	switch {
	case decided == 0:
		out.Reason = "no live node decided"
	case !agree:
		out.Reason = "live nodes disagree"
	case !haveInput[value]:
		out.Reason = "decided value is no node's input"
	default:
		out.Success = true
		out.Value = int64(value)
	}
	return out, nil
}
