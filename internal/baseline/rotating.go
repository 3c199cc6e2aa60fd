package baseline

import (
	"fmt"

	"sublinear/internal/netsim"
)

// RotatingConfig parameterises the deterministic rotating-coordinator
// crash consensus — the classical O(f)-round deterministic comparator of
// Table I's bottom rows ([35], [37], [42] are refinements of this shape):
// in phase i, node i-1 (if alive) broadcasts its current value and
// everyone adopts it; after f+1 phases at least one phase had a
// coordinator that did not crash mid-broadcast, so all live nodes agree.
// KT1 (coordinators are known by index), explicit, tolerates any f, costs
// up to (f+1)(n-1) messages and f+1 rounds.
type RotatingConfig struct {
	N    int
	Seed uint64
	// Mode selects the engine execution strategy (all modes are
	// deterministic per seed and produce identical digests).
	Mode netsim.RunMode
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder (internal/trace); nil costs nothing.
	Tracer netsim.Tracer
	// F is the fault bound; the protocol runs F+1 phases.
	F int
}

// RotatingOutput is a node's (explicit) decision.
type RotatingOutput struct {
	Input int
	Value int
}

type coordMsg struct{ bit int }

func (coordMsg) Kind() string { return "coord" }
func (coordMsg) Bits(int) int { return 2 }

type rotatingMachine struct {
	input     int
	endRound  int
	lastRound int
	value     int
}

var _ netsim.Machine = (*rotatingMachine)(nil)

func (m *rotatingMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		m.value = m.input
	}
	// Adopt the coordinator's value from the previous phase. At most one
	// coordinator per round, so conflicts are impossible.
	for _, msg := range inbox {
		if pl, ok := msg.Payload.(coordMsg); ok {
			m.value = pl.bit
		}
	}
	if round > m.endRound {
		return nil
	}
	// Phase r's coordinator is node r-1.
	if env.ID != round-1 || env.ID >= env.N {
		return nil
	}
	sends := make([]netsim.Send, 0, env.N-1)
	for p := 1; p < env.N; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: coordMsg{bit: m.value}})
	}
	return sends
}

func (m *rotatingMachine) Done() bool  { return m.lastRound > m.endRound }
func (m *rotatingMachine) Output() any { return RotatingOutput{Input: m.input, Value: m.value} }

// RunRotating executes the rotating-coordinator baseline under the given
// adversary and evaluates explicit agreement over live nodes.
func RunRotating(cfg RotatingConfig, inputs []int, adv netsim.Adversary) (*Result, error) {
	ecfg, machines, err := BuildRotating(cfg, runAlpha, inputs)
	if err != nil {
		return nil, err
	}
	res, err := execute(cfg.Mode, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateExplicitAgreement(res, inputs)
}

// BuildRotating returns the engine configuration and the machines of one
// rotating-coordinator run.
func BuildRotating(cfg RotatingConfig, alpha float64, inputs []int) (netsim.Config, []netsim.Machine, error) {
	if len(inputs) != cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("rotating: %d inputs for N=%d", len(inputs), cfg.N)
	}
	if cfg.F >= cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("rotating: F=%d must be < N=%d", cfg.F, cfg.N)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &rotatingMachine{input: inputs[u], endRound: cfg.F + 1}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, cfg.F+2, cfg.Tracer), machines, nil
}
