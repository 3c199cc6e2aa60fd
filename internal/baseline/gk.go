package baseline

import (
	"fmt"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// GKConfig parameterises the Gilbert–Kowalski (SODA'10) style explicit
// agreement baseline: a Theta(log n) committee of known nodes runs
// crash-tolerant agreement internally, then every surviving committee
// member broadcasts the decision. This reproduces the shape the paper
// quotes for [24]: O(n log n) messages in the KT0-cost accounting
// (O(n) with known neighbors), O(log n) rounds, resilience f < n/2 —
// failing exactly when the whole committee is wiped out, which is the
// resilience gap the paper's algorithm closes. See DESIGN.md for the
// simplification note.
type GKConfig struct {
	N    int
	Seed uint64
	// Mode selects the engine execution strategy (all modes are
	// deterministic per seed and produce identical digests).
	Mode netsim.RunMode
	// Tracer, when non-nil, streams the run to an execution flight
	// recorder (internal/trace); nil costs nothing.
	Tracer netsim.Tracer
}

// gkCommitteeFactor scales the committee size gkCommitteeFactor * ln n.
const gkCommitteeFactor = 3

// GKOutput is a node's (explicit) decision.
type GKOutput struct {
	Committee bool
	Input     int
	Decided   bool
	Value     int
}

type gkFlood struct{ bit int }

func (gkFlood) Kind() string { return "committee" }
func (gkFlood) Bits(int) int { return 2 }

type gkAnnounce struct{ bit int }

func (gkAnnounce) Kind() string { return "announce" }
func (gkAnnounce) Bits(int) int { return 2 }

// gkMachine runs in three phases: rounds 1..k, FloodSet-style min
// agreement inside the committee (nodes 0..k-1, addressed via KT1 ports);
// round k+1, surviving members broadcast the decision; round k+2,
// everyone decides.
type gkMachine struct {
	committeeSize int
	input         int
	lastRound     int

	committee bool
	min       int
	sentMin   int
	decided   bool
	value     int
}

var _ netsim.Machine = (*gkMachine)(nil)

func (m *gkMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	k := m.committeeSize
	if round == 1 {
		m.committee = env.ID < k
		m.min = m.input
		m.sentMin = 2
	}
	for _, msg := range inbox {
		switch pl := msg.Payload.(type) {
		case gkFlood:
			if m.committee && pl.bit < m.min {
				m.min = pl.bit
			}
		case gkAnnounce:
			if !m.decided || pl.bit < m.value {
				m.decided = true
				m.value = pl.bit
			}
		}
	}
	switch {
	case round <= k && m.committee && m.min < m.sentMin:
		// Committee-internal flood of the improved minimum.
		m.sentMin = m.min
		sends := make([]netsim.Send, 0, k-1)
		for v := 0; v < k; v++ {
			if v != env.ID {
				sends = append(sends, netsim.Send{Port: env.PortTo(v), Payload: gkFlood{bit: m.min}})
			}
		}
		return sends
	case round == k+1 && m.committee:
		// Dissemination: every surviving member broadcasts, so the
		// decision reaches everyone unless all members crashed.
		m.decided = true
		m.value = m.min
		sends := make([]netsim.Send, 0, env.N-1)
		for p := 1; p < env.N; p++ {
			sends = append(sends, netsim.Send{Port: p, Payload: gkAnnounce{bit: m.min}})
		}
		return sends
	}
	return nil
}

func (m *gkMachine) Done() bool { return m.lastRound >= m.committeeSize+2 }

func (m *gkMachine) Output() any {
	return GKOutput{Committee: m.committee, Input: m.input, Decided: m.decided, Value: m.value}
}

// RunGK executes the GK-style baseline under the given adversary and
// evaluates explicit agreement over live nodes.
func RunGK(cfg GKConfig, inputs []int, adv netsim.Adversary) (*Result, error) {
	ecfg, machines, err := BuildGK(cfg, runAlpha, inputs)
	if err != nil {
		return nil, err
	}
	res, err := execute(cfg.Mode, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateExplicitAgreement(res, inputs)
}

// BuildGK returns the engine configuration and the machines of one
// GK-style run.
func BuildGK(cfg GKConfig, alpha float64, inputs []int) (netsim.Config, []netsim.Machine, error) {
	if len(inputs) != cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("gk: %d inputs for N=%d", len(inputs), cfg.N)
	}
	k := int(gkCommitteeFactor * rng.LogN(cfg.N))
	if k < 2 {
		k = 2
	}
	if k > cfg.N {
		k = cfg.N
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &gkMachine{committeeSize: k, input: inputs[u]}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, k+2, cfg.Tracer), machines, nil
}
