package baseline

import (
	"fmt"
	"math"

	"sublinear/internal/netsim"
)

// GossipConfig parameterises the push-gossip explicit agreement baseline,
// the shape of Chlebus–Kowalski's locally scalable randomized consensus
// (Table I row [36]: O(n log n) messages and O(log n) rounds in
// expectation, linear fraction of crash faults): every node that holds
// the current minimum pushes it to a few random peers each round;
// epidemic spreading delivers the global minimum to all live nodes in
// O(log n) rounds w.h.p.
type GossipConfig struct {
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
	// gossipFanout is the number of random peers pushed to per round.
	gossipFanout = 3
	// gossipRoundFactor scales the round budget
	// gossipRoundFactor*ceil(log2 n).
	gossipRoundFactor = 4
)

// GossipOutput is a node's (explicit) decision.
type GossipOutput struct {
	Input int
	Value int
}

type gossipMsg struct{ bit int }

func (gossipMsg) Kind() string { return "gossip" }
func (gossipMsg) Bits(int) int { return 2 }

// gossipMachine pushes its current minimum to gossipFanout random ports
// every round until the round budget is spent. Persistent pushing is
// what makes the epidemic reach everyone in O(log n) rounds w.h.p. even
// when crashed nodes swallow part of the traffic; the total cost stays
// n * gossipFanout * O(log n) = Theta(n log n) messages.
type gossipMachine struct {
	endRound  int
	input     int
	lastRound int

	min int
}

var _ netsim.Machine = (*gossipMachine)(nil)

func (m *gossipMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		m.min = m.input
	}
	for _, msg := range inbox {
		if pl, ok := msg.Payload.(gossipMsg); ok && pl.bit < m.min {
			m.min = pl.bit
		}
	}
	if round > m.endRound {
		return nil
	}
	sends := make([]netsim.Send, 0, gossipFanout)
	used := make(map[int]bool, gossipFanout)
	for i := 0; i < gossipFanout; i++ {
		p := 1 + env.Rand.Intn(env.N-1)
		if used[p] {
			continue
		}
		used[p] = true
		sends = append(sends, netsim.Send{Port: p, Payload: gossipMsg{bit: m.min}})
	}
	return sends
}

func (m *gossipMachine) Done() bool { return m.lastRound > m.endRound }

func (m *gossipMachine) Output() any { return GossipOutput{Input: m.input, Value: m.min} }

// RunGossip executes the push-gossip baseline under the given adversary
// and evaluates explicit agreement over live nodes.
func RunGossip(cfg GossipConfig, inputs []int, adv netsim.Adversary) (*Result, error) {
	ecfg, machines, err := BuildGossip(cfg, runAlpha, inputs)
	if err != nil {
		return nil, err
	}
	res, err := execute(cfg.Mode, ecfg, machines, adv)
	if err != nil {
		return nil, err
	}
	return EvaluateExplicitAgreement(res, inputs)
}

// BuildGossip returns the engine configuration and the machines of one
// gossip run.
func BuildGossip(cfg GossipConfig, alpha float64, inputs []int) (netsim.Config, []netsim.Machine, error) {
	if len(inputs) != cfg.N {
		return netsim.Config{}, nil, fmt.Errorf("gossip: %d inputs for N=%d", len(inputs), cfg.N)
	}
	rounds := int(math.Ceil(gossipRoundFactor * math.Log2(float64(cfg.N))))
	if rounds < 4 {
		rounds = 4
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		machines[u] = &gossipMachine{endRound: rounds, input: inputs[u]}
	}
	return cliqueConfig(cfg.N, alpha, cfg.Seed, rounds+1, cfg.Tracer), machines, nil
}
