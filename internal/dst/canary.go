package dst

import (
	"fmt"

	"sublinear/internal/core"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// The canary is a deliberately broken system: each node broadcasts one
// ping in round 1 and reports how many pings it received, under the
// (wrong) assumption that a broadcast reaches everyone or no one. A
// node that crashes mid-broadcast with a partial delivery policy
// (DropHalf, DropRandom) splits the live nodes' counts, violating the
// canary-consistency oracle. It exists as the harness's self-test —
// proof that schedule fuzzing finds the bug, minimization shrinks it to
// a single mid-broadcast crash, and the repro replays deterministically
// — and is therefore excluded from DefaultSystems: a campaign that
// includes it is expected to fail.
const canaryName = "canary"

// canaryPing is the broadcast payload.
type canaryPing struct{}

var kindPing = metrics.InternKind("ping")

func (canaryPing) Kind() string         { return "ping" }
func (canaryPing) Bits(int) int         { return 1 }
func (canaryPing) KindID() metrics.Kind { return kindPing }

// CanaryOutput is a node's report: the number of pings it counted.
type CanaryOutput struct {
	Pings int
}

type canaryMachine struct {
	lastRound int
	pings     int
}

var _ netsim.Machine = (*canaryMachine)(nil)

func (m *canaryMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	for _, d := range inbox {
		if _, ok := d.Payload.(canaryPing); ok {
			m.pings++
		}
	}
	if round != 1 {
		return nil
	}
	sends := make([]netsim.Send, 0, env.N-1)
	for p := 1; p < env.N; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: canaryPing{}})
	}
	return sends
}

func (m *canaryMachine) Done() bool  { return m.lastRound >= 2 }
func (m *canaryMachine) Output() any { return CanaryOutput{Pings: m.pings} }

// canaryConsistencyOracle encodes the canary's broken assumption: all
// live nodes counted the same number of pings.
func canaryConsistencyOracle() core.Oracle {
	return core.Oracle{
		Name: "canary-consistency",
		Check: func(v *core.RunView) error {
			count, first := 0, -1
			for u, o := range v.Outputs {
				co, ok := o.(CanaryOutput)
				if !ok {
					return fmt.Errorf("node %d output is %T, want CanaryOutput", u, o)
				}
				if v.CrashedAt[u] != 0 {
					continue
				}
				if first < 0 {
					first, count = u, co.Pings
				} else if co.Pings != count {
					return fmt.Errorf("live nodes %d and %d counted %d vs %d pings",
						first, u, count, co.Pings)
				}
			}
			return nil
		},
	}
}

func init() {
	register(&System{
		Name:      canaryName,
		MaxF:      crashBudget,
		Horizon:   2,
		Symmetric: true,
		Oracles:   []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(), canaryConsistencyOracle()},
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			cfg := netsim.Config{
				N: s.N, Alpha: s.Alpha, Seed: s.Seed,
				MaxRounds: 3, CongestFactor: core.DefaultCongestFactor, Strict: true,
			}
			return cfg, identical(s.N, func() netsim.Machine { return &canaryMachine{} }), nil
		},
		optIn: true,
	})
}
