package dst

import (
	"fmt"
	"sort"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// This file registers the crash-tolerant-by-design systems that give the
// model checker (internal/mc) fault-bearing universes at model-checkable
// sizes. The paper's core protocols are only admissible at alpha >=
// log^2 n / n — which is 1 below n = 32, leaving them zero crash budget
// at small n — so exhaustive small-n verification needs protocols whose
// guarantees survive any admissible crash pattern:
//
//   - echo and minflood are anonymous: deterministic, ID-blind,
//     coin-blind, input-free. Their executions are invariant under
//     rotating node labels together with the crash schedule (the
//     symmetry group of netsim's Peer wiring), so they are the systems
//     mc's rotation pruning applies to — the reduction the anonymous-
//     networks literature exploits (see PAPERS.md).
//   - floodset wraps the classical Table-I FloodSet baseline: per-node
//     random inputs break rotation symmetry, but the protocol tolerates
//     any f <= n-2, so it is the real named protocol mc exhausts with
//     full fault universes. Its oracles live with the other Table I
//     comparators (comparators.go).

// --- echo -----------------------------------------------------------------

// echoPing is the round-1 broadcast; echoReply answers each ping on its
// arrival port in round 2.
type echoPing struct{}
type echoReply struct{}

var (
	kindEchoPing  = metrics.InternKind("echo-ping")
	kindEchoReply = metrics.InternKind("echo-reply")
)

func (echoPing) Kind() string          { return "echo-ping" }
func (echoPing) Bits(int) int          { return 1 }
func (echoPing) KindID() metrics.Kind  { return kindEchoPing }
func (echoReply) Kind() string         { return "echo-reply" }
func (echoReply) Bits(int) int         { return 1 }
func (echoReply) KindID() metrics.Kind { return kindEchoReply }

// EchoOutput is a node's report: how many of its pings were echoed.
type EchoOutput struct {
	Echoes int
}

// echoMachine broadcasts a ping in round 1, answers every received ping
// on its arrival port in round 2, and counts the answers in round 3. The
// machine never reads env.ID, env.Rand, or any input, and it emits its
// replies in ascending port order rather than inbox order — inboxes
// arrive in sender-id order, and a crash policy that selects deliveries
// by outbox index (DropHalf) would otherwise pick different ports under
// rotation. Both properties together make the system rotation-symmetric.
type echoMachine struct {
	lastRound int
	echoes    int
}

var _ netsim.Machine = (*echoMachine)(nil)

func (m *echoMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	var ports []int
	for _, d := range inbox {
		switch d.Payload.(type) {
		case echoPing:
			ports = append(ports, d.Port)
		case echoReply:
			m.echoes++
		}
	}
	if round == 1 {
		sends := make([]netsim.Send, 0, env.N-1)
		for p := 1; p < env.N; p++ {
			sends = append(sends, netsim.Send{Port: p, Payload: echoPing{}})
		}
		return sends
	}
	sort.Ints(ports)
	sends := make([]netsim.Send, 0, len(ports))
	for _, p := range ports {
		sends = append(sends, netsim.Send{Port: p, Payload: echoReply{}})
	}
	return sends
}

func (m *echoMachine) Done() bool  { return m.lastRound >= 3 }
func (m *echoMachine) Output() any { return EchoOutput{Echoes: m.echoes} }

// echoCompletenessOracle is echo's two-sided safety invariant, sound
// under every crash schedule: a never-crashed node's ping reached every
// node, and every node live through round 2 (crash round >= 3 or none)
// answered it with a fully delivered echo. So with L = #{v : CrashedAt[v]
// = 0 or >= 3}, every never-crashed node counts at least L-1 and at most
// n-1 echoes.
func echoCompletenessOracle() core.Oracle {
	return core.Oracle{
		Name: "echo-completeness",
		Check: func(v *core.RunView) error {
			live := 0
			for _, at := range v.CrashedAt {
				if at == 0 || at >= 3 {
					live++
				}
			}
			n := len(v.Outputs)
			for u, o := range v.Outputs {
				eo, ok := o.(EchoOutput)
				if !ok {
					return fmt.Errorf("node %d output is %T, want EchoOutput", u, o)
				}
				if v.CrashedAt[u] != 0 {
					continue
				}
				if eo.Echoes < live-1 || eo.Echoes > n-1 {
					return fmt.Errorf("node %d counted %d echoes, want [%d, %d]",
						u, eo.Echoes, live-1, n-1)
				}
			}
			return nil
		},
	}
}

// --- minflood -------------------------------------------------------------

// minFloodHello is the round-1 census broadcast; minFloodValue floods the
// running minimum of the census counts.
type minFloodHello struct{}
type minFloodValue struct{ v int }

var (
	kindMinFloodHello = metrics.InternKind("mf-hello")
	kindMinFloodValue = metrics.InternKind("mf-value")
)

func (minFloodHello) Kind() string         { return "mf-hello" }
func (minFloodHello) Bits(int) int         { return 1 }
func (minFloodHello) KindID() metrics.Kind { return kindMinFloodHello }
func (minFloodValue) Kind() string         { return "mf-value" }
func (minFloodValue) Bits(n int) int       { return netsim.BitsLen(n) }
func (minFloodValue) KindID() metrics.Kind { return kindMinFloodValue }

// minFloodHorizon is the latest crash round the protocol is dimensioned
// for: flooding runs through round minFloodHorizon+1, which is then
// guaranteed crash-free and equalizes the minima (the FloodSet argument
// specialised to a known crash window instead of a known crash count).
const minFloodHorizon = 4

// MinFloodOutput is a node's decision: the agreed minimum hello count.
type MinFloodOutput struct {
	Value int
}

// minFloodMachine broadcasts hello in round 1, seeds its value with the
// number of hellos it received (an execution-derived, input-free value),
// then floods the running minimum every round through round H+1 and
// decides after round H+2. All crashes land in rounds <= H, so round H+1
// is crash-free: every node live in H+1 broadcasts its minimum with full
// delivery, and every node live in H+2 decides the same min over the
// live-in-H+1 set. ID-blind, coin-blind, input-free: rotation-symmetric.
type minFloodMachine struct {
	lastRound int
	val       int
}

var _ netsim.Machine = (*minFloodMachine)(nil)

func (m *minFloodMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		return broadcast(env.N, minFloodHello{})
	}
	if round == 2 {
		m.val = 0
		for _, d := range inbox {
			if _, ok := d.Payload.(minFloodHello); ok {
				m.val++
			}
		}
	} else {
		for _, d := range inbox {
			if pl, ok := d.Payload.(minFloodValue); ok && pl.v < m.val {
				m.val = pl.v
			}
		}
	}
	if round <= minFloodHorizon+1 {
		return broadcast(env.N, minFloodValue{v: m.val})
	}
	return nil
}

func broadcast(n int, pl netsim.Payload) []netsim.Send {
	sends := make([]netsim.Send, 0, n-1)
	for p := 1; p < n; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: pl})
	}
	return sends
}

func (m *minFloodMachine) Done() bool  { return m.lastRound >= minFloodHorizon+2 }
func (m *minFloodMachine) Output() any { return MinFloodOutput{Value: m.val} }

// minFloodAgreementOracle checks agreement and range among never-crashed
// nodes. The equalization argument needs every crash to land within the
// protocol's horizon; a hand-written schedule can crash later, so the
// agreement clause is conditional on max(CrashedAt) <= horizon — which
// every generated or enumerated schedule satisfies — while the range
// clause is unconditional.
func minFloodAgreementOracle() core.Oracle {
	return core.Oracle{
		Name: "minflood-agreement",
		Check: func(v *core.RunView) error {
			inWindow := true
			for _, at := range v.CrashedAt {
				if at > minFloodHorizon {
					inWindow = false
				}
			}
			val, first := 0, -1
			for u, o := range v.Outputs {
				mo, ok := o.(MinFloodOutput)
				if !ok {
					return fmt.Errorf("node %d output is %T, want MinFloodOutput", u, o)
				}
				if v.CrashedAt[u] != 0 {
					continue
				}
				if mo.Value < 0 || mo.Value > len(v.Outputs)-1 {
					return fmt.Errorf("node %d decided %d, outside [0, %d]",
						u, mo.Value, len(v.Outputs)-1)
				}
				if !inWindow {
					continue
				}
				if first < 0 {
					first, val = u, mo.Value
				} else if mo.Value != val {
					return fmt.Errorf("live nodes %d and %d decided %d vs %d",
						first, u, val, mo.Value)
				}
			}
			return nil
		},
	}
}

// anonConfig is the engine configuration of the small-n systems: the
// congest factor baseline's clique protocols use.
func anonConfig(s Setup, maxRounds int) netsim.Config {
	return netsim.Config{
		N: s.N, Alpha: s.Alpha, Seed: s.Seed,
		MaxRounds: maxRounds, CongestFactor: 8, Strict: true,
	}
}

// identical returns n machines from one constructor.
func identical(n int, build func() netsim.Machine) []netsim.Machine {
	machines := make([]netsim.Machine, n)
	for u := range machines {
		machines[u] = build()
	}
	return machines
}

func init() {
	register(&System{
		Name:      "echo",
		MaxF:      crashBudget,
		Horizon:   3,
		Symmetric: true,
		Oracles: []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(),
			echoCompletenessOracle()},
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return anonConfig(s, 4), identical(s.N, func() netsim.Machine { return &echoMachine{} }), nil
		},
	})

	register(&System{
		Name:      "minflood",
		MaxF:      crashBudget,
		Horizon:   minFloodHorizon,
		Symmetric: true,
		Oracles: []core.Oracle{core.CrashMonotonicityOracle(), core.CongestOracle(),
			minFloodAgreementOracle()},
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return anonConfig(s, minFloodHorizon+3), identical(s.N, func() netsim.Machine { return &minFloodMachine{} }), nil
		},
	})

	register(&System{
		Name:    "floodset",
		MaxF:    crashBudget,
		Horizon: 4,
		Input:   BitInputs,
		Oracles: comparatorOracles(floodSetAgreementOracle()),
		Build: func(s Setup) (netsim.Config, []netsim.Machine, error) {
			return baseline.BuildFloodSet(baseline.FloodSetConfig{N: s.N, Seed: s.Seed, F: s.F}, s.Alpha, s.Bits)
		},
		Evaluate: explicitAgreement,
	})
}
