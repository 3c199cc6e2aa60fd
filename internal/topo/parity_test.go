package topo_test

import (
	"fmt"
	"reflect"
	"testing"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/graph"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/topo"
)

// The pipeline routes the clique by arithmetic and every other graph
// through a compiled port table. graph.CliquePorts is the complete
// graph with the clique's exact wiring, so compiling it yields a table
// that must route every message exactly as the arithmetic does: these
// tests are the check that the two routing branches agree.

// csrClique runs cfg.N nodes on the compiled CliquePorts table through
// the Parallel pipeline. Registered as a RunMode so mode-parameterised
// protocol runners (core, baseline) reach the table branch unchanged.
const csrClique netsim.RunMode = 100

func init() {
	netsim.RegisterEngine(csrClique, "csr-clique", func(cfg netsim.Config, ms []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
		g, err := graph.CliquePorts(cfg.N)
		if err != nil {
			return nil, err
		}
		tp, err := topo.Compile(g)
		if err != nil {
			return nil, err
		}
		cfg.Ports = tp.Ports()
		return netsim.Execute(netsim.Parallel, cfg, ms, adv)
	})
}

type pingPayload struct{}

var pingKind = metrics.InternKind("parity-ping")

func (pingPayload) Bits(int) int         { return 8 }
func (pingPayload) Kind() string         { return "parity-ping" }
func (pingPayload) KindID() metrics.Kind { return pingKind }

// pingMachine sends on a random port every round and records where its
// deliveries arrived, so outputs expose any misrouted message.
type pingMachine struct{ arrivals []int }

func (m *pingMachine) Step(env *netsim.Env, _ int, inbox []netsim.Delivery) []netsim.Send {
	for _, d := range inbox {
		m.arrivals = append(m.arrivals, d.Port)
	}
	return []netsim.Send{{Port: 1 + env.Rand.Intn(env.Deg), Payload: pingPayload{}}}
}

func (m *pingMachine) Done() bool  { return false }
func (m *pingMachine) Output() any { return m.arrivals }

// crashAdv crashes one node at a fixed round and drops odd-indexed
// messages.
type crashAdv struct{ node, round int }

func (a crashAdv) Faulty(u int) bool                              { return u == a.node }
func (a crashAdv) CrashNow(u, r int, _ []netsim.Send) bool        { return u == a.node && r >= a.round }
func (a crashAdv) DeliverOnCrash(_, _, i int, _ netsim.Send) bool { return i%2 == 0 }

// execution is what the two wirings must agree on.
type execution struct {
	Digest   uint64
	Rounds   int
	Counters metrics.Snapshot
	Crashed  []int
	Outputs  any
}

// checkParity runs one workload on the compiled table and on the
// nil-table clique in ref mode and requires identical executions.
func checkParity(t *testing.T, ref netsim.RunMode, run func(netsim.RunMode) (execution, error)) {
	t.Helper()
	got, err := run(csrClique)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("port table: digest %#x in %d rounds, %d msgs; clique: digest %#x in %d rounds, %d msgs (or outputs/crashes differ)",
			got.Digest, got.Rounds, got.Counters.Messages, want.Digest, want.Rounds, want.Counters.Messages)
	}
}

// TestCSRCliqueParity runs a crashing ping workload at several worker
// counts, then the paper's election and the FloodSet baseline at n = 64
// under a DropHalf crash plan, on both wirings.
func TestCSRCliqueParity(t *testing.T) {
	const n, f = 64, 16
	for _, workers := range []int{1, 2, 4, 0} {
		t.Run(fmt.Sprintf("ping/w%d", workers), func(t *testing.T) {
			checkParity(t, netsim.Parallel, func(mode netsim.RunMode) (execution, error) {
				ms := make([]netsim.Machine, n)
				for u := range ms {
					ms[u] = &pingMachine{}
				}
				res, err := netsim.Execute(mode, netsim.Config{N: n, Alpha: 0.5, Seed: 42, MaxRounds: 20, Workers: workers},
					ms, crashAdv{node: 3, round: 7})
				if err != nil {
					return execution{}, err
				}
				return execution{res.Digest, res.Rounds, res.Counters.Snapshot(), res.CrashedAt, res.Outputs}, nil
			})
		})
	}
	plan := func(seed uint64, horizon int) *fault.Plan {
		return fault.Must(fault.NewRandomPlan(n, f, horizon, fault.DropHalf, rng.New(seed)))
	}
	t.Run("election", func(t *testing.T) {
		checkParity(t, netsim.Sequential, func(mode netsim.RunMode) (execution, error) {
			res, err := core.RunElection(core.RunConfig{N: n, Alpha: 0.75, Seed: 8, Adversary: plan(15, 40), Mode: mode})
			if err != nil {
				return execution{}, err
			}
			return execution{res.Digest, res.Rounds, res.Counters.Snapshot(), res.CrashedAt, res.Outputs}, nil
		})
	})
	t.Run("floodset", func(t *testing.T) {
		inputs := make([]int, n)
		for u := range inputs {
			inputs[u] = u % 2
		}
		checkParity(t, netsim.Sequential, func(mode netsim.RunMode) (execution, error) {
			res, err := baseline.RunFloodSet(baseline.FloodSetConfig{N: n, Seed: 9, F: f, Mode: mode}, inputs, plan(16, f+1))
			if err != nil {
				return execution{}, err
			}
			return execution{res.Digest, res.Rounds, res.Counters.Snapshot(), res.CrashedAt, res.Outputs}, nil
		})
	})
}

// TestRegisteredEngineRefusesPortTable pins that Execute never hands a
// port table to a registered engine: those run only the complete
// network, so accepting one would silently ignore the graph.
func TestRegisteredEngineRefusesPortTable(t *testing.T) {
	tp, err := topo.ResolveTopology("ring", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]netsim.Machine, 8)
	for u := range ms {
		ms[u] = &pingMachine{}
	}
	if _, err := netsim.Execute(csrClique, netsim.Config{N: 8, Ports: tp.Ports(), Alpha: 1, MaxRounds: 1}, ms, nil); err == nil {
		t.Error("registered engine accepted a port table")
	}
}
