package topo

import (
	"fmt"
	"strings"
	"testing"

	"sublinear/internal/graph"
	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// pingPayload is a preallocated pointer payload (never boxes on send).
type pingPayload struct{ bits int }

var pingKind = metrics.InternKind("ping")

func (p *pingPayload) Bits(int) int       { return p.bits }
func (*pingPayload) Kind() string         { return "ping" }
func (*pingPayload) KindID() metrics.Kind { return pingKind }

// degPingMachine sends on a random port of its actual degree — the
// general-topology always-busy workload.
type degPingMachine struct {
	last    int
	payload pingPayload
	out     [1]netsim.Send
}

func (m *degPingMachine) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	m.payload.bits = 8
	m.out[0] = netsim.Send{Port: 1 + env.Rand.Intn(env.Deg), Payload: &m.payload}
	return m.out[:]
}

func (m *degPingMachine) Done() bool  { return false }
func (m *degPingMachine) Output() any { return m.last }

// crashAdv crashes one node at a fixed round and drops odd-indexed
// messages. Order-insensitive: its decisions depend only on (node,
// round, index), never on call interleaving.
type crashAdv struct{ node, round int }

func (a crashAdv) Faulty(u int) bool { return u == a.node }
func (a crashAdv) CrashNow(u, round int, _ []netsim.Send) bool {
	return u == a.node && round >= a.round
}
func (a crashAdv) DeliverOnCrash(_, _, i int, _ netsim.Send) bool { return i%2 == 0 }

// runOn executes machines on tp through netsim's delivery pipeline with
// tp's port table: the Parallel mode at cfg.Workers (1 is the
// single-lane schedule, 0 means GOMAXPROCS).
func runOn(tp *Topology, cfg netsim.Config, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
	cfg.N, cfg.Ports = tp.N(), tp.Ports()
	return netsim.Execute(netsim.Parallel, cfg, machines, adv)
}

func machinesOf(n int, build func() netsim.Machine) []netsim.Machine {
	ms := make([]netsim.Machine, n)
	for u := range ms {
		ms[u] = build()
	}
	return ms
}

// testTopologies builds one instance of every generator family at a
// size where all of them exist.
func testTopologies(t *testing.T, n int) map[string]*Topology {
	t.Helper()
	out := map[string]*Topology{}
	for _, name := range TopologyNames() {
		tp, err := ResolveTopology(name, n, 7)
		if err != nil {
			t.Fatalf("%s at n=%d: %v", name, n, err)
		}
		out[name] = tp
	}
	return out
}

// TestDigestDeterminismAcrossWorkers pins that on every generator, with
// a mid-run crash, digests and counters are identical at every worker
// count of the pipeline.
func TestDigestDeterminismAcrossWorkers(t *testing.T) {
	const n, rounds = 33, 16
	adv := crashAdv{node: 5, round: 6}
	for name, tp := range testTopologies(t, n) {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) *netsim.Result {
				res, err := runOn(tp, netsim.Config{Alpha: 0.5, Seed: 11, MaxRounds: rounds, Workers: workers},
					machinesOf(n, func() netsim.Machine { return &degPingMachine{} }), adv)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(1)
			if ref.CrashedAt[5] != 6 {
				t.Fatalf("crash not recorded: CrashedAt[5] = %d", ref.CrashedAt[5])
			}
			for _, workers := range []int{2, 3, 8, 0} {
				res := run(workers)
				if res.Digest != ref.Digest {
					t.Errorf("workers=%d: digest %#x, want %#x", workers, res.Digest, ref.Digest)
				}
				if res.Counters.Messages() != ref.Counters.Messages() {
					t.Errorf("workers=%d: messages %d, want %d", workers,
						res.Counters.Messages(), ref.Counters.Messages())
				}
				if fmt.Sprintf("%v", res.Outputs) != fmt.Sprintf("%v", ref.Outputs) {
					t.Errorf("workers=%d: outputs diverge", workers)
				}
			}
		})
	}
}

// floodOnce broadcasts on every port in round 1 and echoes nothing: a
// deterministic one-shot workload for wiring checks.
type floodOnce struct {
	last     int
	received []int // arrival ports, in delivery order
}

type floodPayload struct{ from int }

var floodKind = metrics.InternKind("topo-flood")

func (floodPayload) Bits(int) int         { return 8 }
func (floodPayload) Kind() string         { return "topo-flood" }
func (floodPayload) KindID() metrics.Kind { return floodKind }

func (m *floodOnce) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.last = round
	for _, d := range inbox {
		m.received = append(m.received, d.Port)
	}
	if round != 1 {
		return nil
	}
	out := make([]netsim.Send, 0, env.Deg)
	for p := 1; p <= env.Deg; p++ {
		out = append(out, netsim.Send{Port: p, Payload: floodPayload{from: env.ID}})
	}
	return out
}

func (m *floodOnce) Done() bool  { return m.last >= 2 }
func (m *floodOnce) Output() any { return append([]int(nil), m.received...) }

// TestRingWiring floods one round on the ring and checks every node
// received exactly its two neighbors' messages on the correct arrival
// ports.
func TestRingWiring(t *testing.T) {
	const n = 8
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(tp, netsim.Config{Alpha: 1, Seed: 1, MaxRounds: 3},
		machinesOf(n, func() netsim.Machine { return &floodOnce{} }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Messages(); got != int64(2*n) {
		t.Errorf("messages = %d, want %d", got, 2*n)
	}
	for u := 0; u < n; u++ {
		ports := res.Outputs[u].([]int)
		if len(ports) != 2 {
			t.Fatalf("node %d received %d messages, want 2", u, len(ports))
		}
		// Each received arrival port must be one of u's own ports, and the
		// set of senders behind them must be u's two ring neighbors.
		senders := map[int]bool{}
		for _, p := range ports {
			v, _ := tp.Edge(u, p)
			senders[v] = true
		}
		if !senders[(u+1)%n] || !senders[(u+n-1)%n] {
			t.Errorf("node %d heard from %v, want ring neighbors", u, senders)
		}
	}
}

// TestEnvDegree checks Env.Deg follows the topology on a non-regular
// graph.
func TestEnvDegree(t *testing.T) {
	g, err := graph.Star(6)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	degs := make([]int, 6)
	machines := make([]netsim.Machine, 6)
	for u := range machines {
		u := u
		machines[u] = &probeMachine{probe: func(env *netsim.Env) { degs[u] = env.Deg }}
	}
	if _, err := runOn(tp, netsim.Config{Alpha: 1, Seed: 1, MaxRounds: 1}, machines, nil); err != nil {
		t.Fatal(err)
	}
	if degs[0] != 5 {
		t.Errorf("hub degree = %d, want 5", degs[0])
	}
	for u := 1; u < 6; u++ {
		if degs[u] != 1 {
			t.Errorf("leaf %d degree = %d, want 1", u, degs[u])
		}
	}
}

type probeMachine struct {
	probe func(env *netsim.Env)
	last  int
}

func (m *probeMachine) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	if m.probe != nil {
		m.probe(env)
	}
	return nil
}

func (m *probeMachine) Done() bool  { return m.last >= 1 }
func (m *probeMachine) Output() any { return nil }

// badPortMachine sends on a port past its degree once.
type badPortMachine struct{ last int }

func (m *badPortMachine) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	if round == 1 && env.ID == 0 {
		return []netsim.Send{{Port: env.Deg + 1, Payload: floodPayload{}}}
	}
	return nil
}

func (m *badPortMachine) Done() bool  { return m.last >= 1 }
func (m *badPortMachine) Output() any { return nil }

// TestPortValidation pins the per-edge CONGEST port discipline: a port
// past the node's degree errors in strict mode and records one
// violation otherwise.
func TestPortValidation(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []netsim.Machine {
		return machinesOf(5, func() netsim.Machine { return &badPortMachine{} })
	}
	_, err = runOn(tp, netsim.Config{Alpha: 1, Seed: 1, MaxRounds: 2, Strict: true}, build(), nil)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("strict run error = %v, want out-of-range", err)
	}
	res, err := runOn(tp, netsim.Config{Alpha: 1, Seed: 1, MaxRounds: 2}, build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Errorf("violations = %d, want 1", len(res.Violations))
	}
	if res.Counters.Messages() != 0 {
		t.Errorf("out-of-range send was counted: messages = %d", res.Counters.Messages())
	}
}

// TestCrashFiltering pins crash-round message filtering on a general
// graph: a node crashing in its broadcast round delivers only the
// adversary-kept subset, and the dropped messages still count.
func TestCrashFiltering(t *testing.T) {
	const n = 6
	g, err := graph.ClusterD2(n)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(tp, netsim.Config{Alpha: 0.5, Seed: 1, MaxRounds: 3},
		machinesOf(n, func() netsim.Machine { return &floodOnce{} }), crashAdv{node: 0, round: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedAt[0] != 1 {
		t.Fatalf("CrashedAt[0] = %d, want 1", res.CrashedAt[0])
	}
	// Every send (all nodes flood once) is counted, dropped or not.
	want := int64(0)
	for u := 0; u < n; u++ {
		want += int64(tp.Degree(u))
	}
	if got := res.Counters.Messages(); got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
	// Node 0 kept only even outbox indices; its neighbors at odd indices
	// must not have received its flood.
	for u := 1; u < n; u++ {
		ports := res.Outputs[u].([]int)
		from0 := 0
		for _, p := range ports {
			if v, _ := tp.Edge(u, p); v == 0 {
				from0++
			}
		}
		ap := tp.mustPortOf(0, u)
		wantFrom0 := 0
		if (ap-1)%2 == 0 { // outbox index ap-1 kept
			wantFrom0 = 1
		}
		if from0 != wantFrom0 {
			t.Errorf("node %d received %d messages from crashed node, want %d", u, from0, wantFrom0)
		}
	}
}

// mustPortOf finds node u's port leading to v (test helper).
func (t *Topology) mustPortOf(u, v int) int {
	for p := 1; p <= t.Degree(u); p++ {
		if peer, _ := t.Edge(u, p); peer == v {
			return p
		}
	}
	panic("no edge")
}

// TestValidation covers the config error paths of a run on a compiled
// topology.
func TestValidation(t *testing.T) {
	tp, err := ResolveTopology("ring", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms := machinesOf(4, func() netsim.Machine { return &floodOnce{} })
	other, err := ResolveTopology("ring", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netsim.Execute(netsim.Parallel, netsim.Config{N: 4, Ports: other.Ports(), Alpha: 1, MaxRounds: 1}, ms, nil); err == nil {
		t.Error("port table of another size accepted")
	}
	if _, err := runOn(tp, netsim.Config{Alpha: 1, MaxRounds: 0}, ms, nil); err == nil {
		t.Error("MaxRounds 0 accepted")
	}
	if _, err := runOn(tp, netsim.Config{Alpha: 1, MaxRounds: 1}, ms[:3], nil); err == nil {
		t.Error("machine count mismatch accepted")
	}
	if _, err := runOn(tp, netsim.Config{Alpha: 0, MaxRounds: 1}, ms, nil); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := runOn(tp, netsim.Config{Alpha: 1, MaxRounds: 1, Workers: -1}, ms, nil); err == nil {
		t.Error("negative workers accepted")
	}
}

// TestCompileRejectsBrokenGraphs covers Compile's validation.
func TestCompileRejectsBrokenGraphs(t *testing.T) {
	if _, err := Compile(brokenGraph{}); err == nil {
		t.Error("asymmetric graph compiled")
	}
	if _, err := Compile(misroutedGraph{}); err == nil {
		t.Error("graph with a misrouted reverse port compiled")
	}
}

// misroutedGraph is a triangle whose PortOf always answers port 1: in
// range, but for half the edges it leads to the wrong node, so replies
// on arrival ports would reach a third party.
type misroutedGraph struct{}

func (misroutedGraph) N() int                { return 3 }
func (misroutedGraph) Degree(int) int        { return 2 }
func (misroutedGraph) Neighbor(u, p int) int { return (u + p) % 3 }
func (misroutedGraph) PortOf(int, int) int   { return 1 }
func (misroutedGraph) Name() string          { return "misrouted" }

// brokenGraph claims an edge 0->1 with no reverse port.
type brokenGraph struct{}

func (brokenGraph) N() int                { return 2 }
func (brokenGraph) Degree(u int) int      { return 1 }
func (brokenGraph) Neighbor(u, p int) int { return 1 - u }
func (brokenGraph) PortOf(u, v int) int {
	if u == 0 {
		return 0 // broken: 0 claims no port back to 1's edge
	}
	return 1
}
func (brokenGraph) Name() string { return "broken" }

// accumTracer feeds every trace event into a netsim.DigestAccumulator:
// if the engine's event stream and fold order follow the shared schema,
// the accumulator's sum reproduces Result.Digest exactly.
type accumTracer struct {
	acc    *netsim.DigestAccumulator
	finish uint64
	sum    uint64
}

func (a *accumTracer) TraceRound(r int)    { a.acc.Round(r) }
func (a *accumTracer) TraceCrash(u, r int) { a.acc.Crash(u, r) }
func (a *accumTracer) TraceMessage(u, _, port int, kind metrics.Kind, bits int, dropped bool) {
	a.acc.Message(u, port, metrics.KindHash(kind), bits, dropped)
}
func (a *accumTracer) TraceViolation(int, int, string)  {}
func (a *accumTracer) TraceAnnotation(int, int, string) {}
func (a *accumTracer) TraceFinish(rounds int, messages, bits int64, digest uint64) {
	a.finish = digest
	a.sum = a.acc.Sum(rounds, messages, bits)
}

// TestTracerStreamWitnessesDigest runs a crashing execution on a
// general topology with the accumulating tracer at several worker
// counts: the reconstructed digest must equal the engine's — the same
// witness property internal/trace relies on for the clique engines.
func TestTracerStreamWitnessesDigest(t *testing.T) {
	const n, rounds = 33, 12
	tp, err := ResolveTopology("cluster-d2", n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tr := &accumTracer{acc: netsim.NewDigestAccumulator()}
		res, err := runOn(tp, netsim.Config{Alpha: 0.5, Seed: 5, MaxRounds: rounds, Workers: workers, Tracer: tr},
			machinesOf(n, func() netsim.Machine { return &degPingMachine{} }), crashAdv{node: 2, round: 4})
		if err != nil {
			t.Fatal(err)
		}
		if tr.finish != res.Digest {
			t.Errorf("workers=%d: TraceFinish digest %#x, want %#x", workers, tr.finish, res.Digest)
		}
		if tr.sum != res.Digest {
			t.Errorf("workers=%d: reconstructed digest %#x, want %#x", workers, tr.sum, res.Digest)
		}
	}
}

// TestResolveTopology covers the name table.
func TestResolveTopology(t *testing.T) {
	for _, name := range TopologyNames() {
		tp, err := ResolveTopology(name, 16, 3)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tp.N() != 16 {
			t.Errorf("%s: N = %d, want 16", name, tp.N())
		}
	}
	if _, err := ResolveTopology("nope", 16, 3); err == nil {
		t.Error("unknown topology accepted")
	}
	if tp, err := ResolveTopology("", 8, 0); err != nil || tp.Ports() != nil {
		t.Errorf("empty name should resolve to clique, got %v, %v", tp, err)
	}
}
