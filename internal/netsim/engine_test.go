package netsim

import (
	"reflect"
	"strings"
	"testing"
)

// scriptMachine sends a fixed script: map round -> sends. It records every
// delivery it sees.
type scriptMachine struct {
	script     map[int][]Send
	deliveries map[int][]Delivery
	last       int
	end        int
}

func newScript(end int, script map[int][]Send) *scriptMachine {
	return &scriptMachine{script: script, deliveries: make(map[int][]Delivery), end: end}
}

func (m *scriptMachine) Step(_ *Env, round int, inbox []Delivery) []Send {
	m.last = round
	if len(inbox) > 0 {
		m.deliveries[round] = append([]Delivery(nil), inbox...)
	}
	return m.script[round]
}

func (m *scriptMachine) Done() bool  { return m.last >= m.end }
func (m *scriptMachine) Output() any { return len(m.deliveries) }

func run(t *testing.T, cfg Config, machines []Machine, adv Adversary) *Result {
	t.Helper()
	eng, err := NewEngine(cfg, machines, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeliveryNextRound(t *testing.T) {
	// Node 0 sends to port 1 (-> node 1) in round 1; node 1 must see it
	// in round 2 on the correct arrival port.
	const n = 4
	m0 := newScript(3, map[int][]Send{1: {{Port: 1, Payload: testPayload{id: 7}}}})
	m1 := newScript(3, nil)
	machines := []Machine{m0, m1, newScript(3, nil), newScript(3, nil)}
	run(t, Config{N: n, Alpha: 1, MaxRounds: 3}, machines, nil)

	if len(m1.deliveries[1]) != 0 {
		t.Fatal("delivery arrived in the send round")
	}
	got := m1.deliveries[2]
	if len(got) != 1 {
		t.Fatalf("node 1 round 2 inbox: %+v", got)
	}
	if got[0].Payload.(testPayload).id != 7 {
		t.Fatalf("wrong payload: %+v", got[0])
	}
	if wantPort := ArrivalPort(n, 0, 1); got[0].Port != wantPort {
		t.Fatalf("arrival port %d, want %d", got[0].Port, wantPort)
	}
}

// echoMachine: node 0 pings a port in round 1; the receiver replies on the
// arrival port; node 0 verifies the reply came back on the pinged port.
type echoMachine struct {
	initiator bool
	pingPort  int
	last      int
	gotReply  bool
	replyPort int
}

func (m *echoMachine) Step(_ *Env, round int, inbox []Delivery) []Send {
	m.last = round
	if m.initiator && round == 1 {
		return []Send{{Port: m.pingPort, Payload: testPayload{id: 1}}}
	}
	var out []Send
	for _, d := range inbox {
		if d.Payload.(testPayload).id == 1 {
			out = append(out, Send{Port: d.Port, Payload: testPayload{id: 2}})
		}
		if d.Payload.(testPayload).id == 2 {
			m.gotReply = true
			m.replyPort = d.Port
		}
	}
	return out
}

func (m *echoMachine) Done() bool  { return m.last >= 3 }
func (m *echoMachine) Output() any { return m.gotReply }

func TestReplyOnArrivalPort(t *testing.T) {
	const n = 7
	for ping := 1; ping < n; ping++ {
		machines := make([]Machine, n)
		init := &echoMachine{initiator: true, pingPort: ping}
		machines[0] = init
		for u := 1; u < n; u++ {
			machines[u] = &echoMachine{}
		}
		run(t, Config{N: n, Alpha: 1, MaxRounds: 4}, machines, nil)
		if !init.gotReply {
			t.Fatalf("ping on port %d: no reply", ping)
		}
		if init.replyPort != ping {
			t.Fatalf("reply on port %d, want %d", init.replyPort, ping)
		}
	}
}

// crashAdv crashes one node at a fixed round and drops odd-indexed
// messages.
type crashAdv struct {
	node, round int
}

func (a crashAdv) Faulty(u int) bool { return u == a.node }
func (a crashAdv) CrashNow(u, round int, _ []Send) bool {
	return u == a.node && round >= a.round
}
func (a crashAdv) DeliverOnCrash(_, _, i int, _ Send) bool { return i%2 == 0 }

func TestCrashSemantics(t *testing.T) {
	const n = 5
	// Node 0 broadcasts to 4 peers in rounds 1 and 2; it crashes in round
	// 2, so round-1 messages all arrive and round-2 messages arrive only
	// at even outbox indices; it must not step in round 3.
	bcast := func() []Send {
		var out []Send
		for p := 1; p < n; p++ {
			out = append(out, Send{Port: p, Payload: testPayload{id: 1}})
		}
		return out
	}
	m0 := newScript(4, map[int][]Send{1: bcast(), 2: bcast(), 3: bcast()})
	machines := []Machine{m0}
	receivers := make([]*scriptMachine, 0, n-1)
	for u := 1; u < n; u++ {
		m := newScript(4, nil)
		machines = append(machines, m)
		receivers = append(receivers, m)
	}
	res := run(t, Config{N: n, Alpha: 0.5, MaxRounds: 4}, machines, crashAdv{node: 0, round: 2})

	if res.CrashedAt[0] != 2 {
		t.Fatalf("CrashedAt[0] = %d, want 2", res.CrashedAt[0])
	}
	if !res.Faulty[0] || res.Faulty[1] {
		t.Fatalf("Faulty flags wrong: %v", res.Faulty)
	}
	if m0.last != 2 {
		t.Fatalf("crashed node stepped through round %d", m0.last)
	}
	// Round-1 messages (delivered in round 2): all 4 receivers.
	// Round-2 messages (delivered in round 3): even indices 0 and 2 of
	// the outbox, i.e. ports 1 and 3 -> nodes 1 and 3.
	gotRound3 := 0
	for i, m := range receivers {
		if len(m.deliveries[2]) != 1 {
			t.Errorf("node %d round 2: %d deliveries, want 1", i+1, len(m.deliveries[2]))
		}
		gotRound3 += len(m.deliveries[3])
	}
	if gotRound3 != 2 {
		t.Fatalf("round-3 deliveries = %d, want 2 (half dropped)", gotRound3)
	}
	if len(receivers[0].deliveries[3]) != 1 || len(receivers[2].deliveries[3]) != 1 {
		t.Error("wrong half delivered")
	}
	// Message complexity counts sent messages, including dropped ones:
	// 4 (round 1) + 4 (round 2, crash round) = 8.
	if res.Counters.Messages() != 8 {
		t.Fatalf("messages = %d, want 8", res.Counters.Messages())
	}
}

func TestStrictViolations(t *testing.T) {
	mk := func(script map[int][]Send) []Machine {
		return []Machine{newScript(1, script), newScript(1, nil), newScript(1, nil)}
	}
	tests := []struct {
		name   string
		sends  []Send
		substr string
	}{
		{"oversized", []Send{{Port: 1, Payload: testPayload{size: 10000}}}, "bits"},
		{"duplicate port", []Send{{Port: 1, Payload: testPayload{}}, {Port: 1, Payload: testPayload{}}}, "two messages"},
		{"bad port", []Send{{Port: 0, Payload: testPayload{}}}, "out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			eng, err := NewEngine(Config{N: 3, Alpha: 1, MaxRounds: 2, Strict: true},
				mk(map[int][]Send{1: tt.sends}), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Run()
			if err == nil || !strings.Contains(err.Error(), tt.substr) {
				t.Fatalf("err = %v, want substring %q", err, tt.substr)
			}
		})
	}
}

func TestNonStrictRecordsViolations(t *testing.T) {
	machines := []Machine{
		newScript(1, map[int][]Send{1: {{Port: 1, Payload: testPayload{size: 10000}}}}),
		newScript(1, nil), newScript(1, nil),
	}
	res := run(t, Config{N: 3, Alpha: 1, MaxRounds: 2}, machines, nil)
	if len(res.Violations) != 1 {
		t.Fatalf("violations: %+v", res.Violations)
	}
	// The oversized message is still delivered in non-strict mode.
	if res.Counters.Messages() != 1 {
		t.Fatal("message not counted")
	}
}

func TestEarlyStopWhenQuiet(t *testing.T) {
	machines := []Machine{newScript(1, nil), newScript(1, nil)}
	res := run(t, Config{N: 2, Alpha: 1, MaxRounds: 100}, machines, nil)
	if res.Rounds != 1 {
		t.Fatalf("ran %d rounds, want 1", res.Rounds)
	}
}

func TestMaxRoundsCap(t *testing.T) {
	// Machines that never report done run to MaxRounds.
	machines := []Machine{newScript(1000, nil), newScript(1000, nil)}
	res := run(t, Config{N: 2, Alpha: 1, MaxRounds: 7}, machines, nil)
	if res.Rounds != 7 {
		t.Fatalf("ran %d rounds, want 7", res.Rounds)
	}
}

func TestDoneMachineStaysReactive(t *testing.T) {
	// A machine that is Done must still receive and react to messages —
	// referees are contacted long after they go quiet.
	reactive := &echoMachine{} // done after round 3 but replies any time
	pinger := newScript(6, map[int][]Send{5: {{Port: 1, Payload: testPayload{id: 1}}}})
	machines := []Machine{pinger, reactive, newScript(6, nil)}
	run(t, Config{N: 3, Alpha: 1, MaxRounds: 8}, machines, nil)
	// The reactive machine replied in round 6; pinger sees it in round 7.
	if len(pinger.deliveries[7]) != 1 {
		t.Fatalf("no reply from a done machine: %v", pinger.deliveries)
	}
}

func TestTraceRecords(t *testing.T) {
	m0 := newScript(3, map[int][]Send{
		1: {{Port: 1, Payload: testPayload{}}},
		2: {{Port: 1, Payload: testPayload{}}, {Port: 2, Payload: testPayload{}}},
	})
	machines := []Machine{m0, newScript(3, nil), newScript(3, nil)}
	res := run(t, Config{N: 3, Alpha: 1, MaxRounds: 3, Record: true}, machines, nil)
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace")
	}
	if tr.EdgeCount() != 2 {
		t.Fatalf("edges = %d, want 2 (0->1, 0->2)", tr.EdgeCount())
	}
	if tr.FirstSend(0) != 1 || tr.FirstSend(1) != 0 {
		t.Errorf("first sends: %d %d", tr.FirstSend(0), tr.FirstSend(1))
	}
	if tr.FirstReceive(1) != 2 {
		t.Errorf("node 1 first receive = %d, want 2", tr.FirstReceive(1))
	}
	var edges [][3]int
	tr.Edges(func(u, v, r int) bool {
		edges = append(edges, [3]int{u, v, r})
		return true
	})
	want := [][3]int{{0, 1, 1}, {0, 2, 2}}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("edges = %v, want %v", edges, want)
	}
}

// randomMachine exercises concurrent-vs-sequential equivalence: each node
// sends to random ports with random payload ids every round.
type randomMachine struct {
	last int
	seen []int
}

func (m *randomMachine) Step(env *Env, round int, inbox []Delivery) []Send {
	m.last = round
	for _, d := range inbox {
		m.seen = append(m.seen, d.Payload.(testPayload).id*1000+d.Port)
	}
	if round >= 6 {
		return nil
	}
	k := env.Rand.Intn(4)
	out := make([]Send, 0, k)
	used := map[int]bool{}
	for i := 0; i < k; i++ {
		p := 1 + env.Rand.Intn(env.N-1)
		if used[p] {
			continue
		}
		used[p] = true
		out = append(out, Send{Port: p, Payload: testPayload{id: env.Rand.Intn(50)}})
	}
	return out
}

func (m *randomMachine) Done() bool  { return m.last >= 6 }
func (m *randomMachine) Output() any { return append([]int(nil), m.seen...) }

func TestRunModesEquivalent(t *testing.T) {
	modes := []RunMode{Sequential, Parallel}
	for seed := uint64(0); seed < 5; seed++ {
		results := make([]*Result, len(modes))
		for i, mode := range modes {
			machines := make([]Machine, 16)
			for u := range machines {
				machines[u] = &randomMachine{}
			}
			eng, err := NewEngine(Config{N: 16, Alpha: 1, Seed: seed, MaxRounds: 8, Strict: true}, machines, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng.Mode = mode
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		for i := 1; i < len(modes); i++ {
			if !reflect.DeepEqual(results[0].Outputs, results[i].Outputs) {
				t.Fatalf("seed %d: mode %d outputs diverge from sequential", seed, modes[i])
			}
			if results[0].Counters.Messages() != results[i].Counters.Messages() {
				t.Fatalf("seed %d: mode %d message counts diverge", seed, modes[i])
			}
			if results[0].Digest != results[i].Digest {
				t.Fatalf("seed %d: mode %d digest %#x diverges from sequential %#x",
					seed, modes[i], results[i].Digest, results[0].Digest)
			}
		}
	}
}

func TestDigestDistinguishesSeeds(t *testing.T) {
	run := func(seed uint64) uint64 {
		machines := make([]Machine, 16)
		for u := range machines {
			machines[u] = &randomMachine{}
		}
		eng, err := NewEngine(Config{N: 16, Alpha: 1, Seed: seed, MaxRounds: 8, Strict: true}, machines, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced equal digests")
	}
	if run(3) != run(3) {
		t.Fatal("equal seeds produced different digests")
	}
}

func TestDigestSeesCrashFiltering(t *testing.T) {
	// Two runs that send identical messages but differ only in whether a
	// crash drops them must not share a digest: dropped and delivered
	// messages hash under different tags.
	run := func(adv Adversary) uint64 {
		m0 := newScript(3, map[int][]Send{
			1: {{Port: 1, Payload: testPayload{id: 1}}, {Port: 2, Payload: testPayload{id: 1}}},
		})
		machines := []Machine{m0, newScript(3, nil), newScript(3, nil)}
		eng, err := NewEngine(Config{N: 3, Alpha: 0.5, MaxRounds: 3}, machines, adv)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	if run(nil) == run(crashAdv{node: 0, round: 1}) {
		t.Fatal("crash filtering is invisible to the digest")
	}
}

func TestParallelModeWithCrashes(t *testing.T) {
	// The worker pool must interoperate with crash filtering and never
	// step a crashed machine again.
	for _, mode := range []RunMode{Sequential, Parallel} {
		m0 := newScript(4, map[int][]Send{
			1: {{Port: 1, Payload: testPayload{id: 1}}, {Port: 2, Payload: testPayload{id: 1}}},
			2: {{Port: 1, Payload: testPayload{id: 2}}, {Port: 2, Payload: testPayload{id: 2}}},
		})
		machines := []Machine{m0, newScript(4, nil), newScript(4, nil)}
		eng, err := NewEngine(Config{N: 3, Alpha: 0.5, MaxRounds: 4, Workers: 3}, machines, crashAdv{node: 0, round: 2})
		if err != nil {
			t.Fatal(err)
		}
		eng.Mode = mode
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.CrashedAt[0] != 2 {
			t.Fatalf("mode %d: CrashedAt = %v", mode, res.CrashedAt)
		}
		if m0.last != 2 {
			t.Fatalf("mode %d: crashed machine stepped in round %d", mode, m0.last)
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{N: 3, Alpha: 1, MaxRounds: 1}, []Machine{newScript(1, nil)}, nil); err == nil {
		t.Error("machine count mismatch accepted")
	}
	if _, err := NewEngine(Config{N: 0, Alpha: 1, MaxRounds: 1}, nil, nil); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewEngine(Config{N: 2, Alpha: 1, MaxRounds: 1}, []Machine{newScript(1, nil), nil}, nil); err == nil {
		t.Error("nil machine accepted")
	}
}
