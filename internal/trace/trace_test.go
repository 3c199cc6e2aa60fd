package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/trace"
)

var (
	kindPing = metrics.InternKind("trace-ping")
	kindBig  = metrics.InternKind("trace-big")
)

type payload struct {
	bits int
	kind metrics.Kind
}

func (p payload) Bits(int) int         { return p.bits }
func (p payload) Kind() string         { return metrics.KindName(p.kind) }
func (p payload) KindID() metrics.Kind { return p.kind }

// chattyMachine exercises every event type: random-port pings each
// round, an out-of-range port, a duplicate port, an over-budget
// payload (all CONGEST violations in non-strict mode), and an
// annotation.
type chattyMachine struct {
	rounds int
	done   bool
}

func (m *chattyMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	if round > m.rounds {
		m.done = true
		return nil
	}
	if round == 1 && env.Tracing() {
		env.Annotate(fmt.Sprintf("node %d starting", env.ID))
	}
	p := 1 + env.Rand.Intn(env.N-1)
	out := []netsim.Send{{Port: p, Payload: payload{bits: 8, kind: kindPing}}}
	if env.ID == 1 && round == 2 {
		out = append(out, netsim.Send{Port: env.N + 5, Payload: payload{bits: 8, kind: kindPing}})
	}
	if env.ID == 2 && round == 3 {
		out = append(out, netsim.Send{Port: p, Payload: payload{bits: 8, kind: kindPing}})
	}
	if env.ID == 4 && round == 2 {
		q := p%(env.N-1) + 1
		if q == p {
			q = q%(env.N-1) + 1
		}
		out = append(out, netsim.Send{Port: q, Payload: payload{bits: 100000, kind: kindBig}})
	}
	return out
}

func (m *chattyMachine) Done() bool  { return m.done }
func (m *chattyMachine) Output() any { return nil }

// crashAdv crashes the scheduled nodes, delivering every other message
// of the crash-round outbox so traces contain both sends and drops.
type crashAdv struct{ at map[int]int }

func (a crashAdv) Faulty(u int) bool                              { _, ok := a.at[u]; return ok }
func (a crashAdv) CrashNow(u, round int, _ []netsim.Send) bool    { return a.at[u] == round }
func (a crashAdv) DeliverOnCrash(_, _, i int, _ netsim.Send) bool { return i%2 == 1 }

func testAdv() netsim.Adversary {
	return crashAdv{at: map[int]int{3: 2, 7: 4, 11: 4}}
}

// recordRun executes the chatty workload and returns the recorded trace
// bytes plus the engine result. It fails the test on any recorder error
// or witness mismatch.
func recordRun(t *testing.T, mode netsim.RunMode, workers int, adv netsim.Adversary) ([]byte, *netsim.Result) {
	t.Helper()
	const n = 24
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.Header{N: n, Seed: 42, Label: "trace-test"})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	machines := make([]netsim.Machine, n)
	for i := range machines {
		machines[i] = &chattyMachine{rounds: 6}
	}
	cfg := netsim.Config{N: n, Alpha: 0.75, Seed: 42, MaxRounds: 10, Workers: workers, Tracer: rec}
	engine, err := netsim.NewEngine(cfg, machines, adv)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	engine.Mode = mode
	res, err := engine.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder Close: %v", err)
	}
	if rec.Digest() != res.Digest {
		t.Fatalf("recorder digest %016x, result digest %016x", rec.Digest(), res.Digest)
	}
	return buf.Bytes(), res
}

// TestCrossEngineTraceEquivalence is the satellite determinism test:
// the same seed and schedule through every engine mode at several
// worker counts must yield byte-identical traces. Run with -race in CI.
func TestCrossEngineTraceEquivalence(t *testing.T) {
	ref, refRes := recordRun(t, netsim.Sequential, 1, testAdv())
	for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
		for _, workers := range []int{0, 1, 2, 3, 7} {
			got, res := recordRun(t, mode, workers, testAdv())
			if res.Digest != refRes.Digest {
				t.Errorf("mode %v workers %d: digest %016x, want %016x", mode, workers, res.Digest, refRes.Digest)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("mode %v workers %d: trace bytes differ from sequential reference", mode, workers)
			}
		}
	}
}

// TestTraceWitness verifies the recorded stream decodes, re-verifies
// its digest, and reports totals matching the engine's counters.
func TestTraceWitness(t *testing.T) {
	raw, res := recordRun(t, netsim.Parallel, 4, testAdv())
	hdr, evs, footer, err := trace.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if hdr.N != 24 || hdr.Seed != 42 || hdr.Label != "trace-test" {
		t.Errorf("header = %+v", hdr)
	}
	if footer.Digest != res.Digest {
		t.Errorf("footer digest %016x, result %016x", footer.Digest, res.Digest)
	}
	if footer.Messages != res.Counters.Messages() || footer.Bits != res.Counters.Bits() || footer.Rounds != res.Rounds {
		t.Errorf("footer totals %+v vs counters msgs=%d bits=%d rounds=%d",
			footer, res.Counters.Messages(), res.Counters.Bits(), res.Rounds)
	}
	var sends, drops, crashes, viols, notes int
	for _, ev := range evs {
		switch ev.Op {
		case trace.OpSend:
			sends++
		case trace.OpDrop:
			drops++
		case trace.OpCrash:
			crashes++
		case trace.OpViolation:
			viols++
		case trace.OpAnnotation:
			notes++
		}
	}
	if int64(sends+drops) != footer.Messages {
		t.Errorf("sends %d + drops %d != messages %d", sends, drops, footer.Messages)
	}
	if crashes != 3 {
		t.Errorf("crashes = %d, want 3", crashes)
	}
	if drops == 0 {
		t.Error("expected crash-round drops in the trace")
	}
	if viols != len(res.Violations) {
		t.Errorf("violations = %d, engine recorded %d", viols, len(res.Violations))
	}
	if notes != 24 {
		t.Errorf("annotations = %d, want one per node", notes)
	}
}

// TestTraceRoundTrip re-encodes a decoded trace and requires both
// byte-identical output (the format is canonical) and an equal decode.
func TestTraceRoundTrip(t *testing.T) {
	raw, _ := recordRun(t, netsim.Sequential, 1, testAdv())
	hdr, evs, footer, err := trace.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, ev := range evs {
		if err := w.Event(ev); err != nil {
			t.Fatalf("re-encode %s: %v", ev, err)
		}
	}
	if err := w.Finish(footer.Rounds, footer.Messages, footer.Bits, footer.Digest); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("re-encoded trace is not byte-identical")
	}
	_, evs2, footer2, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll(re-encoded): %v", err)
	}
	if len(evs2) != len(evs) || footer2 != footer {
		t.Errorf("re-encoded decode differs: %d vs %d events", len(evs2), len(evs))
	}
}

// TestDiffIdentical diffs two recordings of the same run.
func TestDiffIdentical(t *testing.T) {
	a, _ := recordRun(t, netsim.Sequential, 1, testAdv())
	b, _ := recordRun(t, netsim.Parallel, 4, testAdv())
	div, err := trace.Diff(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if div != nil {
		t.Fatalf("unexpected divergence: %s", div)
	}
}

// TestDiffLocalizesCrash diffs a faulty run against the fault-free run
// of the same seed: the first divergence must land exactly on the first
// crashed node in its crash round.
func TestDiffLocalizesCrash(t *testing.T) {
	faulty, _ := recordRun(t, netsim.Sequential, 1, testAdv())
	clean, _ := recordRun(t, netsim.Sequential, 1, nil)
	div, err := trace.Diff(bytes.NewReader(faulty), bytes.NewReader(clean))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if div == nil {
		t.Fatal("expected a divergence between faulty and fault-free runs")
	}
	if div.Round != 2 {
		t.Errorf("divergence round = %d, want 2 (first crash round): %s", div.Round, div)
	}
	if div.A == nil || div.A.Op != trace.OpCrash || div.A.Node != 3 {
		t.Errorf("divergence should be node 3's crash, got %s", div)
	}
}

// TestTraceCorruption checks the reader degrades to errors, never
// panics, on damaged input.
func TestTraceCorruption(t *testing.T) {
	raw, _ := recordRun(t, netsim.Sequential, 1, testAdv())

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 5, len(raw) / 2, len(raw) - 1} {
			if _, _, _, err := trace.ReadAll(bytes.NewReader(raw[:len(raw)-cut])); err == nil {
				t.Errorf("truncation by %d bytes accepted", cut)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for _, pos := range []int{6, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 0x40
			if _, _, _, err := trace.ReadAll(bytes.NewReader(mut)); err == nil {
				t.Errorf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := trace.NewReader(bytes.NewReader(nil)); err == nil {
			t.Error("empty stream accepted")
		}
	})
	t.Run("trailing", func(t *testing.T) {
		mut := append(append([]byte(nil), raw...), 0, 0, 0, 1, 'C')
		if _, _, _, err := trace.ReadAll(bytes.NewReader(mut)); err == nil {
			t.Error("trailing frame accepted")
		}
	})
}

// TestRecorderIncomplete: a strict-mode abort leaves the trace without
// a footer and Close must say so.
func TestRecorderIncomplete(t *testing.T) {
	const n = 8
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.Header{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]netsim.Machine, n)
	for i := range machines {
		machines[i] = &chattyMachine{rounds: 6}
	}
	cfg := netsim.Config{N: n, Alpha: 1, Seed: 1, MaxRounds: 10, Strict: true, Tracer: rec}
	engine, err := netsim.NewEngine(cfg, machines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(); err == nil {
		t.Fatal("strict run with violations should abort")
	}
	if err := rec.Close(); err == nil {
		t.Fatal("Close after aborted run should report an incomplete trace")
	}
	if _, _, _, err := trace.ReadAll(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("footerless trace accepted by reader")
	}
}

// TestSummarize spot-checks the aggregation tracectl builds on.
func TestSummarize(t *testing.T) {
	raw, res := recordRun(t, netsim.Parallel, 0, testAdv())
	s, err := trace.Summarize(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if len(s.Rounds) != res.Rounds {
		t.Errorf("summary rounds = %d, want %d", len(s.Rounds), res.Rounds)
	}
	var msgs int64
	for _, r := range s.Rounds {
		msgs += int64(r.Messages())
	}
	if msgs != res.Counters.Messages() {
		t.Errorf("summary messages = %d, counters say %d", msgs, res.Counters.Messages())
	}
	if len(s.Crashes) != 3 {
		t.Errorf("summary crashes = %v, want 3 entries", s.Crashes)
	}
	if s.KindCounts["trace-ping"] == 0 || s.KindCounts["trace-big"] == 0 {
		t.Errorf("kind counts missing entries: %v", s.KindCounts)
	}
	if got := s.KindsByCount(); len(got) != 2 || got[0] != "trace-ping" {
		t.Errorf("KindsByCount = %v", got)
	}
}

// TestReaderStreams ensures Next yields the same sequence ReadAll does
// and terminates with io.EOF exactly once the footer is verified.
func TestReaderStreams(t *testing.T) {
	raw, _ := recordRun(t, netsim.Sequential, 1, testAdv())
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Footer(); ok {
		t.Error("footer available before EOF")
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d events: %v", n, err)
		}
		n++
	}
	f, ok := r.Footer()
	if !ok || int64(n) != f.Events {
		t.Errorf("streamed %d events, footer says %d (ok=%v)", n, f.Events, ok)
	}
}
