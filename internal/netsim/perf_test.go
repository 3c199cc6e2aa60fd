package netsim

import (
	"fmt"
	"testing"

	"sublinear/internal/metrics"
)

// countingTracer is a no-op Tracer that only tallies calls: it isolates
// the engine-side cost of tracing (per-sender event buffering and the
// pass-D merge sweep) from any recorder backend.
type countingTracer struct {
	rounds, msgs, other int64
}

func (c *countingTracer) TraceRound(int)                                      { c.rounds++ }
func (c *countingTracer) TraceCrash(int, int)                                 { c.other++ }
func (c *countingTracer) TraceMessage(int, int, int, metrics.Kind, int, bool) { c.msgs++ }
func (c *countingTracer) TraceViolation(int, int, string)                     { c.other++ }
func (c *countingTracer) TraceAnnotation(int, int, string)                    { c.other++ }
func (c *countingTracer) TraceFinish(int, int64, int64, uint64)               {}

// pingRun executes the zero-alloc benchmark workload and returns the
// result. Shared by the steady-state allocation and workers-determinism
// tests below.
func pingRun(t *testing.T, n, rounds, workers int, mode RunMode, adv Adversary) *Result {
	t.Helper()
	machines := make([]Machine, n)
	for u := range machines {
		machines[u] = &pingMachine{}
	}
	eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds, Workers: workers}, machines, adv)
	if err != nil {
		t.Fatal(err)
	}
	eng.Mode = mode
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fixedPingMachine sends one message on port 1 every round: every inbox
// receives exactly one delivery per round, so buffer capacities stabilize
// after the first round and any further allocation is the engine's own.
type fixedPingMachine struct {
	last    int
	payload benchPayload
	out     [1]Send
}

func (m *fixedPingMachine) Step(_ *Env, round int, _ []Delivery) []Send {
	m.last = round
	m.payload.bits = 8
	m.out[0] = Send{Port: 1, Payload: &m.payload}
	return m.out[:]
}

func (m *fixedPingMachine) Done() bool  { return false }
func (m *fixedPingMachine) Output() any { return m.last }

// TestSteadyStateAllocs pins the tentpole's zero-allocation claim: once a
// run's buffers warm up, extra rounds cost no allocations. It measures
// whole runs at two round counts and checks that the marginal
// allocations per extra message stay at zero — construction cost cancels
// in the subtraction. The workload has a fixed fanout so inbox
// capacities (owned by append's amortized-growth policy, not the engine)
// stabilize after round one.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		n     = 256
		short = 10
		long  = 210
	)
	for _, mode := range []struct {
		name   string
		mode   RunMode
		traced bool
	}{
		// Nil-Tracer cases pin the zero-overhead claim for tracing off:
		// Config.Tracer is nil here, so these bound the exact path every
		// untraced production run takes.
		{"sequential", Sequential, false},
		{"parallel", Parallel, false},
		// Traced cases bound the engine-side cost of tracing with a no-op
		// Tracer: the per-sender event buffers recycle across rounds, so
		// steady-state tracing adds no allocations either (a real recorder
		// backend adds only its own buffer growth and compression).
		{"sequential-traced", Sequential, true},
		{"parallel-traced", Parallel, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			measure := func(rounds int) float64 {
				return testing.AllocsPerRun(3, func() {
					machines := make([]Machine, n)
					for u := range machines {
						machines[u] = &fixedPingMachine{}
					}
					cfg := Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds}
					if mode.traced {
						cfg.Tracer = &countingTracer{}
					}
					eng, err := NewEngine(cfg, machines, nil)
					if err != nil {
						t.Fatal(err)
					}
					eng.Mode = mode.mode
					if _, err := eng.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			extraMsgs := float64((long - short) * n)
			marginal := (measure(long) - measure(short)) / extraMsgs
			// The engine itself is allocation-free per message; the budget
			// of 0.01 allocs/message (one alloc per ~100 messages) absorbs
			// runtime noise without hiding a real per-message allocation.
			if marginal > 0.01 {
				t.Errorf("marginal allocations = %.4f per message, want ~0", marginal)
			}
		})
	}
}

// TestTracerSeesEveryMessage cross-checks the Tracer hook against the
// counters: a counting tracer must observe exactly the counted messages
// and rounds, at any worker count, crashes included.
func TestTracerSeesEveryMessage(t *testing.T) {
	const n, rounds = 64, 20
	for _, workers := range []int{1, 4} {
		tr := &countingTracer{}
		machines := make([]Machine, n)
		for u := range machines {
			machines[u] = &pingMachine{}
		}
		eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds, Workers: workers, Tracer: tr},
			machines, crashAdv{node: 3, round: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng.Mode = Parallel
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tr.msgs != res.Counters.Messages() {
			t.Errorf("workers=%d: tracer saw %d messages, counters %d", workers, tr.msgs, res.Counters.Messages())
		}
		if tr.rounds != int64(res.Rounds) {
			t.Errorf("workers=%d: tracer saw %d rounds, result %d", workers, tr.rounds, res.Rounds)
		}
	}
}

// TestWorkersOverrideDeterminism runs the same seed across worker-pool
// sizes and modes, with a mid-run crash in the mix, and requires
// identical digests and message counts: shard count must be invisible in
// every observable. Under -race this doubles as the concurrency check for
// the sharded delivery path.
func TestWorkersOverrideDeterminism(t *testing.T) {
	const n, rounds = 64, 20
	adv := crashAdv{node: 3, round: 7}
	ref := pingRun(t, n, rounds, 1, Sequential, adv)
	for _, mode := range []struct {
		name string
		mode RunMode
	}{{"sequential", Sequential}, {"parallel", Parallel}} {
		for _, workers := range []int{0, 1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/w%d", mode.name, workers), func(t *testing.T) {
				res := pingRun(t, n, rounds, workers, mode.mode, adv)
				if res.Digest != ref.Digest {
					t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
				}
				if res.Counters.Messages() != ref.Counters.Messages() {
					t.Errorf("messages = %d, want %d", res.Counters.Messages(), ref.Counters.Messages())
				}
			})
		}
	}
}

// TestWorkersValidation pins the Config.Workers contract: zero means
// auto-size, negatives are rejected.
func TestWorkersValidation(t *testing.T) {
	cfg := Config{N: 4, Alpha: 1, MaxRounds: 1, Workers: -1}
	if err := cfg.validate(); err == nil {
		t.Error("negative Workers passed validation")
	}
	cfg.Workers = 0
	if err := cfg.validate(); err != nil {
		t.Errorf("Workers=0 rejected: %v", err)
	}
	if got := cfg.workerCount(); got < 1 {
		t.Errorf("workerCount() = %d, want >= 1", got)
	}
}

// TestSteadyStateAllocsLargeN repeats the zero-allocation pin at the
// tentpole scale (n = 65536): the SoA inbox arenas, routing buckets, and
// preallocated counters must hit their high-water marks in the warmup
// rounds and stop allocating, in both engine modes. Skipped under -short
// — each measurement runs a couple of million simulated messages.
func TestSteadyStateAllocsLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n allocation pin skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		n     = 65536
		short = 4
		long  = 16
	)
	for _, mode := range []struct {
		name string
		mode RunMode
	}{{"sequential", Sequential}, {"parallel", Parallel}} {
		t.Run(mode.name, func(t *testing.T) {
			measure := func(rounds int) float64 {
				return testing.AllocsPerRun(2, func() {
					machines := make([]Machine, n)
					for u := range machines {
						machines[u] = &fixedPingMachine{}
					}
					eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds}, machines, nil)
					if err != nil {
						t.Fatal(err)
					}
					eng.Mode = mode.mode
					if _, err := eng.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			extraMsgs := float64((long - short) * n)
			marginal := (measure(long) - measure(short)) / extraMsgs
			if marginal > 0.01 {
				t.Errorf("marginal allocations = %.4f per message, want ~0", marginal)
			}
		})
	}
}

// TestLargeNDigestIdentity pins digest byte-identity at tentpole scale:
// n = 65536 with mid-run crashes must produce the same digest and
// message count in every mode at every worker count. Skipped under
// -short; this is the long-form cousin of TestWorkersOverrideDeterminism.
func TestLargeNDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n digest pin skipped in -short mode")
	}
	const n, rounds = 65536, 8
	adv := crashAdv{node: 12345, round: 4}
	ref := pingRun(t, n, rounds, 1, Sequential, adv)
	for _, tc := range []struct {
		name    string
		mode    RunMode
		workers int
	}{
		{"parallel/w2", Parallel, 2},
		{"parallel/w8", Parallel, 8},
		{"parallel/w0", Parallel, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := pingRun(t, n, rounds, tc.workers, tc.mode, adv)
			if res.Digest != ref.Digest {
				t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
			}
			if res.Counters.Messages() != ref.Counters.Messages() {
				t.Errorf("messages = %d, want %d", res.Counters.Messages(), ref.Counters.Messages())
			}
		})
	}
}

// windowAdv is a CrashPlanner whose published windows are deliberately
// tight: it schedules two crashes and promises exactly the rounds
// between them crash-free. Used to pin that the engine's fused-window
// fast path is invisible in the digest.
type windowAdv struct {
	crashAdv
	extra int // second faulty node, crashes at round+3
}

func (a windowAdv) Faulty(u int) bool { return u == a.node || u == a.extra }
func (a windowAdv) CrashNow(u, round int, out []Send) bool {
	if u == a.node {
		return round >= a.round
	}
	return round >= a.round+3
}
func (a windowAdv) NextCrashRound(round int) int {
	if round <= a.round {
		return a.round
	}
	return a.round + 3
}

// TestCrashPlannerWindowDigest pins the batched-barrier contract at the
// netsim layer: an adversary that publishes crash-free windows via
// NextCrashRound must yield byte-identical digests, counters, and crash
// records to the same adversary with the planner hidden, in every mode
// and worker count.
func TestCrashPlannerWindowDigest(t *testing.T) {
	const n, rounds = 96, 20
	planned := windowAdv{crashAdv: crashAdv{node: 5, round: 6}, extra: 41}
	// hidden strips the CrashPlanner method by embedding the adversary in
	// a bare Adversary interface value.
	hidden := struct{ Adversary }{planned}
	ref := pingRun(t, n, rounds, 1, Sequential, hidden)
	for _, tc := range []struct {
		name    string
		adv     Adversary
		mode    RunMode
		workers int
	}{
		{"planner/sequential", planned, Sequential, 1},
		{"planner/parallel-w3", planned, Parallel, 3},
		{"planner/parallel-w8", planned, Parallel, 8},
		{"hidden/parallel-w3", hidden, Parallel, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := pingRun(t, n, rounds, tc.workers, tc.mode, tc.adv)
			if res.Digest != ref.Digest {
				t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
			}
			if res.Counters.Messages() != ref.Counters.Messages() {
				t.Errorf("messages = %d, want %d", res.Counters.Messages(), ref.Counters.Messages())
			}
			if res.CrashedAt[5] != ref.CrashedAt[5] || res.CrashedAt[41] != ref.CrashedAt[41] {
				t.Errorf("crash rounds (%d,%d), want (%d,%d)",
					res.CrashedAt[5], res.CrashedAt[41], ref.CrashedAt[5], ref.CrashedAt[41])
			}
		})
	}
}
