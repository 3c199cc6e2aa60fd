package fleet

import (
	"os"
	"testing"
	"time"

	"sublinear/internal/experiment"
	"sublinear/internal/simsvc"
)

func testSweep(reps int) experiment.Sweep {
	return experiment.Sweep{
		Name:  "test-sweep",
		Title: "tiny two-point sweep",
		Points: []experiment.SweepPoint{
			{Label: "n=16", Protocol: "election", N: 16, Alpha: 0.7, Reps: reps},
			{Label: "n=24", Protocol: "agreement", N: 24, Alpha: 0.7, Reps: reps},
		},
	}
}

func TestNewPlanSweep(t *testing.T) {
	plan, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(10), ShardReps: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 10 reps in shards of 4 → 3 shards per point.
	if len(plan.Shards) != 6 {
		t.Fatalf("got %d shards, want 6", len(plan.Shards))
	}
	for i, s := range plan.Shards {
		if s.Index != i {
			t.Fatalf("shard %d has index %d", i, s.Index)
		}
		if !s.Spec.Raw {
			t.Fatalf("shard %d spec is not raw", i)
		}
		wantSeed := uint64(7) + uint64(s.Range.Lo)*experiment.SeedStride
		if s.Spec.Seed != wantSeed {
			t.Fatalf("shard %d seed = %d, want %d", i, s.Spec.Seed, wantSeed)
		}
		if s.Spec.Reps != s.Range.Reps() {
			t.Fatalf("shard %d reps = %d, want %d", i, s.Spec.Reps, s.Range.Reps())
		}
	}
	// Shards of point 0 cover [0,10) exactly.
	covered := 0
	for _, s := range plan.PointShards(0) {
		covered += s.Range.Reps()
	}
	if covered != 10 {
		t.Fatalf("point 0 shards cover %d reps, want 10", covered)
	}
}

func TestPlanHashStability(t *testing.T) {
	mk := func(seed uint64, shard int) string {
		p, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(8), ShardReps: shard, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return p.Hash
	}
	if mk(1, 4) != mk(1, 4) {
		t.Fatal("identical workloads hash differently")
	}
	if mk(1, 4) == mk(2, 4) {
		t.Fatal("different seeds share a plan hash")
	}
	if mk(1, 4) == mk(1, 2) {
		t.Fatal("different shardings share a plan hash")
	}
}

func TestNewPlanDST(t *testing.T) {
	plan, err := NewPlan(Workload{Kind: KindDST, DSTCases: 10, ShardReps: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(plan.Shards))
	}
	seen := map[uint64]bool{}
	total := 0
	for _, s := range plan.Shards {
		if s.Spec.Protocol != simsvc.ProtoDST {
			t.Fatalf("dst shard has protocol %q", s.Spec.Protocol)
		}
		if seen[s.Spec.Seed] {
			t.Fatalf("duplicate shard seed %d", s.Spec.Seed)
		}
		seen[s.Spec.Seed] = true
		total += s.Spec.Reps
	}
	if total != 10 {
		t.Fatalf("shards cover %d cases, want 10", total)
	}
}

func TestNewPlanRejects(t *testing.T) {
	for _, w := range []Workload{
		{Kind: "nope"},
		{Kind: KindDST, DSTCases: 0},
		{Kind: KindSweep, Sweep: experiment.Sweep{Name: "empty"}},
		{Kind: KindSweep, Sweep: experiment.Sweep{Name: "bad", Points: []experiment.SweepPoint{
			{Label: "p", Protocol: "no-such-protocol", N: 16, Reps: 4},
		}}},
	} {
		if _, err := NewPlan(w); err == nil {
			t.Errorf("NewPlan(%+v) accepted an invalid workload", w)
		}
	}
}

func TestBreakerBackoff(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	b := newBreaker(100*time.Millisecond, 2*time.Second, now, func() float64 { return 0 })

	if d := b.remaining(); d > 0 {
		t.Fatalf("new breaker open for %v", d)
	}
	// With zero jitter the open window is exactly half the backoff step.
	prev := time.Duration(0)
	for i := 1; i <= 6; i++ {
		b.failure()
		d := b.remaining()
		if d <= 0 {
			t.Fatalf("failure %d left the breaker closed", i)
		}
		if i > 1 && d < prev {
			t.Fatalf("failure %d shrank the window: %v < %v", i, d, prev)
		}
		if d > time.Second { // max 2s, jitter 0 → at most max/2
			t.Fatalf("failure %d window %v exceeds jittered max", i, d)
		}
		prev = d
	}
	if got := b.consecutiveFailures(); got != 6 {
		t.Fatalf("failures = %d, want 6", got)
	}
	b.success()
	if d := b.remaining(); d > 0 {
		t.Fatalf("success left the breaker open for %v", d)
	}
	if got := b.consecutiveFailures(); got != 0 {
		t.Fatalf("success left %d failures", got)
	}
	// After a reset the backoff starts over at the base.
	b.failure()
	if d := b.remaining(); d > 50*time.Millisecond {
		t.Fatalf("post-reset window %v did not restart at base", d)
	}
}

func TestBreakerJitterRange(t *testing.T) {
	clock := time.Unix(0, 0)
	for _, j := range []float64{0, 0.25, 0.5, 0.999999} {
		b := newBreaker(time.Second, 8*time.Second, func() time.Time { return clock }, func() float64 { return j })
		b.failure()
		d := b.remaining()
		if d < 500*time.Millisecond || d >= time.Second {
			t.Fatalf("jitter %v: window %v outside [d/2, d)", j, d)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(8), ShardReps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal has %d entries", len(done))
	}
	res := &simsvc.JobResult{Success: 4, Reps: 4}
	if err := j.Record(0, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(2, res); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0] == nil || done[2] == nil {
		t.Fatalf("reloaded %d entries (%v), want shards 0 and 2", len(done), done)
	}
	if done[0].Success != 4 {
		t.Fatalf("reloaded result lost data: %+v", done[0])
	}
	j2.Close()

	// A different plan refuses the journal namespace: different hash,
	// different file.
	other, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(8), ShardReps: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if JournalPath(dir, other) == JournalPath(dir, plan) {
		t.Fatal("different plans share a journal file")
	}
}

// TestJournalPartialTail simulates a coordinator killed mid-append: the
// torn final line is discarded on reopen and the journal stays usable.
func TestJournalPartialTail(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(8), ShardReps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, &simsvc.JobResult{Success: 4, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := JournalPath(dir, plan)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":3,"result":{"succ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(done) != 1 || done[1] == nil {
		t.Fatalf("reloaded %d entries, want only shard 1", len(done))
	}
	// Appending after the truncation produces a clean record.
	if err := j2.Record(3, &simsvc.JobResult{Success: 4, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(done) != 2 {
		t.Fatalf("after repair reloaded %d entries, want 2", len(done))
	}
	data, _ := os.ReadFile(path)
	if n := len(data); n == 0 || data[n-1] != '\n' {
		t.Fatal("journal does not end in a newline after repair")
	}
}

// TestJournalEmptyFileOpensFresh: a coordinator killed after creating
// its journal but before the header reached it leaves an empty file.
// That file must open as a fresh journal and resume, not block every
// later run of the plan.
func TestJournalEmptyFileOpensFresh(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(8), ShardReps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir, plan), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatalf("empty journal did not open: %v", err)
	}
	if len(done) != 0 {
		t.Fatalf("empty journal replayed %d entries", len(done))
	}
	if err := j.Record(1, &simsvc.JobResult{Success: 4, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(done) != 1 || done[1] == nil || done[1].Success != 4 {
		t.Fatalf("resumed journal replayed %v, want shard 1", done)
	}
}

// TestJournalDuplicateRecordsLastWin pins the idempotent-replay
// contract: the append path cannot promise exactly-once — a successor
// coordinator can resume past a predecessor stalled mid-fsync, re-run
// the shard, and have the stalled record land afterwards — so replay
// must resolve duplicate shard records last-wins. The duplicates here
// carry distinguishable payloads to observe which one won; a torn tail
// after them simulates the stalled writer dying mid-append.
func TestJournalDuplicateRecordsLastWin(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan(Workload{Kind: KindSweep, Sweep: testSweep(8), ShardReps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, &simsvc.JobResult{Success: 1, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(2, &simsvc.JobResult{Success: 4, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	// The stalled predecessor's append for shard 0 lands after the
	// successor already re-recorded it...
	if err := j.Record(0, &simsvc.JobResult{Success: 3, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// ...and then the predecessor dies mid-way through yet another copy.
	path := JournalPath(dir, plan)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":0,"result":{"success":9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("reloaded %d shards, want 2", len(done))
	}
	if done[0] == nil || done[0].Success != 3 {
		t.Fatalf("shard 0 replayed as %+v, want the last complete record (Success=3)", done[0])
	}
	// The journal stays appendable after the repair, and a reopen sees
	// the post-repair record too.
	if err := j2.Record(1, &simsvc.JobResult{Success: 4, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, done, err := OpenJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(done) != 3 || done[0].Success != 3 {
		t.Fatalf("after repair reloaded %d shards (shard0=%+v), want 3 with shard 0 last-wins intact", len(done), done[0])
	}
}
