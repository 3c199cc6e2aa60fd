package main

import (
	"testing"

	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// The decorator must keep netsim.CrashPlanner, or the engine leaves its
// fused crash-free path and the traced run measures another program.
func TestCountingAdversaryKeepsCrashPlanner(t *testing.T) {
	const n, alpha = 64, 0.7
	var sched fault.Schedule
	for seed := uint64(1); sched.FaultyCount() == 0; seed++ {
		sched = fault.GenerateSchedule(n, 12, 8, rng.New(seed))
	}
	run := func(adv netsim.Adversary) *core.ElectionResult {
		t.Helper()
		res, err := core.RunElection(core.RunConfig{N: n, Alpha: alpha, Seed: 9, Adversary: adv})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare, err := sched.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := sched.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	var c advCounter
	decorated := countAdversary(inner, &c)
	if _, ok := decorated.(netsim.CrashPlanner); !ok {
		t.Fatal("decorated fault.ScheduleAdversary does not implement netsim.CrashPlanner")
	}
	want, got := run(bare), run(decorated)
	if got.Digest != want.Digest {
		t.Fatalf("decorated digest %#x, bare %#x", got.Digest, want.Digest)
	}
	crashed := 0
	for _, r := range got.CrashedAt {
		if r != 0 {
			crashed++
		}
	}
	if crashed == 0 || c.crashes != int64(crashed) || c.crashNow < c.crashes {
		t.Errorf("counted %d crashes in %d CrashNow calls, the run crashed %d nodes", c.crashes, c.crashNow, crashed)
	}
}

func TestCountingAdversaryAddsNoCrashPlanner(t *testing.T) {
	plan, err := fault.NewRandomPlan(16, 4, 5, fault.DropHalf, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := countAdversary(plan, &advCounter{}).(netsim.CrashPlanner); ok {
		t.Fatal("decorated fault.Plan claims netsim.CrashPlanner, which the plan does not implement")
	}
}
