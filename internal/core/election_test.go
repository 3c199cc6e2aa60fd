package core

import (
	"reflect"
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// electOnce is a test helper running one election.
func electOnce(t *testing.T, cfg RunConfig) *ElectionResult {
	t.Helper()
	res, err := RunElection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestElectionFaultFree(t *testing.T) {
	for _, n := range []int{128, 512} {
		n := n
		t.Run(sizeName(n), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 8; seed++ {
				res := electOnce(t, RunConfig{N: n, Alpha: 0.75, Seed: seed})
				if !res.Eval.Success {
					t.Errorf("seed %d: %s", seed, res.Eval.Reason)
				}
				// Fault-free: the leader must be the minimum-rank
				// candidate (no crashes ever retire a rank).
				var minRank uint64
				for _, o := range res.Outputs {
					if o.IsCandidate && (minRank == 0 || o.Rank < minRank) {
						minRank = o.Rank
					}
				}
				if res.Eval.AgreedRank != minRank {
					t.Errorf("seed %d: leader rank %d, want minimum %d",
						seed, res.Eval.AgreedRank, minRank)
				}
			}
		})
	}
}

func TestElectionExactlyOneElected(t *testing.T) {
	res := electOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 3})
	elected := 0
	for _, o := range res.Outputs {
		if o.State == Elected {
			elected++
		}
		if !o.IsCandidate && o.State != NonElected {
			t.Errorf("non-candidate in state %v", o.State)
		}
	}
	if elected != 1 {
		t.Fatalf("%d nodes ELECTED, want 1", elected)
	}
}

func TestElectionDeterministic(t *testing.T) {
	mk := func() *ElectionResult {
		src := rng.New(77)
		adv := fault.Must(fault.NewRandomPlan(256, 128, 60, fault.DropHalf, src))
		return electOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 9, Adversary: adv})
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Error("outputs differ across identical runs")
	}
	if a.Counters.Messages() != b.Counters.Messages() || a.Rounds != b.Rounds {
		t.Error("accounting differs across identical runs")
	}
}

func TestElectionConcurrentEngineEquivalent(t *testing.T) {
	mk := func(mode netsim.RunMode) *ElectionResult {
		src := rng.New(5)
		adv := fault.Must(fault.NewRandomPlan(128, 32, 40, fault.DropHalf, src))
		return electOnce(t, RunConfig{N: 128, Alpha: 0.75, Seed: 4, Adversary: adv, Mode: mode})
	}
	seq, par := mk(netsim.Sequential), mk(netsim.Parallel)
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Fatal("concurrent engine changed the outcome")
	}
	if !reflect.DeepEqual(seq.CrashedAt, par.CrashedAt) {
		t.Fatal("concurrent engine changed crash rounds")
	}
}

func TestElectionUnderRandomCrashes(t *testing.T) {
	const n, reps = 256, 25
	ok := 0
	for seed := uint64(0); seed < reps; seed++ {
		src := rng.New(seed + 100)
		adv := fault.Must(fault.NewRandomPlan(n, n/2, 80, fault.DropHalf, src))
		res := electOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed, Adversary: adv})
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps-1 {
		t.Errorf("success %d/%d under random crashes", ok, reps)
	}
}

func TestElectionUnderDropAll(t *testing.T) {
	const n, reps = 256, 20
	ok := 0
	for seed := uint64(0); seed < reps; seed++ {
		src := rng.New(seed + 200)
		adv := fault.Must(fault.NewRandomPlan(n, n/2, 100, fault.DropAll, src))
		res := electOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed, Adversary: adv})
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps-1 {
		t.Errorf("success %d/%d under drop-all crashes", ok, reps)
	}
}

func TestElectionUnderHunter(t *testing.T) {
	// The hunter crashes candidates mid-broadcast with split delivery —
	// the exact scenario Step 4's timeout exists for.
	const n, reps = 256, 20
	ok := 0
	for seed := uint64(0); seed < reps; seed++ {
		src := rng.New(seed + 300)
		adv := fault.NewHunter(n, n/2, 8, fault.DropHalf, src)
		res := electOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed, Adversary: adv})
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps-2 {
		t.Errorf("success %d/%d under the hunter", ok, reps)
	}
}

func TestElectionLeaderNeverCrashedBeforeProposal(t *testing.T) {
	// Across many adversarial runs, an agreed leader that crashed must
	// always have proposed itself first (the paper: "a crashed node is
	// never elected").
	for seed := uint64(0); seed < 15; seed++ {
		src := rng.New(seed + 400)
		adv := fault.NewHunter(128, 64, 8, fault.DropAll, src)
		res := electOnce(t, RunConfig{N: 128, Alpha: 0.5, Seed: seed, Adversary: adv})
		if !res.Eval.Success {
			continue
		}
		ldr := res.Eval.LeaderNode
		if res.CrashedAt[ldr] != 0 && !res.Outputs[ldr].SelfProposed {
			t.Fatalf("seed %d: crashed non-proposing leader elected", seed)
		}
	}
}

func TestElectionExplicit(t *testing.T) {
	const n = 256
	src := rng.New(42)
	adv := fault.Must(fault.NewRandomPlan(n, n/4, 60, fault.DropHalf, src))
	res := electOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: 2, Adversary: adv,
		Params: Params{Explicit: true}})
	if !res.Eval.Success {
		t.Fatalf("explicit election failed: %s", res.Eval.Reason)
	}
	if !res.Eval.ExplicitOK {
		t.Fatal("ExplicitOK false")
	}
	for u, o := range res.Outputs {
		if res.CrashedAt[u] == 0 && o.LeaderRank != res.Eval.AgreedRank {
			t.Fatalf("live node %d did not learn the leader", u)
		}
	}
}

func TestElectionEarlyStopMatchesOutcome(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		src1, src2 := rng.New(seed+500), rng.New(seed+500)
		advA := fault.Must(fault.NewRandomPlan(256, 64, 60, fault.DropHalf, src1))
		advB := fault.Must(fault.NewRandomPlan(256, 64, 60, fault.DropHalf, src2))
		full := electOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: seed, Adversary: advA})
		early := electOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: seed, Adversary: advB,
			Params: Params{EarlyStop: true}})
		if full.Eval.Success != early.Eval.Success || full.Eval.AgreedRank != early.Eval.AgreedRank {
			t.Errorf("seed %d: early stop changed the outcome (%v/%d vs %v/%d)", seed,
				full.Eval.Success, full.Eval.AgreedRank, early.Eval.Success, early.Eval.AgreedRank)
		}
		if early.Rounds > full.Rounds {
			t.Errorf("seed %d: early stop ran longer (%d vs %d)", seed, early.Rounds, full.Rounds)
		}
	}
}

func TestElectionRoundsWithinBudget(t *testing.T) {
	d, err := deriveParams(Params{}, 256, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := electOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 1})
	if res.Rounds > electionRounds(d) {
		t.Fatalf("ran %d rounds, budget %d", res.Rounds, electionRounds(d))
	}
}

func TestElectionMessagesSublinearInN2(t *testing.T) {
	// Sanity bound, not asymptotics: far fewer messages than n^2 at a
	// size where the sublinear term dominates.
	const n = 1024
	res := electOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: 6})
	if res.Counters.Messages() >= int64(n)*int64(n)/2 {
		t.Fatalf("messages %d not far below n^2 = %d", res.Counters.Messages(), n*n)
	}
}

func TestElectionInvalidConfig(t *testing.T) {
	if _, err := RunElection(RunConfig{N: 1, Alpha: 0.5}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RunElection(RunConfig{N: 256, Alpha: 0.001}); err == nil {
		t.Error("alpha below frontier accepted")
	}
}

func TestElectionTinyNetwork(t *testing.T) {
	// n=8 clamps candidate probability to 1 and referees to n-1; the
	// protocol must still elect exactly one leader.
	for seed := uint64(0); seed < 10; seed++ {
		res := electOnce(t, RunConfig{N: 8, Alpha: 1, Seed: seed})
		if !res.Eval.Success {
			t.Errorf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
}

func sizeName(n int) string {
	switch {
	case n < 256:
		return "small"
	case n < 1024:
		return "medium"
	default:
		return "large"
	}
}
