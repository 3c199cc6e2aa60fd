package baseline

import (
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/topo"
)

func TestD2ElectionElectsUniqueLeader(t *testing.T) {
	for _, n := range []int{4, 16, 100, 257} {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := RunD2Election(D2Config{N: n, Seed: seed}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Errorf("n=%d seed=%d: %s", n, seed, res.Reason)
			}
			if res.Rounds != 3 {
				t.Errorf("n=%d seed=%d: %d rounds, want 3 (O(1))", n, seed, res.Rounds)
			}
		}
	}
}

func TestD2ElectionWinnerIsMaxKeyCandidate(t *testing.T) {
	res, err := RunD2Election(D2Config{N: 64, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("failed: %s", res.Reason)
	}
	var maxKey int64 = -1
	who := -1
	for u, o := range res.Outputs {
		d := o.(D2Output)
		if d.Candidate && d.Key > maxKey {
			maxKey, who = d.Key, u
		}
	}
	if int(res.Value) != who {
		t.Fatalf("leader %d, want maximum-key candidate %d", res.Value, who)
	}
}

// TestD2ElectionMessageBound pins the paper's O(n log n) bill with a
// loose constant: announces cost sum of candidate degrees (expected
// Theta(log n) candidates at degree <= n-1) and each announce buys back
// at most one reply.
func TestD2ElectionMessageBound(t *testing.T) {
	const n = 1024
	logn := 0
	for v := n - 1; v > 0; v >>= 1 {
		logn++
	}
	for seed := uint64(0); seed < 3; seed++ {
		res, err := RunD2Election(D2Config{N: n, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(12 * n * logn)
		if got := res.Counters.Messages(); got > bound {
			t.Errorf("seed=%d: %d messages > %d = 12 n log n", seed, got, bound)
		}
	}
}

// TestD2ElectionOtherDiameterTwoGraphs runs the election on the star —
// any diameter <= 2 topology must do.
func TestD2ElectionOtherDiameterTwoGraphs(t *testing.T) {
	for _, name := range []string{"star", "clique"} {
		tp, err := topo.ResolveTopology(name, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunD2Election(D2Config{N: 32, Seed: 2, Topology: tp}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Errorf("%s: %s", name, res.Reason)
		}
	}
}

// TestD2ElectionLateCrashKeepsUniqueness crashes nodes from round 3 on:
// the relay structure is already complete, so at most one leader
// survives in every run.
func TestD2ElectionLateCrashKeepsUniqueness(t *testing.T) {
	const n, f = 32, 8
	for seed := uint64(0); seed < 10; seed++ {
		adv := fault.Must(fault.NewLateCrashPlan(n, f, 3, rng.New(seed)))
		res, err := RunD2Election(D2Config{N: n, Seed: seed}, adv)
		if err != nil {
			t.Fatal(err)
		}
		leaders := 0
		for u, o := range res.Outputs {
			if res.CrashedAt[u] == 0 && o.(D2Output).Leader {
				leaders++
			}
		}
		if leaders > 1 {
			t.Errorf("seed=%d: %d live leaders after late crashes", seed, leaders)
		}
	}
}

func TestWCElectionElectsUniqueLeader(t *testing.T) {
	for _, n := range []int{4, 16, 64, 200} {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := RunWCElection(WCConfig{N: n, Seed: seed}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Errorf("n=%d seed=%d: %s", n, seed, res.Reason)
			}
		}
	}
}

// TestWCElectionMessageBound pins O(n log n) on the sparse graph: every
// node broadcasts over O(1) edges at most once per candidate it hears.
func TestWCElectionMessageBound(t *testing.T) {
	const n = 1024
	logn := 0
	for v := n - 1; v > 0; v >>= 1 {
		logn++
	}
	res, err := RunWCElection(WCConfig{N: n, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(12 * n * logn)
	if got := res.Counters.Messages(); got > bound {
		t.Errorf("%d messages > %d = 12 n log n", got, bound)
	}
}

// TestD2ElectionDigestDeterministic pins the engine contract at the
// protocol level: worker counts do not change the execution digest.
func TestD2ElectionDigestDeterministic(t *testing.T) {
	run := func(workers int, adv netsim.Adversary) uint64 {
		cfg, machines, err := BuildD2Election(D2Config{N: 65, Seed: 9}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		res, err := netsim.Execute(netsim.Parallel, cfg, machines, adv)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	adv := fault.Must(fault.NewRandomPlan(65, 5, 3, fault.DropHalf, rng.New(7)))
	for _, workers := range []int{2, 0} {
		if run(workers, nil) != run(1, nil) {
			t.Errorf("workers=%d: fault-free digest diverges", workers)
		}
		if run(workers, adv) != run(1, adv) {
			t.Errorf("workers=%d: crashing digest diverges", workers)
		}
	}
}
