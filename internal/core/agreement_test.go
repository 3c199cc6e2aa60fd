package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

func agreeOnce(t *testing.T, cfg RunConfig, inputs []int) *AgreementResult {
	t.Helper()
	res, err := RunAgreement(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func constInputs(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func randInputs(n int, seed uint64) []int {
	src := rng.New(seed)
	in := make([]int, n)
	for i := range in {
		in[i] = src.Intn(2)
	}
	return in
}

func TestAgreementAllOnes(t *testing.T) {
	res := agreeOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 1}, constInputs(256, 1))
	if !res.Eval.Success || res.Eval.Value != 1 {
		t.Fatalf("eval: %+v", res.Eval)
	}
	// All-ones sends only the registrations: no zero propagation at all.
	if res.Counters.PerKind()["zero"] != 0 {
		t.Errorf("zero messages sent in an all-ones run: %v", res.Counters.PerKind())
	}
}

func TestAgreementAllZeros(t *testing.T) {
	res := agreeOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 2}, constInputs(256, 0))
	if !res.Eval.Success || res.Eval.Value != 0 {
		t.Fatalf("eval: %+v", res.Eval)
	}
}

func TestAgreementValidityOverSeeds(t *testing.T) {
	// The decided value is always some node's input; with uniform random
	// inputs the committee w.h.p. holds a 0, so the decision is 0.
	for seed := uint64(0); seed < 20; seed++ {
		inputs := randInputs(512, seed)
		res := agreeOnce(t, RunConfig{N: 512, Alpha: 0.5, Seed: seed}, inputs)
		if !res.Eval.Success {
			t.Errorf("seed %d: %s", seed, res.Eval.Reason)
			continue
		}
		if res.Eval.Value != 0 {
			t.Logf("seed %d decided 1 (no zero in committee) — rare but legal", seed)
		}
	}
}

func TestAgreementUnderRandomCrashes(t *testing.T) {
	const n, reps = 512, 25
	ok := 0
	for seed := uint64(0); seed < reps; seed++ {
		src := rng.New(seed + 600)
		adv := fault.Must(fault.NewRandomPlan(n, n/2, 40, fault.DropHalf, src))
		res := agreeOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed, Adversary: adv}, randInputs(n, seed))
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps-1 {
		t.Errorf("success %d/%d", ok, reps)
	}
}

func TestAgreementUnderDropAll(t *testing.T) {
	const n, reps = 512, 20
	ok := 0
	for seed := uint64(0); seed < reps; seed++ {
		src := rng.New(seed + 700)
		adv := fault.Must(fault.NewRandomPlan(n, n/2, 40, fault.DropAll, src))
		res := agreeOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed, Adversary: adv}, randInputs(n, seed))
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps-1 {
		t.Errorf("success %d/%d", ok, reps)
	}
}

func TestAgreementZeroBias(t *testing.T) {
	// A single 0 planted on a node that is forced into the committee
	// must win. Plant zeros densely enough that the committee holds one
	// w.h.p. (1/4 of nodes), then require decision 0 across seeds.
	const n = 512
	for seed := uint64(0); seed < 10; seed++ {
		src := rng.New(seed)
		inputs := constInputs(n, 1)
		for i := 0; i < n/4; i++ {
			inputs[src.Intn(n)] = 0
		}
		res := agreeOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed}, inputs)
		if !res.Eval.Success {
			t.Errorf("seed %d: %s", seed, res.Eval.Reason)
			continue
		}
		if res.Eval.Value != 0 {
			t.Errorf("seed %d: decided 1 with dense zeros", seed)
		}
	}
}

func TestAgreementDeterministic(t *testing.T) {
	mk := func() *AgreementResult {
		src := rng.New(88)
		adv := fault.Must(fault.NewRandomPlan(256, 100, 30, fault.DropRandom, src))
		return agreeOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 12, Adversary: adv}, randInputs(256, 5))
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Error("outputs differ across identical runs")
	}
	if a.Counters.Bits() != b.Counters.Bits() {
		t.Error("bit accounting differs across identical runs")
	}
}

func TestAgreementConcurrentEngineEquivalent(t *testing.T) {
	mk := func(mode netsim.RunMode) *AgreementResult {
		src := rng.New(21)
		adv := fault.Must(fault.NewRandomPlan(256, 64, 30, fault.DropHalf, src))
		return agreeOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 7, Adversary: adv,
			Mode: mode}, randInputs(256, 7))
	}
	if !reflect.DeepEqual(mk(netsim.Sequential).Outputs, mk(netsim.Parallel).Outputs) {
		t.Fatal("concurrent engine changed the outcome")
	}
}

func TestAgreementExplicit(t *testing.T) {
	const n = 256
	src := rng.New(31)
	adv := fault.Must(fault.NewRandomPlan(n, n/4, 30, fault.DropHalf, src))
	res := agreeOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: 3, Adversary: adv,
		Params: Params{Explicit: true}}, randInputs(n, 3))
	if !res.Eval.Success || !res.Eval.ExplicitOK {
		t.Fatalf("explicit agreement: %+v", res.Eval)
	}
	for u, o := range res.Outputs {
		if res.CrashedAt[u] == 0 && (!o.Decided || o.Value != res.Eval.Value) {
			t.Fatalf("live node %d undecided or wrong in explicit mode", u)
		}
	}
}

func TestAgreementImplicitLeavesNonCandidatesUndecided(t *testing.T) {
	res := agreeOnce(t, RunConfig{N: 256, Alpha: 0.5, Seed: 4}, randInputs(256, 4))
	for _, o := range res.Outputs {
		if !o.IsCandidate && o.Decided {
			t.Fatal("non-candidate decided in implicit mode")
		}
		if o.IsCandidate && !o.Decided {
			t.Fatal("live candidate undecided at termination")
		}
	}
}

func TestAgreementInputValidation(t *testing.T) {
	if _, err := RunAgreement(RunConfig{N: 4, Alpha: 1}, []int{0, 1}); err == nil {
		t.Error("short input slice accepted")
	}
	if _, err := RunAgreement(RunConfig{N: 2, Alpha: 1}, []int{0, 7}); err == nil {
		t.Error("non-binary input accepted")
	}
}

// Property: across random small configurations the protocol never errors
// and, on success, always decides a value present in the inputs.
func TestAgreementProperty(t *testing.T) {
	f := func(seedRaw uint16, pRaw uint8) bool {
		seed := uint64(seedRaw)
		n := 64 + int(seedRaw%3)*32
		inputs := make([]int, n)
		src := rng.New(seed ^ 0xabc)
		for i := range inputs {
			if src.Bool(float64(pRaw) / 255) {
				inputs[i] = 1
			}
		}
		res, err := RunAgreement(RunConfig{N: n, Alpha: 0.75, Seed: seed}, inputs)
		if err != nil {
			return false
		}
		if !res.Eval.Success {
			return true // Monte Carlo failure is legal; only check soundness
		}
		for _, in := range inputs {
			if in == res.Eval.Value {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
