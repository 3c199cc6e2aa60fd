package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/rng"
)

// The paper's protocols are anonymous (KT0): protocol code must never
// consult Env.ID or the KT1 helpers. This guard scans the package source
// so a refactor cannot silently break the model.
func TestCoreIsKT0(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, forbidden := range []string{".ID", "PortTo", "SenderOf"} {
			if strings.Contains(string(src), forbidden) {
				t.Errorf("%s references %q — core must stay anonymous (KT0)", f, forbidden)
			}
		}
	}
}

// Crash every candidate the instant it announces (hunter with threshold
// at the referee sample size is triggered by the round-1 broadcast). With
// f = (1-alpha)n budget the non-faulty candidates survive and must still
// elect.
func TestElectionCandidateAnnouncementCrashes(t *testing.T) {
	const n, reps = 256, 15
	ok := 0
	for seed := uint64(0); seed < reps; seed++ {
		src := rng.New(seed + 900)
		adv := fault.NewHunter(n, n/2, 2, fault.DropHalf, src)
		res := electOnce(t, RunConfig{N: n, Alpha: 0.5, Seed: seed, Adversary: adv})
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps-2 {
		t.Errorf("success %d/%d with instant candidate crashes", ok, reps)
	}
}

// The Step-4 timeout path, engineered deterministically: let the
// minimum-rank candidate spread its rank during pre-processing, then
// crash it with total message loss in the exact round proposals begin.
// Every other candidate proposes the dead minimum, gets no confirmation,
// times out, retires the rank, and converges on the next one.
func TestElectionTimeoutRetiresDeadRanks(t *testing.T) {
	const n, seed = 256, 6
	clean := electOnce(t, RunConfig{N: n, Alpha: 0.75, Seed: seed})
	if !clean.Eval.Success {
		t.Fatalf("clean run failed: %s", clean.Eval.Reason)
	}
	// Fault-free the winner IS the minimum-rank candidate.
	minOwner := clean.Eval.LeaderNode
	minRank := clean.Eval.AgreedRank

	d, err := deriveParams(Params{}, n, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	crashRound := newElectionMachine(d).prepEnd + 1
	adv := fault.Must(fault.NewTargetedPlan(n, map[int]int{minOwner: crashRound}, fault.DropAll, rng.New(1)))
	res := electOnce(t, RunConfig{N: n, Alpha: 0.75, Seed: seed, Adversary: adv})
	if !res.Eval.Success {
		t.Fatalf("run with dead minimum failed: %s", res.Eval.Reason)
	}
	if res.Eval.AgreedRank <= minRank {
		t.Fatalf("agreed rank %d did not climb past the dead minimum %d", res.Eval.AgreedRank, minRank)
	}
	timeouts := 0
	for _, o := range res.Outputs {
		timeouts += o.Stats.Timeouts
	}
	if timeouts == 0 {
		t.Fatal("no Step-4 timeouts fired despite a dead proposed minimum")
	}
}

// The paper's "may crash after the election" case, engineered
// deterministically: run fault-free to learn who wins, then re-run the
// same seed with a targeted plan crashing exactly that node well after
// its claim. The network must still agree on the crashed leader, and the
// evaluation must report success with LeaderCrashed.
func TestElectionLeaderCrashAfterClaim(t *testing.T) {
	const n, seed = 256, 4
	clean := electOnce(t, RunConfig{N: n, Alpha: 0.75, Seed: seed})
	if !clean.Eval.Success {
		t.Fatalf("clean run failed: %s", clean.Eval.Reason)
	}
	leader := clean.Eval.LeaderNode

	d, err := deriveParams(Params{}, n, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	// Proposals begin after the pre-processing window; the winner's
	// claim completes within a few exchange round-trips. Crash it well
	// after that but before the schedule ends.
	crashRound := newElectionMachine(d).prepEnd + 40
	adv := fault.Must(fault.NewTargetedPlan(n, map[int]int{leader: crashRound}, fault.DropNone, rng.New(1)))
	res := electOnce(t, RunConfig{N: n, Alpha: 0.75, Seed: seed, Adversary: adv})
	if !res.Eval.Success {
		t.Fatalf("crashed-after-claim leader rejected: %s", res.Eval.Reason)
	}
	if !res.Eval.LeaderCrashed {
		t.Fatal("LeaderCrashed not reported")
	}
	if res.Eval.LeaderNode != leader || res.Eval.AgreedRank != clean.Eval.AgreedRank {
		t.Fatalf("agreement moved off the crashed leader: node %d rank %d (want node %d rank %d)",
			res.Eval.LeaderNode, res.Eval.AgreedRank, leader, clean.Eval.AgreedRank)
	}
}

func TestElectionRecordsTrace(t *testing.T) {
	res := electOnce(t, RunConfig{N: 128, Alpha: 0.75, Seed: 1, Record: true})
	if res.Trace == nil || res.Trace.EdgeCount() == 0 {
		t.Fatal("no trace recorded")
	}
	// Every candidate sent before receiving (initiator); passives never
	// send first.
	for u, o := range res.Outputs {
		fs, fr := res.Trace.FirstSend(u), res.Trace.FirstReceive(u)
		if o.IsCandidate && fs != 1 {
			t.Errorf("candidate %d first send = %d, want 1", u, fs)
		}
		if !o.IsCandidate && fs != 0 && (fr == 0 || fs < fr) {
			t.Errorf("passive node %d initiated (fs=%d fr=%d)", u, fs, fr)
		}
	}
}

func TestAgreementStateStringAndOutputs(t *testing.T) {
	if Undecided.String() != "UNDECIDED" || Elected.String() != "ELECTED" || NonElected.String() != "NONELECTED" {
		t.Error("ElectionState.String mismatch")
	}
	if ElectionState(99).String() != "UNDECIDED" {
		t.Error("unknown state should render UNDECIDED")
	}
}

func TestRunConfigCongestOverride(t *testing.T) {
	// A CongestFactor of 1 is below the protocol's payload needs, so a
	// strict run must fail loudly rather than silently truncate.
	_, err := RunElection(RunConfig{N: 128, Alpha: 0.75, Seed: 1, CongestFactor: 1})
	if err == nil {
		t.Fatal("tight CONGEST budget did not error in strict mode")
	}
	if !strings.Contains(err.Error(), "bits") {
		t.Fatalf("unexpected error: %v", err)
	}
}
