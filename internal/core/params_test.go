package core

import (
	"math"
	"strings"
	"testing"

	"sublinear/internal/netsim"
)

func TestDeriveParamsDefaults(t *testing.T) {
	d, err := deriveParams(Params{}, 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.params.CandidateFactor != 6 || d.params.RefereeFactor != 2 ||
		d.params.IterationFactor != 8 || d.params.TimeoutIterations != 2 {
		t.Fatalf("defaults not applied: %+v", d.params)
	}
	wantProb := 6 * math.Log(1024) / (0.5 * 1024)
	if math.Abs(d.candidateProb-wantProb) > 1e-12 {
		t.Errorf("candidateProb = %v, want %v", d.candidateProb, wantProb)
	}
	wantRefs := int(math.Ceil(2 * math.Sqrt(1024*math.Log(1024)/0.5)))
	if d.refereeCount != wantRefs {
		t.Errorf("refereeCount = %d, want %d", d.refereeCount, wantRefs)
	}
	if d.iterations != int(math.Ceil(8*math.Log(1024)/0.5)) {
		t.Errorf("iterations = %d", d.iterations)
	}
}

func TestDeriveParamsValidation(t *testing.T) {
	if _, err := deriveParams(Params{}, 1, 0.5); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := deriveParams(Params{}, 1024, 1.5); err == nil {
		t.Error("alpha>1 accepted")
	}
	// alpha below log^2(n)/n is outside the model.
	if _, err := deriveParams(Params{}, 1024, 0.01); err == nil {
		t.Error("alpha below the frontier accepted")
	} else if !strings.Contains(err.Error(), "alpha") {
		t.Errorf("unhelpful error: %v", err)
	}
	// The frontier itself is admissible.
	if _, err := deriveParams(Params{}, 1024, MinimumAlpha(1024)); err != nil {
		t.Errorf("frontier alpha rejected: %v", err)
	}
}

func TestDeriveParamsClamps(t *testing.T) {
	// Tiny network: probability clamps to 1, referees to n-1.
	d, err := deriveParams(Params{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.candidateProb != 1 {
		t.Errorf("candidateProb = %v, want clamp to 1", d.candidateProb)
	}
	if d.refereeCount != 7 {
		t.Errorf("refereeCount = %d, want clamp to n-1", d.refereeCount)
	}
}

func TestMinimumAlpha(t *testing.T) {
	// log2(1024)^2 / 1024 = 100/1024.
	if got, want := MinimumAlpha(1024), 100.0/1024; math.Abs(got-want) > 1e-12 {
		t.Errorf("MinimumAlpha(1024) = %v, want %v", got, want)
	}
	if MinimumAlpha(2) > 1 {
		t.Error("MinimumAlpha must clamp to 1")
	}
}

func TestRankRange(t *testing.T) {
	if got := rankRange(10); got != 10000 {
		t.Errorf("rankRange(10) = %d, want n^4", got)
	}
	if got := rankRange(1 << 20); got != 1<<62 {
		t.Errorf("rankRange(2^20) = %d, want cap 2^62", got)
	}
	if got := rankRange(1); got != 16 {
		t.Errorf("rankRange(1) = %d, want floor 16", got)
	}
}

func TestRankBits(t *testing.T) {
	if got := rankBits(1024); got != 40 {
		t.Errorf("rankBits(1024) = %d, want 40", got)
	}
	if got := rankBits(1 << 30); got != 62 {
		t.Errorf("rankBits(2^30) = %d, want cap 62", got)
	}
}

func TestIntCeil(t *testing.T) {
	tests := []struct {
		in   float64
		want int
	}{{1, 1}, {1.1, 2}, {2.999, 3}, {0, 0}}
	for _, tt := range tests {
		if got := intCeil(tt.in); got != tt.want {
			t.Errorf("intCeil(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestDeriveParamsExported(t *testing.T) {
	d, err := DeriveParams(Params{}, 2048, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d.RefereeCount <= 0 || d.Iterations <= 0 || d.ElectionRounds <= 0 || d.AgreementRounds <= 0 {
		t.Fatalf("non-positive derived values: %+v", d)
	}
	if d.ExpectedCandidates <= 0 || d.CandidateProb <= 0 {
		t.Fatalf("non-positive committee values: %+v", d)
	}
	// Election needs more rounds than agreement (4-phase iterations).
	if d.ElectionRounds <= d.AgreementRounds {
		t.Errorf("ElectionRounds %d <= AgreementRounds %d", d.ElectionRounds, d.AgreementRounds)
	}
}

// Payload sizes must fit the CONGEST budget the runs configure
// (factor 12).
func TestPayloadsFitBudget(t *testing.T) {
	for _, n := range []int{4, 64, 1024, 1 << 20} {
		budget := 12 * netsim.BitsLen(n)
		payloads := []interface {
			Bits(int) int
			Kind() string
		}{
			rankAnnounce{}, rankForward{}, proposeMsg{}, relayMaxMsg{},
			claimMsg{}, confirmMsg{}, leaderAnnounce{},
			bitRegister{}, zeroMsg{}, valueAnnounce{},
		}
		for _, p := range payloads {
			if p.Bits(n) > budget {
				t.Errorf("n=%d: payload %q is %d bits, budget %d", n, p.Kind(), p.Bits(n), budget)
			}
			if p.Bits(n) <= 0 {
				t.Errorf("payload %q has non-positive size", p.Kind())
			}
		}
	}
}
