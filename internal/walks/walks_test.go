package walks

import (
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/graph"
	"sublinear/internal/rng"
)

// mustGraph returns a checker usable as mustGraph(t)(graph.Ring(8)).
func mustGraph(t *testing.T) func(graph.Graph, error) graph.Graph {
	t.Helper()
	return func(g graph.Graph, err error) graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestWalkElectionFastMixers(t *testing.T) {
	graphs := []graph.Graph{
		mustGraph(t)(graph.Complete(256)),
		mustGraph(t)(graph.Hypercube(8)),
		mustGraph(t)(graph.RandomRegular(256, 8, 7)),
	}
	for _, g := range graphs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			t.Parallel()
			ok, full := 0, 0
			const reps = 15
			for seed := uint64(0); seed < reps; seed++ {
				res, err := Run(g, seed, Params{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Eval.Success {
					ok++
				} else {
					t.Logf("seed %d: %s", seed, res.Eval.Reason)
				}
				if res.Eval.FullAgreement {
					full++
				}
			}
			if ok < reps-1 {
				t.Errorf("%s: unique leader in %d/%d", g.Name(), ok, reps)
			}
			if full < reps-2 {
				t.Errorf("%s: full agreement in %d/%d", g.Name(), full, reps)
			}
		})
	}
}

func TestWalkElectionWinnerIsMaxRank(t *testing.T) {
	g := mustGraph(t)(graph.Hypercube(8))
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Run(g, seed, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Eval.Success {
			continue
		}
		var maxRank uint64
		for _, o := range res.Outputs {
			if o.IsCandidate && o.Rank > maxRank {
				maxRank = o.Rank
			}
		}
		if res.Eval.AgreedRank != maxRank {
			t.Fatalf("seed %d: agreed %d, max candidate rank %d", seed, res.Eval.AgreedRank, maxRank)
		}
		for _, o := range res.Outputs {
			if o.Elected && o.Rank != maxRank {
				t.Fatalf("seed %d: non-max node elected", seed)
			}
		}
	}
}

func TestWalkElectionSlowMixerNeedsStretch(t *testing.T) {
	ring := mustGraph(t)(graph.Ring(128))
	flatOK, stretchedOK := 0, 0
	const reps = 8
	for seed := uint64(0); seed < reps; seed++ {
		flat, err := Run(ring, seed, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if flat.Eval.Success {
			flatOK++
		}
		stretched, err := Run(ring, seed, Params{Stretch: 150}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stretched.Eval.Success {
			stretchedOK++
		}
	}
	// The flat budget must fail most of the time; the stretched budget
	// must succeed most of the time — the t_mix dependence.
	if flatOK > reps/2 {
		t.Errorf("ring at flat budget succeeded %d/%d — too easy", flatOK, reps)
	}
	if stretchedOK < reps-1 {
		t.Errorf("ring at stretched budget succeeded only %d/%d", stretchedOK, reps)
	}
}

func TestWalkElectionMessageScale(t *testing.T) {
	g := mustGraph(t)(graph.RandomRegular(1024, 8, 3))
	res, err := Run(g, 1, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sublinear territory: well below n^2 and comparable to the
	// complete-network Õ(sqrt n) budget times polylog.
	if res.Counters.Messages() > int64(g.N())*int64(g.N())/8 {
		t.Fatalf("messages = %d — not sublinear-ish", res.Counters.Messages())
	}
	if res.Counters.Messages() == 0 {
		t.Fatal("no messages")
	}
}

func TestWalkElectionTokensReturnHome(t *testing.T) {
	g := mustGraph(t)(graph.Complete(128))
	res, err := Run(g, 4, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{}.withDefaults(g.N())
	for u, o := range res.Outputs {
		if !o.IsCandidate {
			if o.TokensHome != 0 {
				t.Fatalf("passive node %d got tokens home", u)
			}
			continue
		}
		// Fault-free, every token must complete its round trip.
		if o.TokensHome != p.Tokens {
			t.Fatalf("candidate %d: %d/%d tokens home", u, o.TokensHome, p.Tokens)
		}
	}
}

func TestWalkElectionUnderCrashes(t *testing.T) {
	g := mustGraph(t)(graph.RandomRegular(256, 8, 9))
	ok := 0
	const reps = 12
	for seed := uint64(0); seed < reps; seed++ {
		// A few crashed nodes swallow tokens; the election should still
		// mostly succeed (lost tokens only shrink the sample).
		adv := fault.Must(fault.NewRandomPlan(g.N(), g.N()/16, 10, fault.DropAll, rng.New(seed+40)))
		res, err := Run(g, seed, Params{}, adv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Eval.Success {
			ok++
		} else {
			t.Logf("seed %d: %s", seed, res.Eval.Reason)
		}
	}
	if ok < reps*2/3 {
		t.Errorf("success %d/%d under light crashes", ok, reps)
	}
}

func TestWalkElectionDeterministic(t *testing.T) {
	g := mustGraph(t)(graph.Hypercube(7))
	a, err := Run(g, 42, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, 42, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters.Messages() != b.Counters.Messages() || a.Eval.AgreedRank != b.Eval.AgreedRank {
		t.Fatal("same seed produced different runs")
	}
}

func TestWalkParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults(1024)
	if p.CandidateFactor != 6 || p.MarkBudgetFactor != 2 || p.Stretch != 1 {
		t.Fatalf("defaults: %+v", p)
	}
	if p.Tokens < 10 {
		t.Fatalf("tokens = %d, want ~2 ln n", p.Tokens)
	}
	if l := p.walkLen(1024); l < 2 {
		t.Fatalf("walk length %d", l)
	}
	// Stretch scales the walk length.
	p2 := p
	p2.Stretch = 10
	if p2.walkLen(1024) < 9*p.walkLen(1024) {
		t.Fatal("stretch did not scale walk length")
	}
}

func TestWalkTokenBits(t *testing.T) {
	tok := walkToken{}
	if tok.Bits(1024) > 16*10 {
		t.Fatalf("token is %d bits — over the walk CONGEST budget", tok.Bits(1024))
	}
}
