// Package core implements the paper's primary contribution: randomized
// Monte Carlo algorithms for fault-tolerant implicit leader election
// (Section IV-A) and implicit binary agreement (Section V-A) on an
// anonymous, synchronous, fully connected network with up to
// n - log^2 n crash faults, together with their O(1)-round explicit
// extensions.
//
// Both algorithms share a committee structure: each node independently
// becomes a candidate with probability Theta(log n / (alpha n)), and each
// candidate samples Theta(sqrt(n log n / alpha)) referee nodes uniformly
// at random. Candidates never learn each other's ports; they communicate
// exclusively through referees. Lemma 2 of the paper guarantees at least
// one non-faulty candidate w.h.p., and Lemma 3 guarantees every pair of
// candidates shares a non-faulty referee w.h.p., which is what makes the
// sub-linear message budget suffice.
package core

import (
	"fmt"
	"math"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// Params tunes the algorithms. The zero value selects the paper's
// defaults; the ablation experiments (E10) vary individual fields.
type Params struct {
	// CandidateFactor scales the candidate probability
	// CandidateFactor * ln(n) / (alpha * n). The paper uses 6 (Lemma 1).
	CandidateFactor float64
	// RefereeFactor scales the per-candidate referee sample size
	// RefereeFactor * sqrt(n * ln(n) / alpha). The paper uses 2 (Lemma 3).
	RefereeFactor float64
	// IterationFactor scales the iteration budget
	// ceil(IterationFactor * ln(n) / alpha). The paper runs
	// O(log n / alpha) iterations; the default here is 8, enough for the
	// worst case of one costly candidate crash per few iterations.
	IterationFactor float64
	// TimeoutIterations is how many full iterations a candidate waits for
	// a proposal of rank r to be confirmed (or superseded) before
	// retiring r — the paper's Step 4 "no updates in the next 4 rounds".
	// Default 2.
	TimeoutIterations int
	// Explicit additionally runs the O(1)-round explicit extension: at
	// the end, agreed candidates broadcast the result to the whole
	// network (Theorems 4.1/5.1, "can be extended ... in O(log n / alpha)
	// rounds and O(n log n / alpha) messages").
	Explicit bool
	// EarlyStop lets the run end as soon as every live node is quiescent
	// with a confirmed result, instead of always exhausting the full
	// iteration budget. Off by default (the paper's algorithm runs the
	// fixed budget); enabling it preserves outputs on every seed we test
	// and reflects practically observed round counts.
	EarlyStop bool
}

// withDefaults returns a copy of p with zero fields replaced by defaults.
func (p Params) withDefaults() Params {
	if p.CandidateFactor == 0 {
		p.CandidateFactor = 6
	}
	if p.RefereeFactor == 0 {
		p.RefereeFactor = 2
	}
	if p.IterationFactor == 0 {
		p.IterationFactor = 8
	}
	if p.TimeoutIterations == 0 {
		p.TimeoutIterations = 2
	}
	return p
}

// derived holds the concrete quantities for a given (n, alpha).
type derived struct {
	params        Params
	n             int
	alpha         float64
	candidateProb float64
	refereeCount  int
	iterations    int
	rankRange     uint64
}

func deriveParams(p Params, n int, alpha float64) (derived, error) {
	p = p.withDefaults()
	if n < 2 {
		return derived{}, fmt.Errorf("core: n = %d, need >= 2", n)
	}
	minAlpha := minimumAlpha(n)
	if alpha < minAlpha || alpha > 1 {
		return derived{}, fmt.Errorf("core: alpha = %v out of range [%v, 1] for n = %d (paper requires alpha >= log^2 n / n)", alpha, minAlpha, n)
	}
	ln := rng.LogN(n)
	prob := p.CandidateFactor * ln / (alpha * float64(n))
	if prob > 1 {
		prob = 1
	}
	refs := int(math.Ceil(p.RefereeFactor * math.Sqrt(float64(n)*ln/alpha)))
	if refs > n-1 {
		refs = n - 1
	}
	if refs < 1 {
		refs = 1
	}
	iters := int(math.Ceil(p.IterationFactor * ln / alpha))
	if iters < 1 {
		iters = 1
	}
	return derived{
		params:        p,
		n:             n,
		alpha:         alpha,
		candidateProb: prob,
		refereeCount:  refs,
		iterations:    iters,
		rankRange:     rankRange(n),
	}, nil
}

// MinimumAlpha returns the smallest alpha the model admits for an n-node
// network: log^2(n)/n, corresponding to the maximum resilience
// f = n - log^2 n (Section II).
func MinimumAlpha(n int) float64 { return minimumAlpha(n) }

func minimumAlpha(n int) float64 {
	l := math.Log2(float64(n))
	a := l * l / float64(n)
	if a > 1 {
		return 1
	}
	return a
}

// rankRange returns the size of the rank space [1, n^4] (clamped to 2^62
// to stay within a uint64 with headroom). Ranks in this range are
// pairwise distinct w.h.p. (footnote 4 of the paper).
func rankRange(n int) uint64 {
	fn := float64(n)
	r := fn * fn * fn * fn
	if r > float64(uint64(1)<<62) {
		return 1 << 62
	}
	if r < 16 {
		return 16
	}
	return uint64(r)
}

// drawRank draws a uniform rank in [1, rankRange].
func drawRank(src *rng.Source, rang uint64) uint64 {
	return uint64(src.Int64n(int64(rang))) + 1
}

// rankBits returns the encoded size of a rank for an n-node network:
// ceil(log2(n^4)) = 4 ceil(log2 n) bits, capped at 62.
func rankBits(n int) int {
	b := 4 * netsim.BitsLen(n)
	if b > 62 {
		b = 62
	}
	return b
}
