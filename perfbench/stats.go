package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail figure may report, highest
// first. p99 is the target; a run with too few samples for it reports the
// next one down that the percentile rule allows.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// minBeyond is the percentile rule: a percentile is reportable only when
// at least this many samples lie beyond it.
const minBeyond = 10

// summary is a latency distribution reduced by the percentile rule.
type summary struct {
	// N is the sample count.
	N int
	// P50 is the median.
	P50 float64
	// Tail is the value at percentile TailQ.
	Tail float64
	// TailQ is the highest candidate percentile with at least minBeyond
	// samples beyond it; 100 (the maximum) when no candidate qualifies.
	TailQ float64
}

// rankIndex is the nearest-rank index of percentile q in n sorted samples.
func rankIndex(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n)/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// tailPercentile returns the highest candidate percentile that has at
// least minBeyond samples beyond its nearest-rank position in n samples,
// or 100 when none does.
func tailPercentile(n int) float64 {
	for _, q := range tailCandidates {
		if n-(rankIndex(q, n)+1) >= minBeyond {
			return q
		}
	}
	return 100
}

// summarize sorts a copy of samples and applies the percentile rule.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := tailPercentile(len(s))
	return summary{
		N:     len(s),
		P50:   s[rankIndex(50, len(s))],
		Tail:  s[rankIndex(q, len(s))],
		TailQ: q,
	}
}

// String renders the summary with the percentile actually reported and
// the sample count, so a tail read at p95 is never mistaken for p99.
func (s summary) String() string {
	tail := fmt.Sprintf("p%g", s.TailQ)
	if s.TailQ == 100 {
		tail = "max"
	}
	return fmt.Sprintf("p50 %.4g, %s %.4g (%d samples)", s.P50, tail, s.Tail, s.N)
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// steadyRate reduces per-block rates to one throughput figure: the mean
// of every block but the slowest. A stall from a neighbour on a shared
// machine drops out with that block, and the other blocks all count,
// which a median over a run's few blocks would not let them do. One
// block is its own rate; none gives 0.
func steadyRate(rates []float64) float64 {
	if len(rates) < 2 {
		return median(rates)
	}
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s[1:] {
		sum += x
	}
	return sum / float64(len(s)-1)
}

// perOp normalises a run total by the op count; zero ops give zero, so
// a layer that did no work on a workload reports 0 rather than NaN.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// ratio divides two quantities, giving 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms and us express a duration in the named unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts durations to float samples in the unit conv gives.
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// metricName is the benchmark's metric-name grammar.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a well-formed metric name.
func validName(name string) bool { return metricName.MatchString(name) }
