package main

import (
	"io"
	"strings"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 100}, {19, 100}, // not even the median has ten samples beyond it
		{20, 50}, {40, 75}, {100, 90}, {200, 95},
		{999, 95}, // p99 would leave nine beyond
		{1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeReportsPercentileAndCount(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(len(samples) - i) // 1000 down to 1
	}
	s := summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.Tail != 990 || s.TailQ != 99 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "p99 990") || !strings.Contains(str, "1000 samples") {
		t.Errorf("String() = %q, want the p99 value and the sample count", str)
	}
	small := summarize([]float64{3, 1, 2})
	if small.TailQ != 100 || small.Tail != 3 || !strings.Contains(small.String(), "max 3 (3 samples)") {
		t.Errorf("summarize of three samples = %+v, %q; want the maximum, named as such", small, small)
	}
	if (summarize(nil) != summary{}) {
		t.Errorf("summarize(nil) = %+v, want the zero summary", summarize(nil))
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "netsim.ns_per_msg", "topo.compile_s.cluster-d2", "9lives"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	for _, name := range []string{"", "-lead", ".lead", "has space", "slash/name", "micro_µs", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || seen[d.Name] {
			t.Errorf("metric %q is malformed or listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestPerOpNormalisation(t *testing.T) {
	if got := perOp(10, 4); got != 2.5 {
		t.Errorf("perOp(10, 4) = %v", got)
	}
	if got := perOp(7, 0); got != 0 {
		t.Errorf("perOp(7, 0) = %v, want 0 for a layer that did no work", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	for _, c := range []struct {
		rates []float64
		want  float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{4, 1, 2}, 3}, {[]float64{6, 2, 4, 8}, 6}} {
		if got := steadyRate(c.rates); got != c.want {
			t.Errorf("steadyRate(%v) = %v, want %v: the mean without the slowest block", c.rates, got, c.want)
		}
	}

	p := newLayerProbe()
	p.adv.crashNow, p.adv.crashes = 10, 4
	e := p.engine["netsim"]
	e.ops, e.rounds, e.msgs, e.nodeRounds = 2, 6, 40, 20
	v := map[string]float64{}
	p.report(v, 2, io.Discard)
	for name, want := range map[string]float64{
		"fault.crashnow_calls_per_op": 5,
		"fault.crashes_per_op":        2,
		"netsim.rounds_per_op":        3,
		"netsim.msgs_per_op":          20,
		"netsim.msgs_per_node_round":  2,
		"topo.ns_per_msg":             0, // no topo runs: 0, not NaN
		"dst.reference_ms_per_case":   0,
	} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}
