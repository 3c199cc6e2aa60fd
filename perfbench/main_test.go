package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench prints %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench prints %v", b.PerLayer, perLayer)
	}
}

func TestResultLine(t *testing.T) {
	defs := []metricDef{{"a_s", "s", "lower"}, {"b", "count", "higher"}}
	o := newOutcome()
	o.attempted = 3
	o.values["a_s"] = 1.25
	if _, err := resultLine(o, defs, true); err == nil {
		t.Error("a missing required metric was not reported")
	}
	line, err := resultLine(o, defs, false)
	if err != nil {
		t.Fatal(err)
	}
	var got resultJSON
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	want := resultJSON{Correct: true, Attempted: 3, Metrics: map[string]jsonMetric{
		"a_s": {1.25, "s"}, "b": {0, "count"},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result %+v, want %+v", got, want)
	}
	o.fail("broken")
	o.values["b"] = math.NaN()
	if _, err := resultLine(o, defs, false); err == nil {
		t.Error("a NaN metric was not reported")
	}
	if _, err := resultLine(newOutcome(), defs, false); err == nil {
		t.Error("a run with no attempted op was not reported")
	}
}
