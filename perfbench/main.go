// Command perfbench is the repository's benchmark. One process runs one
// named workload for a fixed time, checks every output it produces, and
// prints its metrics as a single JSON object on the last line of standard
// output: the end-to-end metrics by default, the per-layer metrics of a
// traced run with --trace 1. README.md lists the workloads, the metrics,
// and which end-to-end metric each layer metric should move.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-sparse --seed 1 --seconds 15 --trace 0
//
// The exit status is 0 when every output check passed, 1 when one failed
// (the JSON line still prints, with "correct": false), and 2 on a usage or
// set-up error, which prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose first pass is pinned (pins.go).
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up; setup_s is the
// median repetition plus the one warm-up op.
const setupReps = 3

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

// outcome is a finished run: its op counts, the failed output checks,
// and every metric it measured, by name.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records one failed op or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 16 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"paper-sparse": func(cfg runConfig) (*outcome, error) { return runSuite(cfg, buildPaperSparse) },
	"table1-dense": func(cfg runConfig) (*outcome, error) { return runSuite(cfg, buildTable1Dense) },
	"dst-verify":   func(cfg runConfig) (*outcome, error) { return runSuite(cfg, buildDSTVerify) },
	"svc-backlog":  runSvcBacklog,
}

// metricDef names one reported metric. The tables below must match
// BENCHMARK.json; TestTablesMatchBenchmarkJSON checks that they do.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a run prints with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"sim_msgs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a run prints with --trace 1. A layer the
// workload never calls reports 0.
var perLayer = []metricDef{
	{"netsim.rounds_per_op", "count", "lower"},
	{"netsim.node_rounds_per_op", "count", "lower"},
	{"netsim.msgs_per_op", "count", "lower"},
	{"netsim.msgs_per_node_round", "count", "lower"},
	{"netsim.loop_ms_per_op", "ms", "lower"},
	{"netsim.round_us_p50", "us", "lower"},
	{"netsim.round_us_p99", "us", "lower"},
	{"netsim.ns_per_node_round", "ns", "lower"},
	{"netsim.ns_per_msg", "ns", "lower"},
	{"fault.crashnow_calls_per_op", "count", "lower"},
	{"fault.deliver_calls_per_op", "count", "lower"},
	{"fault.crashes_per_op", "count", "lower"},
	{"fault.adv_ms_per_op", "ms", "lower"},
	{"fault.schedule_gen_us_per_case", "us", "lower"},
	{"core.prepare_ms_per_op", "ms", "lower"},
	{"core.eval_ms_per_op", "ms", "lower"},
	{"core.success_runs", "count", "higher"},
	{"baseline.floodset_ms_per_op", "ms", "lower"},
	{"baseline.wcelection_ms_per_op", "ms", "lower"},
	{"baseline.d2election_ms_per_op", "ms", "lower"},
	{"topo.compile_s.cluster-d2", "s", "lower"},
	{"topo.compile_s.wellconnected", "s", "lower"},
	{"topo.ns_per_msg", "ns", "lower"},
	{"dst.reference_ms_per_case", "ms", "lower"},
	{"dst.differential_ms_per_case", "ms", "lower"},
	{"dst.differential_to_reference", "ratio", "lower"},
	{"dst.failures", "count", "lower"},
	{"simsvc.admit_ms_p50", "ms", "lower"},
	{"simsvc.admit_ms_p99", "ms", "lower"},
	{"simsvc.backpressure_retries_per_job", "count", "lower"},
	{"simsvc.queue_wait_ms_p50", "ms", "lower"},
	{"simsvc.queue_wait_ms_p99", "ms", "lower"},
	{"simsvc.run_ms_p50", "ms", "lower"},
	{"simsvc.cache_hit_ratio", "ratio", "higher"},
	{"simsvc.journal_bytes_per_job", "B", "lower"},
	{"bench.probe_lateness_ms_p99", "ms", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		log:      stdout,
	}
	fmt.Fprintf(stdout, "perfbench: %s, seed %d, %gs, trace %d; %s %s/%s, GOMAXPROCS %d of %d CPUs\n",
		cfg.workload, cfg.seed, *seconds, *traceFlag, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line, err := resultLine(out, defs, !cfg.traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-38s %14.6g %s\n", d.Name, out.values[d.Name], d.Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "perfbench: FAILED:", p)
	}
	if _, err := stdout.Write(line); err != nil {
		return 2
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the outcome as the final JSON line. With required
// set every metric must have been measured; otherwise a metric the run
// never set reports 0.
func resultLine(o *outcome, defs []metricDef, required bool) ([]byte, error) {
	if o.attempted < 1 {
		return nil, fmt.Errorf("no op was attempted")
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(resultJSON{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	})
	return append(line, '\n'), err
}

// peakRSSMB is the process's peak resident set in MiB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deriveSeed gives item i of a workload's generated list its own seed.
func deriveSeed(seed uint64, i int) uint64 { return mix64(seed + uint64(i+1)*0x9e3779b97f4a7c15) }
