// Command benchjson measures netsim engine throughput with the
// zero-alloc ping workload and emits machine-readable results, so CI can
// hold the simulator to its performance budget without parsing `go test
// -bench` text output.
//
// Usage:
//
//	benchjson -out BENCH_netsim.json            # measure and write a baseline
//	benchjson -baseline BENCH_netsim.json       # measure and compare
//	benchjson -baseline BENCH_netsim.json -threshold 0.2 -alloc-threshold 0.25
//	benchjson -sizes 1024,65536 -ratio 1.3 -ratio-n 65536
//	benchjson -topology                         # add topology-engine entries (general graphs)
//	benchjson -maxn 60s                         # doubling search: largest n per run budget
//
// Comparison fails (exit status 2) when any benchmark's msgs/sec drops
// more than -threshold (default 0.2 = 20%) below the baseline, or its
// allocs/op or bytes/op grow more than -alloc-threshold (default 0.25)
// above it. Each entry is measured best-of-2 so one scheduler hiccup
// doesn't read as a regression; CI's bench-smoke job runs the comparison
// on every push.
//
// Baselines are host-specific: the report records the Go version, OS,
// architecture, CPU count, and GOMAXPROCS it was measured under, and
// comparing against a baseline from a different host is refused unless
// -allow-cross-host is given (absolute throughput across machines is
// noise, not signal). The -ratio gate is self-relative — parallel vs
// sequential on the same host in the same process — so it stays
// meaningful everywhere, and is skipped (with a notice) on hosts with
// fewer than 4 CPUs where a parallel speedup is not physically available.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sublinear/internal/netsim"
	"sublinear/internal/topo"
	"sublinear/internal/trace"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name       string  `json:"name"`
	N          int     `json:"n"`
	Mode       string  `json:"mode"`
	Rounds     int     `json:"rounds"`
	NsPerOp    int64   `json:"ns_op"`
	BytesPerOp int64   `json:"bytes_op"`
	AllocsOp   int64   `json:"allocs_op"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
}

// Host identifies the machine a report was measured on. Baselines only
// gate runs on an identical host; see -allow-cross-host.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Report is the file format: entries plus provenance. Schema 2 added the
// host block and the alloc gating fields' semantics.
type Report struct {
	Schema  int     `json:"schema"`
	Host    Host    `json:"host"`
	Entries []Entry `json:"entries"`
}

// benchPayload mirrors the netsim benchmark workload: a preallocated
// pointer payload and a reused outbox, so the measurement is the
// engine's per-message cost rather than the workload's allocator
// traffic.
type benchPayload struct{ bits int }

func (p *benchPayload) Bits(int) int { return p.bits }
func (*benchPayload) Kind() string   { return "ping" }

type pingMachine struct {
	last    int
	payload benchPayload
	out     [1]netsim.Send
}

func (m *pingMachine) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	m.payload.bits = 8
	// Env.Deg is n-1 on the complete network, so the clique workload is
	// unchanged; on a general graph the ping goes out a uniform local port.
	m.out[0] = netsim.Send{Port: 1 + env.Rand.Intn(env.Deg), Payload: &m.payload}
	return m.out[:]
}

func (m *pingMachine) Done() bool  { return false }
func (m *pingMachine) Output() any { return m.last }

const rounds = 50

// measure runs the benchmark twice and keeps the faster result: a
// best-of-2 discards one-off scheduler hiccups, which matters because
// the comparison threshold treats any slowdown as a regression.
//
// With traced set, every run records a full trace to io.Discard through
// trace.NewRecorder — encoding, interning, compression, and the digest
// witness check included — so the entry prices end-to-end flight
// recording rather than just the engine-side buffering. Traced entries
// carry a "-traced" mode suffix and are intentionally absent from the
// committed baseline: the untraced entries are the regression gate (and
// so prove the nil-Tracer path kept its budget), while the traced ones
// ride along in the output for overhead tracking.
func measure(n int, modeName string, mode netsim.RunMode, traced bool) Entry {
	r := bestOf2(n, mode, traced)
	nsOp := r.NsPerOp()
	if traced {
		modeName += "-traced"
	}
	msgs := float64(n*rounds) / (float64(nsOp) * 1e-9)
	return Entry{
		Name:       fmt.Sprintf("EngineModes/%s/n%d", modeName, n),
		N:          n,
		Mode:       modeName,
		Rounds:     rounds,
		NsPerOp:    nsOp,
		BytesPerOp: r.AllocedBytesPerOp(),
		AllocsOp:   r.AllocsPerOp(),
		MsgsPerSec: msgs,
	}
}

func bestOf2(n int, mode netsim.RunMode, traced bool) testing.BenchmarkResult {
	bench := func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machines := make([]netsim.Machine, n)
				for u := range machines {
					machines[u] = &pingMachine{}
				}
				cfg := netsim.Config{N: n, Alpha: 1, Seed: uint64(i), MaxRounds: rounds}
				var rec *trace.Recorder
				if traced {
					var err error
					rec, err = trace.NewRecorder(io.Discard, trace.Header{N: n, Seed: cfg.Seed, Label: "benchjson"})
					if err != nil {
						b.Fatal(err)
					}
					cfg.Tracer = rec
				}
				eng, err := netsim.NewEngine(cfg, machines, nil)
				if err != nil {
					b.Fatal(err)
				}
				eng.Mode = mode
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				if rec != nil {
					if err := rec.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	a, b := bench(), bench()
	if b.NsPerOp() < a.NsPerOp() {
		return b
	}
	return a
}

// measureTopo prices the pipeline on a general graph's port table with
// the same ping workload: one uniform local-port message per node per
// round. The topology is compiled once outside the timed loop — it is
// immutable shared state, exactly how long-lived callers hold it — so
// the entry measures delivery, not graph generation. workers follows
// netsim.Config: 1 is the single-lane schedule, 0 means GOMAXPROCS
// sharding.
func measureTopo(family string, n int, modeName string, workers int) (Entry, error) {
	tp, err := topo.ResolveTopology(family, n, 1)
	if err != nil {
		return Entry{}, err
	}
	bench := func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machines := make([]netsim.Machine, n)
				for u := range machines {
					machines[u] = &pingMachine{}
				}
				if _, err := netsim.Execute(netsim.Parallel, netsim.Config{
					N: n, Ports: tp.Ports(), Alpha: 1, Seed: uint64(i), MaxRounds: rounds, Workers: workers,
				}, machines, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	a, b := bench(), bench()
	r := a
	if b.NsPerOp() < a.NsPerOp() {
		r = b
	}
	nsOp := r.NsPerOp()
	mode := "topo-" + modeName
	return Entry{
		Name:       fmt.Sprintf("TopoEngine/%s/%s/n%d", family, modeName, n),
		N:          n,
		Mode:       mode,
		Rounds:     rounds,
		NsPerOp:    nsOp,
		BytesPerOp: r.AllocedBytesPerOp(),
		AllocsOp:   r.AllocsPerOp(),
		MsgsPerSec: float64(n*rounds) / (float64(nsOp) * 1e-9),
	}, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("benchjson: bad size %q in -sizes", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchjson: -sizes is empty")
	}
	return out, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "write measurements as JSON to this file ('-' for stdout)")
	baseline := fs.String("baseline", "", "compare measurements against this baseline file")
	threshold := fs.Float64("threshold", 0.2, "max tolerated msgs/sec regression fraction")
	allocThreshold := fs.Float64("alloc-threshold", 0.25, "max tolerated allocs/op or bytes/op growth fraction")
	sizes := fs.String("sizes", "1024,4096,65536,262144", "comma-separated node counts to measure")
	ratio := fs.Float64("ratio", 0, "min required parallel/sequential msgs/sec ratio (0 disables; skipped below 4 CPUs)")
	ratioN := fs.Int("ratio-n", 65536, "node count at which the -ratio gate is evaluated")
	allowCrossHost := fs.Bool("allow-cross-host", false, "gate against a baseline measured on a different host")
	topology := fs.Bool("topology", false, "also measure the pipeline on port tables (cluster-d2 and wellconnected) at n=1024 and n=4096")
	maxN := fs.Duration("maxn", 0, "doubling search: report the largest n whose full run fits this budget (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" && *baseline == "" && *maxN == 0 {
		*out = "-"
	}

	if *maxN > 0 {
		return maxNSearch(stdout, *maxN)
	}

	ns, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	if *ratio > 0 && !contains(ns, *ratioN) {
		return fmt.Errorf("benchjson: -ratio-n %d is not in -sizes %s", *ratioN, *sizes)
	}

	rep := Report{Schema: 2, Host: currentHost()}
	for _, mode := range []struct {
		name string
		mode netsim.RunMode
	}{{"sequential", netsim.Sequential}, {"parallel", netsim.Parallel}} {
		for _, n := range ns {
			e := measure(n, mode.name, mode.mode, false)
			printEntry(stdout, e)
			rep.Entries = append(rep.Entries, e)
		}
	}
	// Traced variants price the full flight-recorder pipeline at one
	// mid-size. They have no baseline entries, so compare() skips them —
	// tracing overhead is reported, not gated.
	for _, mode := range []struct {
		name string
		mode netsim.RunMode
	}{{"sequential", netsim.Sequential}, {"parallel", netsim.Parallel}} {
		e := measure(4096, mode.name, mode.mode, true)
		printEntry(stdout, e)
		rep.Entries = append(rep.Entries, e)
	}
	// Topology-engine entries: the same ping workload on general graphs,
	// single-lane and sharded, at the two sizes the alloc pins cover.
	if *topology {
		for _, family := range []string{"cluster-d2", "wellconnected"} {
			for _, w := range []struct {
				name    string
				workers int
			}{{"seq", 1}, {"par", 0}} {
				for _, n := range []int{1024, 4096} {
					e, err := measureTopo(family, n, w.name, w.workers)
					if err != nil {
						return err
					}
					printEntry(stdout, e)
					rep.Entries = append(rep.Entries, e)
				}
			}
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *out == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			return err
		}
	}

	var failure error
	if *ratio > 0 {
		if err := checkRatio(stdout, rep, *ratio, *ratioN, rep.Host.NumCPU); err != nil {
			failure = err
		}
	}
	if *baseline != "" {
		if err := compare(stdout, rep, *baseline, *threshold, *allocThreshold, *allowCrossHost); err != nil {
			return err
		}
	}
	return failure
}

func printEntry(w io.Writer, e Entry) {
	fmt.Fprintf(w, "%-36s %12d ns/op %14.0f msgs/sec %10d B/op %6d allocs/op\n",
		e.Name, e.NsPerOp, e.MsgsPerSec, e.BytesPerOp, e.AllocsOp)
}

func contains(ns []int, n int) bool {
	for _, v := range ns {
		if v == n {
			return true
		}
	}
	return false
}

// errRegression marks a comparison that found at least one benchmark
// below the budget.
var errRegression = fmt.Errorf("benchjson: regression past threshold")

// checkRatio enforces the self-relative parallel-speedup gate: at node
// count ratioN, the parallel engine must beat sequential by at least the
// given factor. On hosts with fewer than 4 CPUs the gate is skipped — a
// sharded pipeline cannot outrun its own single lane without cores to
// run on, and CI pins this gate to >= 4-core runners.
func checkRatio(w io.Writer, rep Report, want float64, ratioN, numCPU int) error {
	if numCPU < 4 {
		fmt.Fprintf(w, "ratio gate skipped: %d CPUs (< 4), parallel speedup not measurable on this host\n", numCPU)
		return nil
	}
	var seq, par float64
	for _, e := range rep.Entries {
		if e.N != ratioN {
			continue
		}
		switch e.Mode {
		case "sequential":
			seq = e.MsgsPerSec
		case "parallel":
			par = e.MsgsPerSec
		}
	}
	if seq <= 0 || par <= 0 {
		return fmt.Errorf("benchjson: no sequential+parallel entries at n=%d for the ratio gate", ratioN)
	}
	got := par / seq
	if got < want {
		fmt.Fprintf(w, "ratio gate: parallel/sequential at n=%d is %.2fx, want >= %.2fx (FAIL)\n", ratioN, got, want)
		return errRegression
	}
	fmt.Fprintf(w, "ratio gate: parallel/sequential at n=%d is %.2fx (>= %.2fx, ok)\n", ratioN, got, want)
	return nil
}

// Absolute slack under which alloc growth is ignored: tiny baselines
// (tens of allocs, a few KB) would otherwise fail on fixed startup
// noise that a fractional threshold can't absorb.
const (
	allocSlack = 64
	bytesSlack = 1 << 14
)

func compare(w io.Writer, rep Report, path string, threshold, allocThreshold float64, allowCrossHost bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchjson: parse %s: %w", path, err)
	}
	if base.Schema < 2 {
		return fmt.Errorf("benchjson: %s is schema %d; regenerate with -out (schema 2 adds host provenance)", path, base.Schema)
	}
	if base.Host != rep.Host && !allowCrossHost {
		return fmt.Errorf("benchjson: baseline %s was measured on a different host (%+v, this host %+v); absolute throughput does not compare across machines — regenerate the baseline here or pass -allow-cross-host",
			path, base.Host, rep.Host)
	}
	byName := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	failed := false
	for _, e := range rep.Entries {
		b, ok := byName[e.Name]
		if !ok || b.MsgsPerSec <= 0 {
			fmt.Fprintf(w, "%-36s no baseline, skipped\n", e.Name)
			continue
		}
		ratio := e.MsgsPerSec / b.MsgsPerSec
		status := "ok"
		if ratio < 1-threshold {
			status = "REGRESSION"
			failed = true
		}
		if e.AllocsOp > b.AllocsOp+allocSlack && float64(e.AllocsOp) > float64(b.AllocsOp)*(1+allocThreshold) {
			status = "ALLOC REGRESSION"
			failed = true
		}
		if e.BytesPerOp > b.BytesPerOp+bytesSlack && float64(e.BytesPerOp) > float64(b.BytesPerOp)*(1+allocThreshold) {
			status = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-36s %6.2fx of baseline, allocs %d vs %d (%s)\n", e.Name, ratio, e.AllocsOp, b.AllocsOp, status)
	}
	if failed {
		return errRegression
	}
	return nil
}

// maxNSearch doubles n until a full rounds-round parallel run no longer
// fits the budget, and reports the largest n that did — the "max n per
// minute" headline in docs/PERF.md.
func maxNSearch(w io.Writer, budget time.Duration) error {
	best := 0
	for n := 1024; ; n *= 2 {
		machines := make([]netsim.Machine, n)
		for u := range machines {
			machines[u] = &pingMachine{}
		}
		eng, err := netsim.NewEngine(netsim.Config{N: n, Alpha: 1, Seed: 1, MaxRounds: rounds}, machines, nil)
		if err != nil {
			return err
		}
		eng.Mode = netsim.Parallel
		start := time.Now()
		if _, err := eng.Run(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "n=%-8d %d rounds in %v\n", n, rounds, elapsed.Round(time.Millisecond))
		if elapsed > budget {
			break
		}
		best = n
	}
	if best == 0 {
		fmt.Fprintf(w, "no n completed %d rounds within %v\n", rounds, budget)
		return nil
	}
	fmt.Fprintf(w, "max n within %v per %d-round run: %d\n", budget, rounds, best)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errRegression {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
