package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sublinear"
	"sublinear/internal/baseline"
	"sublinear/internal/fault"
	"sublinear/internal/quota"
	"sublinear/internal/rng"
	"sublinear/internal/simsvc"
)

// The svc-backlog shape. Every job is a gossip run at n = 8: tiny, so
// admission, quota, journal fsync, events and encoding dominate and the
// engine does almost nothing.
const (
	svcBacklog    = 1024 // flood jobs accepted per cycle
	svcBatch      = 64   // specs per /v1/shards request
	svcHot        = 256  // hot-set specs, run once during set-up
	svcHotEvery   = 8    // every 8th flood spec repeats a hot-set spec: a cache hit
	svcQueue      = 320  // service queue bound: the flood share plus the probe share
	svcFloodQueue = 256  // below svcBacklog, so every cycle meets 429 backpressure
	svcSamples    = 4    // flood results per cycle compared with direct library runs
	// svcProbeEvery is the probe tenant's open-loop period: 100 probes a
	// second put ten samples beyond p99 within a 10 s stretch.
	svcProbeEvery = 10 * time.Millisecond
	svcPace       = 2 * time.Millisecond // wait before resubmitting after a 429
	svcPoll       = 2 * time.Millisecond // drain-poll period
	svcDrainLimit = 60 * time.Second

	floodTenant = "flood"
	probeTenant = "probe"
	gossipN     = 8
	gossipAlpha = 0.75
	hotSalt     = 0x5107
	probeSalt   = 0x9b0e
)

// Series read from /metrics.
const (
	msgSeries       = `simd_job_messages_sum{protocol="gossip"}`
	floodDoneSeries = `simd_tenant_jobs_completed_total{tenant="flood"}`
	floodFailSeries = `simd_tenant_jobs_failed_total{tenant="flood"}`
)

func gossipSpec(tenant string, seed uint64) simsvc.JobSpec {
	return simsvc.JobSpec{Tenant: tenant, Protocol: "gossip", N: gossipN, Alpha: gossipAlpha, Seed: seed}
}

func hotSpecs(seed uint64) []simsvc.JobSpec {
	specs := make([]simsvc.JobSpec, svcHot)
	for j := range specs {
		specs[j] = gossipSpec(floodTenant, deriveSeed(seed^hotSalt, j))
	}
	return specs
}

// cycleSpecs is cycle k's backlog: distinct seeds, except that every
// svcHotEvery-th spec repeats a hot-set spec.
func cycleSpecs(seed uint64, cycle int) []simsvc.JobSpec {
	specs := make([]simsvc.JobSpec, svcBacklog)
	for i := range specs {
		k := cycle*svcBacklog + i
		if i%svcHotEvery == svcHotEvery-1 {
			specs[i] = gossipSpec(floodTenant, deriveSeed(seed^hotSalt, (k/svcHotEvery)%svcHot))
		} else {
			specs[i] = gossipSpec(floodTenant, deriveSeed(seed, k))
		}
	}
	return specs
}

// svcHarness is one in-process service behind a loopback listener, with
// the benchmark's two client connections: flood and probe.
type svcHarness struct {
	dir    string
	svc    *simsvc.Service
	srv    *http.Server
	served chan struct{}
	base   string
	flood  *http.Client
	probe  *http.Client
}

// oneConnClient is an HTTP client held to a single connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// startService opens a journaled service in dir with the flood and probe
// tenants' quotas and serves it on a loopback port. One execution worker
// leaves the other CPU of a two-CPU machine to the HTTP side, which is
// what the workload measures; with two workers the same throughput came
// with twice the probe latency and three times its run-to-run spread.
func startService(dir string) (*svcHarness, error) {
	svc, err := simsvc.Open(simsvc.Config{
		Workers:     1,
		QueueSize:   svcQueue,
		JournalPath: filepath.Join(dir, "jobs.journal"),
		Quota: quota.Config{TotalQueued: svcQueue, Tenants: map[string]quota.Limits{
			floodTenant: {MaxQueued: svcFloodQueue, Weight: 1},
			probeTenant: {MaxQueued: svcQueue - svcFloodQueue, Weight: 8},
		}},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close(context.Background()) // the listen error is the one to report
		return nil, err
	}
	h := &svcHarness{
		dir: dir, svc: svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		flood:  oneConnClient(),
		probe:  oneConnClient(),
	}
	go func() {
		defer close(h.served)
		_ = h.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return h, nil
}

// close stops the listener and the service, waits for both, and removes
// the journal directory.
func (h *svcHarness) close() error {
	h.flood.CloseIdleConnections()
	h.probe.CloseIdleConnections()
	err := h.srv.Close()
	<-h.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cerr := h.svc.Close(ctx); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one request on c and decodes a JSON response into out. It
// reads the body to the end so the connection is reused.
func (h *svcHarness) do(c *http.Client, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: status %d: %w", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, nil
}

// scrape reads /metrics on the flood connection into a map from series
// (name plus labels) to value.
func (h *svcHarness) scrape() (map[string]float64, error) {
	resp, err := h.flood.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// waitDrained polls /metrics until the flood tenant has finished want
// jobs or svcDrainLimit has passed. It returns the last scrape and how
// many of the want jobs are still unfinished.
func (h *svcHarness) waitDrained(want int64) (map[string]float64, int64, error) {
	deadline := time.Now().Add(svcDrainLimit)
	for {
		m, err := h.scrape()
		if err != nil {
			return nil, 0, err
		}
		left := want - int64(m[floodDoneSeries]+m[floodFailSeries])
		if left <= 0 || time.Now().After(deadline) {
			return m, max(left, 0), nil
		}
		time.Sleep(svcPoll)
	}
}

// submitAll pushes specs through /v1/shards in svcBatch batches on the
// flood connection, resubmitting the backpressured remainder after
// svcPace until every spec is accepted, and returns the job IDs in spec
// order. Each request's round trip and each 429'd spec go into r when r
// is non-nil.
func (h *svcHarness) submitAll(specs []simsvc.JobSpec, r *svcRun) ([]string, error) {
	ids := make([]string, len(specs))
	for lo := 0; lo < len(specs); lo += svcBatch {
		var pending []int
		for i := lo; i < min(lo+svcBatch, len(specs)); i++ {
			pending = append(pending, i)
		}
		for len(pending) > 0 {
			batch := simsvc.ShardBatch{Specs: make([]simsvc.JobSpec, len(pending))}
			for k, i := range pending {
				batch.Specs[k] = specs[i]
			}
			body, err := json.Marshal(batch)
			if err != nil {
				return nil, err
			}
			var resp struct {
				Shards []simsvc.ShardSubmission `json:"shards"`
			}
			t0 := time.Now()
			code, err := h.do(h.flood, http.MethodPost, "/v1/shards", body, &resp)
			if r != nil {
				r.admit = append(r.admit, time.Since(t0))
			}
			if err != nil {
				return nil, err
			}
			if (code != http.StatusOK && code != http.StatusTooManyRequests) || len(resp.Shards) != len(pending) {
				return nil, fmt.Errorf("/v1/shards: status %d with %d outcomes for %d specs", code, len(resp.Shards), len(pending))
			}
			var retry []int
			for k, sub := range resp.Shards {
				switch {
				case sub.Status != nil:
					ids[pending[k]] = sub.Status.ID
				case sub.Retryable:
					retry = append(retry, pending[k])
				default:
					return nil, fmt.Errorf("flood spec rejected: %s", sub.Error)
				}
			}
			if r != nil {
				r.retries += int64(len(retry))
			}
			if pending = retry; len(pending) > 0 {
				time.Sleep(svcPace)
			}
		}
	}
	return ids, nil
}

// warm runs the hot set once, so every cycle's repeats of it are cache
// hits, and returns how many flood jobs have finished.
func (h *svcHarness) warm(seed uint64) (int64, error) {
	specs := hotSpecs(seed)
	if _, err := h.submitAll(specs, nil); err != nil {
		return 0, err
	}
	_, left, err := h.waitDrained(int64(len(specs)))
	if err != nil {
		return 0, err
	}
	if left > 0 {
		return 0, fmt.Errorf("hot set: %d of %d jobs unfinished after %v", left, len(specs), svcDrainLimit)
	}
	return int64(len(specs)), nil
}

// probeStats is what the probe tenant observed.
type probeStats struct {
	latency, queueWait, run, lateness []time.Duration
	failed                            int64
	problems                          []string
}

func (ps *probeStats) fail(err error) {
	ps.failed++
	if len(ps.problems) < 4 {
		ps.problems = append(ps.problems, err.Error())
	}
}

// probeOnce submits one probe job on the probe connection and follows
// its event stream to the terminal event. Latency counts from due, when
// the open-loop schedule wanted the probe sent; queue wait and run time
// are the gaps between the acknowledgement and the running and done
// events as this client receives them.
func (h *svcHarness) probeOnce(spec simsvc.JobSpec, due time.Time, ps *probeStats) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var st simsvc.JobStatus
	for {
		code, err := h.do(h.probe, http.MethodPost, "/v1/jobs", body, &st)
		if err != nil {
			return err
		}
		if code == http.StatusTooManyRequests {
			time.Sleep(svcPace)
			continue
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return fmt.Errorf("probe submit: status %d", code)
		}
		break
	}
	ack := time.Now()
	if st.State == simsvc.StateDone {
		ps.latency = append(ps.latency, ack.Sub(due))
		return nil
	}
	resp, err := h.probe.Get(h.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe %s events: status %d", st.ID, resp.StatusCode)
	}
	var running, done time.Time
	var last simsvc.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev simsvc.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("probe %s event: %w", st.ID, err)
		}
		if ev.Type == "running" {
			running = time.Now()
		}
		if ev.Terminal() {
			done, last = time.Now(), ev
			break
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // to EOF, so the connection is reused
	switch {
	case done.IsZero():
		return fmt.Errorf("probe %s: event stream ended before done", st.ID)
	case last.State != simsvc.StateDone:
		return fmt.Errorf("probe %s ended %s: %s", st.ID, last.State, last.Error)
	}
	ps.latency = append(ps.latency, done.Sub(due))
	if !running.IsZero() {
		ps.queueWait = append(ps.queueWait, running.Sub(ack))
		ps.run = append(ps.run, done.Sub(running))
	}
	return nil
}

// svcRun is what one measured stretch of svc-backlog observed.
type svcRun struct {
	jobs    int64         // flood jobs accepted in the cycles
	elapsed time.Duration // summed cycle time, first submit to last done
	// opRates and msgRates are each cycle's flood jobs and simulated
	// messages per second, first submit to last done.
	opRates, msgRates []float64
	admit             []time.Duration
	retries           int64
	probes            probeStats
	final             map[string]float64 // the last /metrics scrape
	journal           int64              // journal size in bytes at the end
}

// runCycles drives the flood tenant through backlog cycles until budget
// is spent (at least one cycle) while the probe tenant runs its open
// loop. finished is the flood tenant's finished-job count beforehand.
func (h *svcHarness) runCycles(seed uint64, budget time.Duration, finished int64, o *outcome) (*svcRun, error) {
	r := &svcRun{}
	start, err := h.scrape()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.probes.lateness = openLoop(ctx, realClock{}, svcProbeEvery, func(i int, due time.Time) {
			if err := h.probeOnce(gossipSpec(probeTenant, deriveSeed(seed^probeSalt, i)), due, &r.probes); err != nil {
				r.probes.fail(err)
			}
		})
	}()
	err = h.cycles(seed, budget, finished, start[msgSeries], r, o)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if failed := int64(r.final[floodFailSeries] - start[floodFailSeries]); failed > 0 {
		o.failed += failed
		o.problems = append(o.problems, fmt.Sprintf("%d flood jobs failed", failed))
	}
	o.attempted += r.jobs + int64(len(r.probes.latency)) + r.probes.failed
	o.failed += r.probes.failed
	o.problems = append(o.problems, r.probes.problems...)
	fi, err := os.Stat(filepath.Join(h.dir, "jobs.journal"))
	if err != nil {
		return nil, err
	}
	r.journal = fi.Size()
	return r, nil
}

// cycles runs the flood tenant's closed loop: submit a cycle's backlog,
// wait until all of it is done, check a sample of its results, repeat.
// msgs is the service's simulated-message count beforehand. A backlog
// that does not drain within svcDrainLimit ends the loop, its unfinished
// jobs counted as failed.
func (h *svcHarness) cycles(seed uint64, budget time.Duration, finished int64, msgs float64, r *svcRun, o *outcome) error {
	for cycle := 0; cycle == 0 || r.elapsed < budget; cycle++ {
		specs := cycleSpecs(seed, cycle)
		t0 := time.Now()
		ids, err := h.submitAll(specs, r)
		if err != nil {
			return err
		}
		finished += int64(len(specs))
		r.jobs += int64(len(specs))
		var left int64
		if r.final, left, err = h.waitDrained(finished); err != nil {
			return err
		}
		if left > 0 {
			o.failed += left
			o.problems = append(o.problems, fmt.Sprintf("cycle %d: %d flood jobs unfinished after %v", cycle, left, svcDrainLimit))
			return nil
		}
		dt := time.Since(t0)
		r.elapsed += dt
		r.opRates = append(r.opRates, float64(len(specs))/dt.Seconds())
		r.msgRates = append(r.msgRates, (r.final[msgSeries]-msgs)/dt.Seconds())
		msgs = r.final[msgSeries]
		if err := h.checkSample(specs, ids); err != nil {
			o.fail("cycle %d: %v", cycle, err)
		}
	}
	return nil
}

// checkSample fetches svcSamples of a cycle's flood results — never hot
// repeats — and compares each with a direct library run of the same
// spec.
func (h *svcHarness) checkSample(specs []simsvc.JobSpec, ids []string) error {
	for k := 0; k < svcSamples; k++ {
		i := k * (len(specs) / svcSamples)
		var st simsvc.JobStatus
		code, err := h.do(h.flood, http.MethodGet, "/v1/jobs/"+ids[i], nil, &st)
		if err != nil {
			return err
		}
		if code != http.StatusOK || st.State != simsvc.StateDone || st.Result == nil {
			return fmt.Errorf("job %s: status %d, state %q", ids[i], code, st.State)
		}
		want, err := directGossip(specs[i])
		if err != nil {
			return err
		}
		if err := sameResult(st.Result, want); err != nil {
			return fmt.Errorf("job %s (seed %d): %v", ids[i], specs[i].Seed, err)
		}
	}
	return nil
}

// directGossip runs a flood spec through the library the way the
// service's gossip runner does: inputs from RandomInputs at p = 0.5, a
// DropHalf random crash plan over 20 rounds with f = (1-alpha)n.
func directGossip(spec simsvc.JobSpec) (*baseline.Result, error) {
	n := spec.N
	f := int((1 - spec.Alpha) * float64(n))
	inputs := sublinear.RandomInputs(n, 0.5, spec.Seed^0xbeef)
	plan, err := fault.NewRandomPlan(n, f, 20, fault.DropHalf, rng.New(spec.Seed^0xadd5))
	if err != nil {
		return nil, err
	}
	return baseline.RunGossip(baseline.GossipConfig{N: n, Seed: spec.Seed}, inputs, plan)
}

// sameResult compares a one-repetition job result with a direct run.
func sameResult(got *simsvc.JobResult, want *baseline.Result) error {
	success := 0
	if want.Success {
		success = 1
	}
	switch {
	case got.Reps != 1 || got.Success != success:
		return fmt.Errorf("%d of %d reps succeeded, direct run success %t", got.Success, got.Reps, want.Success)
	case got.Messages.Mean != float64(want.Counters.Messages()):
		return fmt.Errorf("messages %v, direct run %d", got.Messages.Mean, want.Counters.Messages())
	case got.Bits.Mean != float64(want.Counters.Bits()):
		return fmt.Errorf("bits %v, direct run %d", got.Bits.Mean, want.Counters.Bits())
	case got.Rounds.Mean != float64(want.Rounds):
		return fmt.Errorf("rounds %v, direct run %d", got.Rounds.Mean, want.Rounds)
	}
	return nil
}

// runSvcBacklog runs svc-backlog: an in-process simsvc.Service with a
// journal and two quota tenants, served over loopback HTTP. Every figure
// is taken at the HTTP API, which an untraced run does too, so a traced
// run is the same single run reporting its per-layer figures.
func runSvcBacklog(cfg runConfig) (*outcome, error) {
	root := filepath.Join(".bench_build", fmt.Sprintf("perfbench-svc-%d", os.Getpid()))
	defer os.RemoveAll(root)
	var h *svcHarness
	defer func() {
		if h != nil {
			_ = h.close() // error path only; the success path checks close
		}
	}()

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if h != nil {
			err := h.close()
			if h = nil; err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if h, err = startService(filepath.Join(root, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	finished, err := h.warm(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setup := median(setups) + time.Since(t0).Seconds()

	o := newOutcome()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := h.runCycles(cfg.seed, cfg.seconds, finished, o)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	err = h.close()
	if h = nil; err != nil {
		o.fail("closing the service: %v", err)
	}
	v := o.values
	lat := summarize(durations(r.probes.latency, ms))
	fmt.Fprintf(cfg.log, "probe latency ms: %s\n", lat)
	fmt.Fprintf(cfg.log, "flood jobs/s over %d cycles: %s\n", len(r.opRates), summarize(r.opRates))
	if !cfg.traced {
		v["setup_s"] = setup
		v["ops_per_s"] = steadyRate(r.opRates)
		v["sim_msgs_per_s"] = steadyRate(r.msgRates)
		v["latency_p50_ms"] = lat.P50
		v["latency_p99_ms"] = lat.Tail
		v["peak_rss_mb"] = peakRSSMB()
		return o, nil
	}

	admit := summarize(durations(r.admit, ms))
	wait := summarize(durations(r.probes.queueWait, ms))
	runs := summarize(durations(r.probes.run, ms))
	late := summarize(durations(r.probes.lateness, ms))
	fmt.Fprintf(cfg.log, "admit ms: %s\nprobe queue wait ms: %s\nprobe run ms: %s\nprobe lateness ms: %s\n",
		admit, wait, runs, late)
	v["simsvc.admit_ms_p50"] = admit.P50
	v["simsvc.admit_ms_p99"] = admit.Tail
	v["simsvc.backpressure_retries_per_job"] = perOp(float64(r.retries), r.jobs)
	v["simsvc.queue_wait_ms_p50"] = wait.P50
	v["simsvc.queue_wait_ms_p99"] = wait.Tail
	v["simsvc.run_ms_p50"] = runs.P50
	hits, misses := r.final["simd_cache_hits_total"], r.final["simd_cache_misses_total"]
	v["simsvc.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["simsvc.journal_bytes_per_job"] = ratio(float64(r.journal), r.final["simd_jobs_submitted_total"])
	v["bench.probe_lateness_ms_p99"] = late.Tail
	v["go.alloc_bytes_per_op"] = perOp(float64(after.TotalAlloc-before.TotalAlloc), r.jobs)
	v["trace.overhead_frac"] = 0 // nothing is traced beyond what every run collects
	return o, nil
}
