package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sublinear/internal/experiment"
	"sublinear/internal/mc"
)

func TestNormalizeResolvesDefaultsAndKeys(t *testing.T) {
	a, err := JobSpec{Protocol: "Election", N: 128, Seed: 7}.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if a.Alpha != 0.5 || a.Policy != "half" || a.Engine != "seq" || a.Reps != 1 {
		t.Fatalf("defaults not resolved: %+v", a)
	}
	if a.F == nil || *a.F != 64 {
		t.Fatalf("f not derived: %v", a.F)
	}
	// A fully spelled-out version of the same job must share the key.
	f := 64
	b, err := JobSpec{Protocol: "election", N: 128, Alpha: 0.5, F: &f, POne: 0.5,
		Policy: "half", Engine: "seq", Seed: 7, Reps: 1}.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent specs got different keys:\n%+v\n%+v", a, b)
	}
	// A different seed must not share the key.
	c := a
	c.Seed = 8
	if a.Key() == c.Key() {
		t.Fatal("different seeds share a cache key")
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	bad := []JobSpec{
		{Protocol: "quantum", N: 64},
		{Protocol: "election", N: 1},
		{Protocol: "election", N: DefaultLimits.MaxN + 1},
		{Protocol: "election", N: 64, Reps: DefaultLimits.MaxReps + 1},
		{Protocol: "election", N: 64, Policy: "sometimes"},
		{Protocol: "election", N: 64, Engine: "tcp"},
		{Protocol: "election", N: 64, Alpha: 1.5},
		{Protocol: "experiment"},
	}
	for _, spec := range bad {
		if _, err := spec.Normalize(DefaultLimits); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestRunSpecCoversEveryProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protocol")
	}
	for _, proto := range []string{"election", "agreement", "minagree",
		"gk", "floodset", "gossip", "rotating", "allpairs", "kutten", "amp"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			spec := JobSpec{Protocol: proto, N: 64, Alpha: 0.75, Seed: 3, Reps: 2}
			norm, err := spec.Normalize(DefaultLimits)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSpec(context.Background(), norm)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reps != 2 || res.Messages.Mean <= 0 || res.Rounds.Mean <= 0 {
				t.Fatalf("degenerate result: %+v", res)
			}
		})
	}
}

// TestDSTJob runs the deterministic-simulation campaign job kind: the
// campaign over the real protocols must come back clean, irrelevant
// fields must not split the cache key, and the case budget rides on
// Reps.
func TestDSTJob(t *testing.T) {
	spec := JobSpec{Protocol: "dst", Seed: 11, Reps: 3}
	norm, err := spec.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Reps != 3 {
		t.Fatalf("reps = %d, want 3", norm.Reps)
	}
	// Same job with noise in campaign-irrelevant fields: one cache key.
	noisy, err := JobSpec{Protocol: "dst", Seed: 11, Reps: 3,
		N: 512, Alpha: 0.9, Policy: "all", Engine: "concurrent", Hunter: true}.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Key() != norm.Key() {
		t.Fatal("irrelevant fields split the dst cache key")
	}
	if _, err := (JobSpec{Protocol: "dst", Reps: -1}).Normalize(DefaultLimits); err == nil {
		t.Fatal("negative case budget accepted")
	}
	res, err := runSpec(context.Background(), norm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 3 || res.Success != 3 || len(res.Failures) != 0 {
		t.Fatalf("campaign over real protocols not clean: %+v", res)
	}
	// Defaulted case budget.
	def, err := (JobSpec{Protocol: "dst", Seed: 1}).Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if def.Reps != 25 {
		t.Fatalf("default case budget = %d, want 25", def.Reps)
	}
}

// TestMCJob runs the exhaustive model-checking job kind: a canary job
// must come back violating with a repro in Failures, a real system must
// verify clean, the same universe split into two [Lo, Hi) shards must
// sum its exact counts back to the unsharded run, and irrelevant fields
// must not split the cache key.
func TestMCJob(t *testing.T) {
	spec := JobSpec{Protocol: "mc", System: "canary", N: 4, Seed: 11}
	norm, err := spec.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if norm.F == nil || *norm.F != -1 || norm.Reps != 1 {
		t.Fatalf("mc normalization: %+v", norm)
	}
	noisy, err := JobSpec{Protocol: "mc", System: "canary", N: 4, Seed: 11,
		Policy: "all", Engine: "concurrent", Hunter: true, Raw: true}.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Key() != norm.Key() {
		t.Fatal("irrelevant fields split the mc cache key")
	}
	for _, bad := range []JobSpec{
		{Protocol: "mc", N: 4},                                             // no system
		{Protocol: "mc", System: "canary", N: 1},                           // n too small
		{Protocol: "mc", System: "canary", N: 4, Policies: "all,sideways"}, // bad palette
		{Protocol: "mc", System: "canary", N: 4, Lo: 5, Hi: 3},             // empty range
	} {
		if _, err := bad.Normalize(DefaultLimits); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
	res, err := runSpec(context.Background(), norm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success != 0 || res.MC == nil || res.MC.Stats.Violations == 0 {
		t.Fatalf("canary universe verified clean: %+v", res)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "repro=") {
		t.Fatalf("no replayable repro in failures: %v", res.Failures)
	}
	// Two shards of the same universe sum to the unsharded exact counts.
	mid := res.MC.Stats.Universe / 2
	var merged mc.Stats
	for _, r := range [][2]int64{{0, mid}, {mid, res.MC.Stats.Universe}} {
		shard := norm
		shard.Lo, shard.Hi = r[0], r[1]
		sres, err := runSpec(context.Background(), shard)
		if err != nil {
			t.Fatal(err)
		}
		merged.Add(sres.MC.Stats)
	}
	if merged.Scanned != res.MC.Stats.Scanned ||
		merged.SymSkipped != res.MC.Stats.SymSkipped ||
		merged.Violations != res.MC.Stats.Violations {
		t.Fatalf("sharded mc counts diverge: %+v vs %+v", merged, res.MC.Stats)
	}
	// A real protocol's bounded universe verifies clean.
	clean, err := (JobSpec{Protocol: "mc", System: "echo", N: 3, Seed: 7}).Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := runSpec(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Success != 1 || len(cres.Failures) != 0 {
		t.Fatalf("echo universe not clean: %+v", cres)
	}
}

// submit POSTs a spec and returns the decoded status and response.
func submit(t *testing.T, url string, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &st)
	return st, resp
}

// poll fetches a job until it leaves the queued/running states.
func poll(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestEndToEndHTTP is the acceptance flow: submit, poll to completion,
// resubmit the identical job, and verify it is served from the cache —
// observed both on the response and on the /metrics counters.
func TestEndToEndHTTP(t *testing.T) {
	svc := New(Config{Workers: 2, QueueSize: 8})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close(context.Background())

	spec := JobSpec{Protocol: "election", N: 128, Alpha: 0.75, Seed: 42, Reps: 3}
	st, resp := submit(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit returned %+v", st)
	}

	final := poll(t, srv.URL, st.ID)
	if final.State != StateDone || final.CacheHit {
		t.Fatalf("first run: %+v", final)
	}
	res := final.Result
	if res == nil || res.Reps != 3 || res.Messages.Mean <= 0 || res.SuccessRate <= 0 {
		t.Fatalf("first result: %+v", res)
	}
	if res.CIHigh <= res.CILow {
		t.Fatalf("Wilson interval degenerate: %+v", res)
	}

	// Identical resubmission: answered from the cache, immediately done,
	// byte-identical result.
	st2, resp2 := submit(t, srv.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("cached submit: %+v", st2)
	}
	if st2.Result.Messages.Mean != res.Messages.Mean || st2.Result.Success != res.Success {
		t.Fatalf("cached result diverges: %+v vs %+v", st2.Result, res)
	}

	mtext := metricsText(t, srv.URL)
	for _, want := range []string{
		"simd_cache_hits_total 1",
		"simd_cache_misses_total 1",
		"simd_jobs_completed_total 2",
		"simd_jobs_submitted_total 2",
		`simd_job_messages_count{protocol="election"} 1`,
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("/metrics missing %q\n%s", want, mtext)
		}
	}

	// A different seed is a different job: it must miss.
	spec.Seed = 43
	st3, _ := submit(t, srv.URL, spec)
	if st3.CacheHit {
		t.Fatal("different seed served from cache")
	}
	poll(t, srv.URL, st3.ID)

	// Health is OK while serving.
	resp4, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp4.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp4)
	}
	resp4.Body.Close()
}

// TestExperimentJobsShareRegistry registers a synthetic experiment and
// runs it through the service, proving simd dispatches through the same
// table as cmd/experiments.
func TestExperimentJobsShareRegistry(t *testing.T) {
	experiment.Register(experiment.Runner{
		ID: "E99", Title: "synthetic registry probe",
		Run: func(cfg experiment.Config) (*experiment.Report, error) {
			rep := &experiment.Report{ID: "E99", Title: "synthetic registry probe"}
			tbl := experiment.NewTable("probe", "quick", "seedbase")
			tbl.AddRow(cfg.Quick, cfg.SeedBase)
			rep.Tables = append(rep.Tables, tbl)
			return rep, nil
		},
	})
	svc := New(Config{Workers: 1, QueueSize: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close(context.Background())

	st, resp := submit(t, srv.URL, JobSpec{Protocol: "experiment", Experiment: "E99", Quick: true, Seed: 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	final := poll(t, srv.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("experiment job failed: %+v", final)
	}
	if !strings.Contains(final.Result.Report, "E99") || !strings.Contains(final.Result.Report, "true") {
		t.Fatalf("report missing content:\n%s", final.Result.Report)
	}

	// Unknown experiment IDs fail the job, not the daemon.
	st2, _ := submit(t, srv.URL, JobSpec{Protocol: "experiment", Experiment: "E0", Seed: 5})
	if final2 := poll(t, srv.URL, st2.ID); final2.State != StateFailed {
		t.Fatalf("unknown experiment not failed: %+v", final2)
	}
}

func TestHTTPValidation(t *testing.T) {
	svc := New(Config{Workers: 1, QueueSize: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close(context.Background())

	// Malformed JSON and unknown fields are 400.
	for _, body := range []string{"{not json", `{"protocol":"election","n":64,"bogus":1}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
		}
	}
	// Unknown job IDs are 404.
	resp, err := http.Get(srv.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	// pprof is mounted.
	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof: status %d", resp.StatusCode)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	r := &JobResult{Reps: 1}
	c.put("a", r)
	c.put("b", r)
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being MRU")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func ExampleJobSpec_Key() {
	a, _ := JobSpec{Protocol: "election", N: 1024, Seed: 1}.Normalize(DefaultLimits)
	b, _ := JobSpec{Protocol: "ELECTION", N: 1024, Seed: 1, Reps: 1}.Normalize(DefaultLimits)
	fmt.Println(a.Key() == b.Key())
	// Output: true
}
