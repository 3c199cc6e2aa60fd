package simsvc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sublinear/internal/trace"
)

// TestTraceSpecNormalization pins the trace flag's cache semantics: it
// splits the key (a traced job is not the same work as an untraced
// one), and the protocols that cannot trace have it zeroed so it cannot
// split their cache.
func TestTraceSpecNormalization(t *testing.T) {
	base := JobSpec{Protocol: "election", N: 64, Alpha: 0.75, Seed: 1}
	traced := base
	traced.Trace = true
	a, err := base.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Error("trace flag does not split the cache key")
	}
	for _, proto := range []string{ProtoDST, ProtoExperiment} {
		spec := JobSpec{Protocol: proto, Seed: 1, Experiment: "E1", Trace: true}
		norm, err := spec.Normalize(DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		if norm.Trace {
			t.Errorf("%s: trace flag survived normalization", proto)
		}
	}
}

// TestRecordTracePicksFailedRep checks the traced-rep policy directly:
// with a raw series marking rep 1 failed, the recorded trace is rep 1's
// run — its header carries rep 1's seed — and it reads back as a
// verified witness.
func TestRecordTracePicksFailedRep(t *testing.T) {
	spec, err := JobSpec{Protocol: "election", N: 48, Alpha: 0.75, Seed: 9, Reps: 3, Trace: true, Raw: true}.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	res := &JobResult{
		Reps: 3, Success: 2,
		Raw: &RawSeries{Success: []bool{true, false, true}},
	}
	if err := recordTrace(spec, res); err != nil {
		t.Fatal(err)
	}
	if res.TraceRep != 1 {
		t.Errorf("TraceRep = %d, want 1 (first failed rep)", res.TraceRep)
	}
	hdr, _, _, err := trace.ReadAll(bytes.NewReader(res.traceData))
	if err != nil {
		t.Fatalf("recorded trace does not read back: %v", err)
	}
	if hdr.Seed != repSeed(spec, 1) {
		t.Errorf("trace seed %d, want rep 1's seed %d", hdr.Seed, repSeed(spec, 1))
	}
	if hdr.Label != "election" || hdr.N != 48 {
		t.Errorf("trace header %+v", hdr)
	}
}

// TestRunSpecTracesEveryProtocol runs one traced repetition of each
// run protocol — the core three and every Table-I baseline — through
// runSpec and requires a verified witness trace: the engines behind
// every protocol must all feed the recorder coherently.
func TestRunSpecTracesEveryProtocol(t *testing.T) {
	for _, proto := range Protocols() {
		if runnable(proto) == nil {
			continue
		}
		t.Run(proto, func(t *testing.T) {
			spec, err := JobSpec{Protocol: proto, N: 64, Alpha: 0.75, Seed: 11, Trace: true}.Normalize(DefaultLimits)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.traceData == nil {
				t.Fatal("no trace recorded")
			}
			if _, _, _, err := trace.ReadAll(bytes.NewReader(res.traceData)); err != nil {
				t.Fatalf("trace does not verify: %v", err)
			}
		})
	}
}

// TestTraceStoreEndToEnd drives the full loop over HTTP: submit a
// traced job, poll it, fetch the trace by the result's content address,
// check the address matches the bytes, and see the store surfaced in
// /metrics.
func TestTraceStoreEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	st, err := svc.Submit(JobSpec{Protocol: "agreement", N: 48, Alpha: 0.75, Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, ok := svc.Job(st.ID)
		return ok && (got.State == StateDone || got.State == StateFailed)
	})
	got, _ := svc.Job(st.ID)
	if got.State != StateDone {
		t.Fatalf("job %s: %s", got.State, got.Error)
	}
	if got.Result == nil || got.Result.TraceID == "" {
		t.Fatal("finished traced job has no TraceID")
	}

	resp, err := http.Get(srv.URL + "/v1/traces/" + got.Result.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d %s", resp.StatusCode, data)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != got.Result.TraceID {
		t.Error("fetched trace bytes do not hash to their content address")
	}
	if _, _, _, err := trace.ReadAll(bytes.NewReader(data)); err != nil {
		t.Fatalf("fetched trace does not verify: %v", err)
	}

	resp, err = http.Get(srv.URL + "/v1/traces/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"simd_trace_bytes_written_total",
		"simd_trace_store_entries 1",
		"simd_trace_store_bytes",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceStoreEviction pins the byte-cap contract: deposits are
// content-addressed and idempotent, the LRU evicts by bytes, and an
// entry larger than the whole store is never retained.
func TestTraceStoreEviction(t *testing.T) {
	ts := newTraceStore(100)
	blob := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }

	idA := ts.put(blob('a', 40))
	idB := ts.put(blob('b', 40))
	if again := ts.put(blob('a', 40)); again != idA {
		t.Error("identical deposit changed its content address")
	}
	if entries, resident, _ := ts.stats(); entries != 2 || resident != 80 {
		t.Fatalf("stats = (%d, %d), want (2, 80)", entries, resident)
	}

	// Touch A so B is the LRU victim of the next deposit.
	if _, ok := ts.get(idA); !ok {
		t.Fatal("A missing before eviction")
	}
	ts.put(blob('c', 40))
	if _, ok := ts.get(idB); ok {
		t.Error("LRU victim B survived")
	}
	if _, ok := ts.get(idA); !ok {
		t.Error("recently used A evicted")
	}

	big := ts.put(blob('d', 200))
	if big == "" {
		t.Error("oversized deposit has no content address")
	}
	if _, ok := ts.get(big); ok {
		t.Error("oversized deposit was retained")
	}
	// written counts every deposited byte — duplicates and oversized
	// included — so it measures trace production, not retention:
	// a, b, a again, c, d.
	if _, resident, written := ts.stats(); resident > 100 {
		t.Errorf("resident %d exceeds the 100-byte cap", resident)
	} else if written != 40*4+200 {
		t.Errorf("written = %d, want %d", written, 40*4+200)
	}
}

// TestTraceStoreConcurrentEvictionAndFetch hammers one content address
// from three sides at once — re-deposits of the same bytes, fetches of
// its id, and churn deposits sized to force LRU evictions through it —
// and checks the store's invariants survive: every successful fetch
// returns bytes that rehash to the requested id, the resident total
// never exceeds the cap, and the final accounting is consistent. Run
// under -race this is the store's concurrency contract: eviction of an
// entry and a fetch of the same hash must serialize cleanly.
func TestTraceStoreConcurrentEvictionAndFetch(t *testing.T) {
	const cap = 1 << 10
	ts := newTraceStore(cap)
	hot := bytes.Repeat([]byte{'h'}, 300)
	hotID := ts.put(hot)

	var wg sync.WaitGroup
	start := make(chan struct{})
	var fetched, missed atomic.Int64
	// Re-depositors keep resurrecting the hot entry after evictions.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 500; j++ {
				if id := ts.put(hot); id != hotID {
					t.Errorf("re-deposit changed the content address: %s", id)
					return
				}
			}
		}()
	}
	// Churners force evictions: each deposit is distinct and ~cap/3, so
	// a handful of them push the hot entry off the tail.
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			blob := bytes.Repeat([]byte{byte(i)}, cap/3)
			for j := 0; j < 500; j++ {
				blob[0] = byte(j)
				ts.put(blob)
			}
		}()
	}
	// Fetchers race both: whatever they observe must be self-consistent.
	// They re-deposit the hot entry themselves every few iterations —
	// on a single-CPU box the scheduler can otherwise run the other
	// goroutines to completion first and leave nothing but misses.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 1000; j++ {
				if j%8 == 0 {
					ts.put(hot)
				}
				data, ok := ts.get(hotID)
				if !ok {
					missed.Add(1) // evicted at this instant: legal
					continue
				}
				sum := sha256.Sum256(data)
				if hex.EncodeToString(sum[:]) != hotID {
					t.Errorf("fetch returned bytes that do not hash to their id")
					return
				}
				fetched.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if fetched.Load() == 0 {
		t.Error("no fetch ever succeeded — the race never exercised the hit path")
	}
	t.Logf("fetches: %d hits, %d eviction misses", fetched.Load(), missed.Load())
	entries, resident, written := ts.stats()
	if resident > cap {
		t.Fatalf("resident %d exceeds the %d-byte cap", resident, cap)
	}
	if entries == 0 || written == 0 {
		t.Fatalf("final stats implausible: entries=%d written=%d", entries, written)
	}
}
