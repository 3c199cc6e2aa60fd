package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sublinear/internal/rng"
	"sublinear/internal/simsvc"
)

// ErrShardsFailed is returned (wrapped) when at least one shard
// exhausted its retry budget on every willing worker. fleetctl maps it
// to exit status 2, mirroring the "failure found" convention of the
// other CLIs.
var ErrShardsFailed = errors.New("fleet: shards exhausted retries")

// Config parameterises a coordinator run. The zero value of any field
// selects its default.
type Config struct {
	// Workers are the simd base URLs ("http://host:port").
	Workers []string
	// JournalDir holds the resume journal; "" disables journaling.
	JournalDir string
	// RequestTimeout bounds one HTTP request (submit or poll); 0 means
	// 10s.
	RequestTimeout time.Duration
	// ShardTimeout bounds one shard attempt end to end — queueing,
	// execution, and polling on one worker; 0 means 2 minutes.
	ShardTimeout time.Duration
	// Poll is the job poll interval; 0 means 20ms.
	Poll time.Duration
	// HedgeAfter re-dispatches a shard still running after this long to
	// a second worker, first result wins; 0 means 10s, negative
	// disables hedging.
	HedgeAfter time.Duration
	// MaxAttempts is the per-shard failed-attempt budget; 0 means 4.
	// Hedges and backpressure waits do not consume attempts, only
	// attempts that ended in an error do.
	MaxAttempts int
	// MaxPerWorker caps concurrent shards per worker on top of the
	// capacity its healthz reports; 0 means 4.
	MaxPerWorker int
	// BreakerBase and BreakerMax bound the per-worker backoff window;
	// 0 means 100ms and 5s.
	BreakerBase, BreakerMax time.Duration
	// ProbeRetries and ProbeInterval control startup health probing;
	// 0 means 10 probes 100ms apart.
	ProbeRetries  int
	ProbeInterval time.Duration
	// Seed drives backoff jitter; runs are reproducible given the seed.
	Seed uint64
	// Progress receives human-oriented progress lines; nil discards.
	Progress func(format string, args ...any)
	// Resolve, when set, is the dynamic worker source (see ResolveMesh):
	// it is consulted for the initial worker set (merged with Workers)
	// and re-consulted every ResolveInterval while the run is live.
	// Workers it starts listing get dispatch slots mid-run after passing
	// the same health and digest-schema checks as the initial registry;
	// workers it stops listing have their slots cancelled and their
	// in-flight shards re-enqueued.
	Resolve func(ctx context.Context) ([]string, error)
	// ResolveInterval is how often Resolve is re-consulted; 0 means 2s.
	ResolveInterval time.Duration
	// OnShardEvent, when set, receives each dispatched shard's live
	// event stream (simsvc SSE: queued, running, per-repetition
	// progress, done). Callbacks arrive on watcher goroutines —
	// concurrently across shards — and are telemetry only; the dispatch
	// outcome comes from polling.
	OnShardEvent func(shard int, ev simsvc.JobEvent)

	// now and sleep are injectable for tests; nil means time.Now and a
	// timer-based wait.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.Poll <= 0 {
		c.Poll = 20 * time.Millisecond
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.MaxPerWorker <= 0 {
		c.MaxPerWorker = 4
	}
	if c.BreakerBase <= 0 {
		c.BreakerBase = 100 * time.Millisecond
	}
	if c.BreakerMax <= 0 {
		c.BreakerMax = 5 * time.Second
	}
	if c.ProbeRetries <= 0 {
		c.ProbeRetries = 10
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.ResolveInterval <= 0 {
		c.ResolveInterval = 2 * time.Second
	}
	if c.Progress == nil {
		c.Progress = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

// Divergence records a hedged shard whose duplicate attempts returned
// different results. Every engine is deterministic in the normalized
// spec, so honest workers cannot disagree; a divergence is evidence of
// a corrupt, miscompiled, or lying worker. When the plan was traced,
// the two trace content addresses let `tracectl diff` pinpoint the
// first event where the executions split.
type Divergence struct {
	// Shard is the divergent shard's plan index.
	Shard int
	// WinnerURL and LoserURL are the two workers that disagreed; the
	// winner's result is the one kept in Outcome.Results.
	WinnerURL, LoserURL string
	// WinnerTrace and LoserTrace are the results' trace content
	// addresses, "" when the shard was not traced.
	WinnerTrace, LoserTrace string
}

// Outcome summarises a coordinator run.
type Outcome struct {
	// Results maps shard index to result for every completed shard.
	Results map[int]*simsvc.JobResult
	// Sources maps shard index to the URL of the worker whose result
	// won. Shards restored from the journal are absent: the worker that
	// ran them belonged to an earlier coordinator.
	Sources map[int]string
	// Divergences lists hedge races whose duplicate results differed
	// (see Divergence). The run still completes — the first result is
	// kept — but each divergence is a worker-integrity alarm.
	Divergences []Divergence
	// Workers is the healthy registry the run started with.
	Workers []WorkerInfo
	// Resumed counts shards restored from the journal, Dispatched the
	// attempts started, Hedged the duplicate dispatches of stragglers,
	// and Retries the attempts that followed a failure.
	Resumed    int
	Dispatched int64
	Hedged     int64
	Retries    int64
	// FailedShards lists shards that exhausted their attempt budget.
	FailedShards []int
	// JournalPath is the resume journal, "" when journaling is off.
	JournalPath string
}

// task is the mutable dispatch state of one shard.
type task struct {
	shard Shard

	mu         sync.Mutex
	done       bool
	failed     bool
	result     *simsvc.JobResult
	winnerURL  string
	failures   int
	inflight   int
	hedged     bool
	startedAt  time.Time // earliest start of the current in-flight attempts
	lastErr    error
	cancels    map[int]context.CancelFunc
	nextCancel int
}

func (t *task) isDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// begin registers an attempt; it returns false when the task no longer
// needs one.
func (t *task) begin(now time.Time, cancel context.CancelFunc) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return 0, false
	}
	if t.inflight == 0 {
		t.startedAt = now
	}
	t.inflight++
	id := t.nextCancel
	t.nextCancel++
	t.cancels[id] = cancel
	return id, true
}

// end unregisters an attempt.
func (t *task) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight--
	delete(t.cancels, id)
}

// win records the first result and cancels every other in-flight
// attempt (the hedging loser is abandoned via its context). It reports
// whether this attempt won.
func (t *task) win(res *simsvc.JobResult, url string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	t.result = res
	t.winnerURL = url
	for _, cancel := range t.cancels {
		cancel()
	}
	return true
}

// winner returns the recorded winning result and its worker, or nil
// when the task has no winner (still running, or permanently failed).
func (t *task) winner() (*simsvc.JobResult, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done || t.failed {
		return nil, ""
	}
	return t.result, t.winnerURL
}

// fail marks the task permanently failed. It reports whether this call
// was the one that failed it.
func (t *task) fail(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	t.failed = true
	t.lastErr = err
	for _, cancel := range t.cancels {
		cancel()
	}
	return true
}

// recordFailure counts a failed attempt and reports whether the budget
// still allows a retry.
func (t *task) recordFailure(err error, budget int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures++
	t.lastErr = err
	return t.failures < budget
}

// shouldHedge reports whether the task has been running long enough,
// with no duplicate yet, to deserve a hedge; it marks the hedge.
func (t *task) shouldHedge(now time.Time, after time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.hedged || t.inflight == 0 {
		return false
	}
	if now.Sub(t.startedAt) < after {
		return false
	}
	t.hedged = true
	return true
}

// taskQueue is the coordinator's work queue: pushed tasks are popped in
// shard-index order by whichever worker slot frees up first.
type taskQueue struct {
	mu    sync.Mutex
	items []*task
	wake  chan struct{}
	quit  chan struct{}
}

func newTaskQueue() *taskQueue {
	return &taskQueue{wake: make(chan struct{}, 1), quit: make(chan struct{})}
}

func (q *taskQueue) push(t *task) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop blocks until a task, queue shutdown (nil), or ctx expiry (nil).
func (q *taskQueue) pop(ctx context.Context) *task {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			best := 0
			for i, t := range q.items {
				if t.shard.Index < q.items[best].shard.Index {
					best = i
				}
			}
			t := q.items[best]
			q.items = append(q.items[:best], q.items[best+1:]...)
			q.mu.Unlock()
			return t
		}
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-q.quit:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

func (q *taskQueue) close() { close(q.quit) }

// Run executes a plan over the configured workers and returns the
// completed results. It returns an error wrapping ErrShardsFailed when
// some shard exhausted its retries (the Outcome still carries every
// completed result), and ctx.Err() when cancelled mid-run (completed
// shards are already journaled and will be resumed by the next run).
func Run(ctx context.Context, cfg Config, plan *Plan) (*Outcome, error) {
	cfg = cfg.withDefaults()
	out := &Outcome{
		Results: make(map[int]*simsvc.JobResult),
		Sources: make(map[int]string),
	}

	urls := cfg.Workers
	if cfg.Resolve != nil {
		resolved, err := cfg.Resolve(ctx)
		switch {
		case err != nil && len(urls) == 0:
			return out, fmt.Errorf("fleet: initial mesh resolve: %w", err)
		case err != nil:
			cfg.Progress("fleet: initial mesh resolve failed, starting from -worker list: %v", err)
		default:
			urls = mergeURLs(urls, resolved)
		}
	}
	workers, err := probeWorkers(ctx, urls, cfg.ProbeRetries, cfg.ProbeInterval, cfg.sleep, cfg.Progress)
	if err != nil {
		return out, err
	}
	out.Workers = workers

	var journal *Journal
	if cfg.JournalDir != "" {
		j, done, err := OpenJournal(cfg.JournalDir, plan)
		if err != nil {
			return out, err
		}
		journal = j
		out.JournalPath = j.Path()
		defer journal.Close()
		for idx, res := range done {
			out.Results[idx] = res
		}
		out.Resumed = len(done)
		if out.Resumed > 0 {
			cfg.Progress("fleet: resumed %d/%d shards from %s", out.Resumed, len(plan.Shards), j.Path())
		}
	}

	queue := newTaskQueue()
	var tasks []*task
	for i := range plan.Shards {
		if _, ok := out.Results[plan.Shards[i].Index]; ok {
			continue
		}
		t := &task{shard: plan.Shards[i], cancels: make(map[int]context.CancelFunc)}
		tasks = append(tasks, t)
		queue.push(t)
	}
	if len(tasks) == 0 {
		return out, nil
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var (
		remaining = int64(len(tasks))
		finished  = make(chan struct{})
		finishOne = func() {
			if atomic.AddInt64(&remaining, -1) == 0 {
				close(finished)
			}
		}
		resMu sync.Mutex // guards out.Results/FailedShards from runner goroutines
		wg    sync.WaitGroup
	)

	c := &coordinator{
		cfg: cfg, plan: plan, queue: queue, journal: journal, out: out,
		resMu: &resMu, finishOne: finishOne,
		wg: &wg, runCtx: runCtx,
		schema:  workers[0].DigestSchema,
		runners: make(map[string]context.CancelFunc),
	}

	for _, w := range workers {
		c.startWorker(runCtx, w)
	}

	if cfg.HedgeAfter > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.hedgeMonitor(runCtx, tasks)
		}()
	}
	if cfg.Resolve != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.membership(runCtx)
		}()
	}

	select {
	case <-finished:
		cancelRun()
		queue.close()
		wg.Wait()
		if len(out.FailedShards) > 0 {
			return out, fmt.Errorf("%w: %d shard(s): %v", ErrShardsFailed, len(out.FailedShards), out.FailedShards)
		}
		return out, nil
	case <-ctx.Done():
		cancelRun()
		queue.close()
		wg.Wait()
		return out, ctx.Err()
	}
}

// coordinator carries the shared state the runner goroutines need.
type coordinator struct {
	cfg       Config
	plan      *Plan
	queue     *taskQueue
	journal   *Journal
	out       *Outcome
	resMu     *sync.Mutex
	finishOne func()

	// runCtx is the run-level context; a runner whose per-worker context
	// died distinguishes "my worker was evicted" from "the run is over"
	// by checking it.
	runCtx context.Context
	wg     *sync.WaitGroup
	// schema is the fleet's digest schema, fixed by the initial healthy
	// registry; mid-run joiners must match it.
	schema int

	workerMu  sync.Mutex
	workerSeq int
	runners   map[string]context.CancelFunc // live worker URL → its slots' cancel
}

// mergeURLs unions two worker URL lists, preserving first-seen order.
func mergeURLs(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, u := range append(append([]string(nil), a...), b...) {
		if u != "" && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// startWorker spins up the dispatch slots of one healthy worker: a
// breaker, a client, and Capacity-bounded runner goroutines under a
// per-worker context so membership changes can cancel just this worker.
// Called for the initial registry and again by the membership monitor
// for mid-run joiners; re-adding a live worker is a no-op.
func (c *coordinator) startWorker(ctx context.Context, w WorkerInfo) {
	workerCtx, cancel := context.WithCancel(ctx)
	c.workerMu.Lock()
	if _, live := c.runners[w.URL]; live {
		c.workerMu.Unlock()
		cancel()
		return
	}
	c.runners[w.URL] = cancel
	wi := c.workerSeq
	c.workerSeq++
	c.workerMu.Unlock()

	slots := w.Capacity
	if slots > c.cfg.MaxPerWorker {
		slots = c.cfg.MaxPerWorker
	}
	br := newBreaker(c.cfg.BreakerBase, c.cfg.BreakerMax, c.cfg.now,
		rng.New(c.cfg.Seed^0xf1ee7^uint64(wi)*0x9e3779b97f4a7c15).Float64)
	client := &Client{
		Base: w.URL,
		HTTP: &http.Client{Timeout: c.cfg.RequestTimeout},
		Poll: c.cfg.Poll,
	}
	for s := 0; s < slots; s++ {
		c.wg.Add(1)
		go func(w WorkerInfo) {
			defer c.wg.Done()
			c.runner(workerCtx, w, client, br)
		}(w)
	}
}

// stopWorker cancels a worker's dispatch slots. Their in-flight
// attempts fail on the cancelled context and re-enqueue their shards.
func (c *coordinator) stopWorker(url string) {
	c.workerMu.Lock()
	cancel, live := c.runners[url]
	delete(c.runners, url)
	c.workerMu.Unlock()
	if live {
		cancel()
	}
}

// membership is the coordinator's view-refresh loop: between dispatch
// waves it re-resolves the live worker set (the gossip mesh, via
// Config.Resolve), grants dispatch slots to joiners that pass the same
// health and digest-schema gate as the initial registry, and cancels
// the slots of workers the mesh no longer lists so queued shards stop
// routing to dead addresses.
func (c *coordinator) membership(ctx context.Context) {
	for {
		if c.cfg.sleep(ctx, c.cfg.ResolveInterval) != nil {
			return
		}
		urls, err := c.cfg.Resolve(ctx)
		if err != nil {
			if ctx.Err() == nil {
				c.cfg.Progress("fleet: mesh resolve failed: %v", err)
			}
			continue
		}
		live := make(map[string]bool, len(urls))
		for _, u := range urls {
			live[u] = true
		}
		c.workerMu.Lock()
		var gone []string
		for url := range c.runners {
			if !live[url] {
				gone = append(gone, url)
			}
		}
		c.workerMu.Unlock()
		for _, url := range gone {
			c.cfg.Progress("fleet: worker %s left the mesh; cancelling its slots", url)
			c.stopWorker(url)
		}
		for _, url := range urls {
			c.workerMu.Lock()
			_, known := c.runners[url]
			c.workerMu.Unlock()
			if known {
				continue
			}
			cl := &Client{Base: url, HTTP: &http.Client{Timeout: c.cfg.RequestTimeout}}
			info, err := cl.Health(ctx)
			if err != nil {
				c.cfg.Progress("fleet: mesh lists %s but healthz failed: %v", url, err)
				continue
			}
			if info.DigestSchema != c.schema {
				c.cfg.Progress("fleet: refusing joiner %s: digest schema %d, fleet runs %d",
					url, info.DigestSchema, c.schema)
				continue
			}
			capacity := info.Workers
			if capacity < 1 {
				capacity = 1
			}
			w := WorkerInfo{URL: url, Capacity: capacity, Version: info.Version, DigestSchema: info.DigestSchema}
			c.resMu.Lock()
			c.out.Workers = append(c.out.Workers, w)
			c.resMu.Unlock()
			c.cfg.Progress("fleet: worker %s joined mid-run (capacity=%d version=%s)", url, capacity, info.Version)
			c.startWorker(ctx, w)
		}
	}
}

// runner is one dispatch slot on one worker: it pulls tasks, waits out
// the worker's breaker, runs one shard attempt, and routes the outcome.
func (c *coordinator) runner(ctx context.Context, w WorkerInfo, client *Client, br *breaker) {
	for {
		// A tripped breaker rests the whole worker: every slot sleeps
		// here before pulling more work, so a dead worker neither spins
		// nor starves the queue (other workers keep draining it). Once
		// the window lapses the slot probes /healthz first; a failed
		// probe trips the breaker again, so a dead worker cannot burn
		// the attempt budget of every shard it pulls.
		for {
			d := br.remaining()
			if d <= 0 {
				if br.consecutiveFailures() == 0 {
					break
				}
				_, err := client.Health(ctx)
				if err == nil {
					break
				}
				if ctx.Err() == nil {
					c.cfg.Progress("fleet: health probe of %s failed: %v", w.URL, err)
				}
				br.failure()
				continue
			}
			if c.cfg.sleep(ctx, d) != nil {
				return
			}
		}
		t := c.queue.pop(ctx)
		if t == nil {
			return
		}
		if t.isDone() {
			continue
		}
		c.attempt(ctx, t, w, client, br)
		if ctx.Err() != nil {
			return
		}
	}
}

// attempt runs one shard attempt on one worker and routes its outcome:
// win, retry, or permanent failure.
func (c *coordinator) attempt(ctx context.Context, t *task, w WorkerInfo, client *Client, br *breaker) {
	attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	id, ok := t.begin(c.cfg.now(), cancel)
	if !ok {
		return
	}
	atomic.AddInt64(&c.out.Dispatched, 1)
	var onEvent func(simsvc.JobEvent)
	if c.cfg.OnShardEvent != nil {
		shard := t.shard.Index
		onEvent = func(ev simsvc.JobEvent) { c.cfg.OnShardEvent(shard, ev) }
	}
	res, err := client.RunShardEvents(attemptCtx, t.shard.Spec, onEvent)
	t.end(id)

	switch {
	case err == nil:
		if t.win(res, w.URL) {
			br.success()
			c.complete(t, res, w)
		} else if prior, priorURL := t.winner(); prior != nil && !resultsEqual(prior, res) {
			// A losing hedge result must be identical by determinism; a
			// mismatch means one of the two workers is corrupt or lying.
			// Keep the winner (either could be the bad one — the traces
			// settle it) and raise the alarm.
			c.recordDivergence(t.shard.Index, prior, priorURL, res, w.URL)
		}
	case t.isDone():
		// The attempt lost a hedge race or the run is shutting down; its
		// context was cancelled underneath it. Not the worker's fault.
	case IsPermanent(err):
		if t.fail(err) {
			c.failShard(t, err)
		}
	case ctx.Err() != nil:
		// This worker's slots were cancelled. If the run itself is still
		// live (mesh eviction, not shutdown), give the shard back to the
		// queue for the surviving workers; on run-level shutdown leave it.
		if c.runCtx.Err() == nil && !t.isDone() {
			c.queue.push(t)
		}
	default:
		br.failure()
		c.cfg.Progress("fleet: shard %d attempt failed on %s (streak %d): %v",
			t.shard.Index, w.URL, br.consecutiveFailures(), err)
		if t.recordFailure(err, c.cfg.MaxAttempts) {
			atomic.AddInt64(&c.out.Retries, 1)
			c.queue.push(t)
		} else if t.fail(err) {
			c.failShard(t, err)
		}
	}
}

func (c *coordinator) complete(t *task, res *simsvc.JobResult, w WorkerInfo) {
	if c.journal != nil {
		if err := c.journal.Record(t.shard.Index, res); err != nil {
			c.cfg.Progress("fleet: journal append failed for shard %d: %v", t.shard.Index, err)
		}
	}
	c.resMu.Lock()
	c.out.Results[t.shard.Index] = res
	c.out.Sources[t.shard.Index] = w.URL
	done := len(c.out.Results)
	c.resMu.Unlock()
	c.cfg.Progress("fleet: shard %d/%d done on %s", done, len(c.plan.Shards), w.URL)
	c.finishOne()
}

func (c *coordinator) recordDivergence(shard int, winner *simsvc.JobResult, winnerURL string, loser *simsvc.JobResult, loserURL string) {
	d := Divergence{
		Shard: shard, WinnerURL: winnerURL, LoserURL: loserURL,
		WinnerTrace: winner.TraceID, LoserTrace: loser.TraceID,
	}
	c.resMu.Lock()
	c.out.Divergences = append(c.out.Divergences, d)
	c.resMu.Unlock()
	c.cfg.Progress("fleet: shard %d HEDGE DIVERGENCE: %s and %s returned different results for one deterministic spec",
		shard, winnerURL, loserURL)
}

// resultsEqual compares two shard results over their canonical JSON
// form — the same encoding the journal persists — so any observable
// field, including the trace content address, participates.
func resultsEqual(a, b *simsvc.JobResult) bool {
	aj, err1 := json.Marshal(a)
	bj, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(aj, bj)
}

func (c *coordinator) failShard(t *task, err error) {
	c.resMu.Lock()
	c.out.FailedShards = append(c.out.FailedShards, t.shard.Index)
	c.resMu.Unlock()
	c.cfg.Progress("fleet: shard %d FAILED permanently: %v", t.shard.Index, err)
	c.finishOne()
}

// hedgeMonitor re-enqueues shards that have been in flight longer than
// HedgeAfter with no duplicate yet. The duplicate runs on whichever
// worker slot picks it up; the first result wins and the loser's
// context is cancelled by task.win.
func (c *coordinator) hedgeMonitor(ctx context.Context, tasks []*task) {
	tick := c.cfg.HedgeAfter / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	for {
		if c.cfg.sleep(ctx, tick) != nil {
			return
		}
		now := c.cfg.now()
		for _, t := range tasks {
			if t.shouldHedge(now, c.cfg.HedgeAfter) {
				atomic.AddInt64(&c.out.Hedged, 1)
				c.cfg.Progress("fleet: hedging straggler shard %d", t.shard.Index)
				c.queue.push(t)
			}
		}
	}
}
