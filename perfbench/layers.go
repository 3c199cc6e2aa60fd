package main

import (
	"fmt"
	"io"
	"time"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// This file holds the traced run's instruments. Both sit on the
// program's public hooks — netsim.Tracer and netsim.Adversary — so the
// program itself is measured unmodified.

// sampleEvery is the adversary-timing sampling period: one call in this
// many is timed and the rest extrapolated. A paper-sparse op makes about
// 11.6M CrashNow calls of a few nanoseconds each; two clock reads around
// every one would cost more than the calls themselves.
const sampleEvery = 64

// advCounter accumulates what a counting adversary forwarded.
type advCounter struct {
	crashNow, deliver, crashes int64
	calls, sampled             int64
	sampledTime                time.Duration
	// clockCost is what timing an empty span costs; it is taken off each
	// sample so the estimate prices the calls, not the clock reads.
	clockCost time.Duration
}

// calibrateClock returns the median cost of timing an empty span.
func calibrateClock() time.Duration {
	spans := make([]float64, 1001)
	for i := range spans {
		t0 := time.Now()
		spans[i] = float64(time.Since(t0))
	}
	return time.Duration(median(spans))
}

// timed reports whether the call being made is one of the sampled ones.
func (c *advCounter) timed() bool {
	c.calls++
	return c.calls%sampleEvery == 0
}

// observe adds one sampled call that started at t0.
func (c *advCounter) observe(t0 time.Time) {
	c.sampled++
	c.sampledTime += time.Since(t0)
}

// estimate extrapolates the sampled call time to every call.
func (c *advCounter) estimate() time.Duration {
	if c.sampled == 0 {
		return 0
	}
	net := max(c.sampledTime-time.Duration(c.sampled)*c.clockCost, 0)
	return time.Duration(float64(net) * float64(c.calls) / float64(c.sampled))
}

// countingAdversary forwards every netsim.Adversary call to inner,
// counting the calls and timing a sample of them.
type countingAdversary struct {
	inner netsim.Adversary
	c     *advCounter
}

func (a *countingAdversary) Faulty(node int) bool {
	if !a.c.timed() {
		return a.inner.Faulty(node)
	}
	t0 := time.Now()
	faulty := a.inner.Faulty(node)
	a.c.observe(t0)
	return faulty
}

func (a *countingAdversary) CrashNow(node, round int, outbox []netsim.Send) bool {
	a.c.crashNow++
	var crash bool
	if a.c.timed() {
		t0 := time.Now()
		crash = a.inner.CrashNow(node, round, outbox)
		a.c.observe(t0)
	} else {
		crash = a.inner.CrashNow(node, round, outbox)
	}
	if crash {
		a.c.crashes++
	}
	return crash
}

func (a *countingAdversary) DeliverOnCrash(node, round, msgIndex int, send netsim.Send) bool {
	a.c.deliver++
	if !a.c.timed() {
		return a.inner.DeliverOnCrash(node, round, msgIndex, send)
	}
	t0 := time.Now()
	deliver := a.inner.DeliverOnCrash(node, round, msgIndex, send)
	a.c.observe(t0)
	return deliver
}

// countingPlanner decorates an adversary that implements
// netsim.CrashPlanner. Forwarding NextCrashRound keeps the engine on its
// fused crash-free path, so the decorated run executes the same program
// as the bare one.
type countingPlanner struct {
	*countingAdversary
	planner netsim.CrashPlanner
}

func (p *countingPlanner) NextCrashRound(round int) int { return p.planner.NextCrashRound(round) }

// countAdversary wraps inner in the counting decorator, keeping
// netsim.CrashPlanner whenever inner implements it.
func countAdversary(inner netsim.Adversary, c *advCounter) netsim.Adversary {
	a := &countingAdversary{inner: inner, c: c}
	if p, ok := inner.(netsim.CrashPlanner); ok {
		return &countingPlanner{countingAdversary: a, planner: p}
	}
	return a
}

// layerTracer is the traced run's netsim.Tracer. It reads the clock once
// per round and at finish, and otherwise only counts, so round durations
// and the call → first round → finish → return split come from the hook
// alone.
type layerTracer struct {
	live       int // nodes not yet crashed
	rounds     int
	msgs       int64
	nodeRounds int64 // live nodes summed over rounds
	first      time.Time
	last       time.Time
	finish     time.Time
	roundDur   []time.Duration
	digest     uint64
	finished   bool
}

// reset prepares the tracer for a run of n nodes.
func (t *layerTracer) reset(n int) { *t = layerTracer{live: n} }

func (t *layerTracer) TraceRound(int) {
	now := time.Now()
	if t.first.IsZero() {
		t.first = now
	} else {
		t.roundDur = append(t.roundDur, now.Sub(t.last))
	}
	t.last = now
	t.nodeRounds += int64(t.live)
}

// TraceCrash counts the node out of later rounds; it stepped in this one.
func (t *layerTracer) TraceCrash(int, int) { t.live-- }

func (t *layerTracer) TraceMessage(int, int, int, metrics.Kind, int, bool) {}
func (t *layerTracer) TraceViolation(int, int, string)                     {}
func (t *layerTracer) TraceAnnotation(int, int, string)                    {}

func (t *layerTracer) TraceFinish(rounds int, messages, _ int64, digest uint64) {
	t.finish = time.Now()
	if !t.first.IsZero() {
		t.roundDur = append(t.roundDur, t.finish.Sub(t.last))
	}
	t.rounds, t.msgs, t.digest, t.finished = rounds, messages, digest, true
}

// engineTotals sums the traced runs of one engine layer.
type engineTotals struct {
	ops, rounds, nodeRounds, msgs int64
	loop                          time.Duration // first TraceRound → TraceFinish
	roundDur                      []time.Duration
}

// kindTotals sums whole-call time for one kind of run.
type kindTotals struct {
	calls int64
	time  time.Duration
}

// layerProbe gathers the traced pass's per-layer observations. A nil
// *layerProbe is the untraced pass: engineCall then hands the engine no
// tracer and wrap leaves the adversary bare.
type layerProbe struct {
	tr     layerTracer
	adv    advCounter
	engine map[string]*engineTotals // "netsim" (clique engines) or "topo" (CSR engine)
	kind   map[string]*kindTotals
	// prepare is call → first TraceRound; eval is TraceFinish → return.
	prepare, eval         time.Duration
	calls                 int64
	dstRef, dstDiff       time.Duration
	dstCases, dstFailures int64
}

func newLayerProbe() *layerProbe {
	return &layerProbe{
		adv:    advCounter{clockCost: calibrateClock()},
		engine: map[string]*engineTotals{"netsim": {}, "topo": {}},
		kind:   map[string]*kindTotals{},
	}
}

// wrap decorates adv with the counting adversary in the traced pass.
func (p *layerProbe) wrap(adv netsim.Adversary) netsim.Adversary {
	if p == nil {
		return adv
	}
	return countAdversary(adv, &p.adv)
}

// engineCall brackets one engine run on the given layer. Untraced it runs
// fn with no tracer. Traced it attaches the layer tracer, checks that the
// tracer saw the digest the run returned, and adds the run's rounds,
// messages and timing split to the layer totals.
func (p *layerProbe) engineCall(layer, kind string, n int, fn func(netsim.Tracer) (opResult, error)) (opResult, error) {
	if p == nil {
		return fn(nil)
	}
	p.tr.reset(n)
	start := time.Now()
	r, err := fn(&p.tr)
	end := time.Now()
	if err != nil {
		return r, err
	}
	t := &p.tr
	if !t.finished || t.digest != r.digest {
		return r, fmt.Errorf("tracer saw digest %#x (finished %t), the run returned %#x", t.digest, t.finished, r.digest)
	}
	e := p.engine[layer]
	e.ops++
	e.rounds += int64(t.rounds)
	e.nodeRounds += t.nodeRounds
	e.msgs += t.msgs
	e.loop += t.finish.Sub(t.first)
	e.roundDur = append(e.roundDur, t.roundDur...)
	p.prepare += t.first.Sub(start)
	p.eval += end.Sub(t.finish)
	p.calls++
	k := p.kind[kind]
	if k == nil {
		k = &kindTotals{}
		p.kind[kind] = k
	}
	k.calls++
	k.time += end.Sub(start)
	return r, nil
}

// report writes the probe's per-layer metrics into v; ops is the number
// of workload ops the traced pass ran.
func (p *layerProbe) report(v map[string]float64, ops int64, log io.Writer) {
	ns := p.engine["netsim"]
	v["netsim.rounds_per_op"] = perOp(float64(ns.rounds), ns.ops)
	v["netsim.node_rounds_per_op"] = perOp(float64(ns.nodeRounds), ns.ops)
	v["netsim.msgs_per_op"] = perOp(float64(ns.msgs), ns.ops)
	v["netsim.msgs_per_node_round"] = ratio(float64(ns.msgs), float64(ns.nodeRounds))
	v["netsim.loop_ms_per_op"] = perOp(ms(ns.loop), ns.ops)
	rounds := summarize(durations(ns.roundDur, us))
	fmt.Fprintf(log, "netsim round us: %s\n", rounds)
	v["netsim.round_us_p50"] = rounds.P50
	v["netsim.round_us_p99"] = rounds.Tail
	v["netsim.ns_per_node_round"] = ratio(float64(ns.loop), float64(ns.nodeRounds))
	v["netsim.ns_per_msg"] = ratio(float64(ns.loop), float64(ns.msgs))
	tp := p.engine["topo"]
	v["topo.ns_per_msg"] = ratio(float64(tp.loop), float64(tp.msgs))

	v["fault.crashnow_calls_per_op"] = perOp(float64(p.adv.crashNow), ops)
	v["fault.deliver_calls_per_op"] = perOp(float64(p.adv.deliver), ops)
	v["fault.crashes_per_op"] = perOp(float64(p.adv.crashes), ops)
	v["fault.adv_ms_per_op"] = perOp(ms(p.adv.estimate()), ops)

	v["core.prepare_ms_per_op"] = perOp(ms(p.prepare), p.calls)
	v["core.eval_ms_per_op"] = perOp(ms(p.eval), p.calls)
	for _, kind := range []string{"floodset", "wcelection", "d2election"} {
		if k := p.kind[kind]; k != nil {
			v["baseline."+kind+"_ms_per_op"] = perOp(ms(k.time), k.calls)
		}
	}

	v["dst.reference_ms_per_case"] = perOp(ms(p.dstRef), p.dstCases)
	v["dst.differential_ms_per_case"] = perOp(ms(p.dstDiff), p.dstCases)
	v["dst.differential_to_reference"] = ratio(float64(p.dstDiff), float64(p.dstRef))
	v["dst.failures"] = float64(p.dstFailures)
}
