package netsim

// The sharded delivery pipeline. Phase 2 of a round — port validation,
// CONGEST enforcement, accounting, digesting, and inbox placement — used
// to run message-by-message on the coordination thread; the first
// sharded rebuild fanned that work over sender shards but still paid
// three full barriers per round (step, senders, scatter) and kept one
// independently grown inbox slice per node. This file is the second
// rebuild: struct-of-arrays inboxes, double-buffered routing buckets,
// and a fused single-barrier round path.
//
// Round structure (all orchestrated from Engine.Run):
//
//   - Delivery (receiver shards, worker pool): each shard drains every
//     sender shard's bucket from the previous round — in ascending
//     sender-shard order, so each inbox sees deliveries in exactly the
//     order the old per-node slices accumulated — through a stable
//     counting sort into the shard's contiguous SoA inbox (inbox.go).
//   - Step (same shards): each shard steps its live machines against
//     the freshly built inbox slices and records the outboxes.
//   - Crash pass (coordination thread, ascending node order): crash
//     decisions. The adversary interface is stateful and
//     order-sensitive, so CrashNow/DeliverOnCrash calls never move off
//     the coordination thread and never reorder. When the adversary
//     proves no crash can fire this round (CrashPlanner window, or no
//     live faulty node remains), this pass is skipped entirely and the
//     delivery, step, and send stages fuse into ONE worker dispatch —
//     one barrier per round instead of three.
//   - Send (sender shards, worker pool): validation, accounting into
//     flat per-worker counters, per-sender lane digests, and routing of
//     deliveries into per-(sender-shard, receiver-shard) buckets for
//     the next round's delivery stage. Buckets are double-buffered by
//     round parity so the fused path can fill this round's generation
//     while shards are still draining the previous one.
//   - Merge (coordination thread, ascending node order): per-worker
//     counters and violations merge, and crash events plus per-sender
//     lane digests fold into the run digest. Everything order-sensitive
//     happens here, which is the determinism argument: the run digest
//     is a pure function of per-sender lanes folded in node order, and
//     each lane is a pure function of one sender's outbox.
//
// The wiring is the one varying piece: a validated port resolves to its
// peer by the complete network's arithmetic when Config.Ports is nil, or
// through the compiled CSR port table otherwise (see processSender), and
// the valid port range of node u is 1..Degree(u). Everything else —
// stages, barriers, folds, and event order — is shared, so a general
// graph runs on exactly the code path the clique does.
//
// All buffers (buckets, inbox arenas, bitsets, lane arrays, crash
// masks, flat counters) are allocated once per Run — pre-sized from the
// Config and the interned-kind registry — and recycled, so the
// steady-state round loop performs no allocations at any n.

import (
	"fmt"
	"sync"

	"sublinear/internal/metrics"
)

// routed is a delivery annotated with its receiver, parked in a bucket
// between the send stage of one round and the delivery stage of the
// next.
type routed struct {
	to int32
	d  Delivery
}

// Buffered trace-event ops (pipeline-internal; the Tracer interface sees
// typed method calls).
const (
	tevSend uint8 = iota
	tevDrop
	tevViolation
)

// tev is one trace event parked in a sender's buffer between the send
// stage (workers) and the merge (coordination thread). Like lane
// digests, the per-sender buffers are written only by the worker that
// owns the sender's shard and read only after the barrier, so they need
// no locking and recycle across rounds.
type tev struct {
	op     uint8
	port   int32
	bits   int32
	kind   metrics.Kind
	reason string // tevViolation only
}

// delivWorker is one worker's private slice of pipeline state. Nothing
// here is touched by any other goroutine between barriers.
type delivWorker struct {
	messages int64
	bits     int64
	perKind  []int64  // flat tallies indexed by metrics.Kind
	portSeen []uint64 // duplicate-port bitset, cleared after each sender
	// buckets[g][rs] holds deliveries routed to receiver shard rs during
	// a round of parity g. Two generations, because in the fused path the
	// delivery stage of round r drains generation (r-1)&1 while the send
	// stage of the same dispatch fills generation r&1.
	buckets    [2][][]routed
	violations []Violation
	err        error // first strict-mode violation; aborts the run
	inFlight   bool  // some sender in this shard produced a nonempty outbox
}

// violate records a CONGEST violation: an error in strict mode (stored,
// surfaced at the barrier), a record otherwise. It reports whether
// processing may continue.
func (wk *delivWorker) violate(strict bool, node, round int, reason string) bool {
	if strict {
		wk.err = fmt.Errorf("netsim: node %d round %d: %s", node, round, reason)
		return false
	}
	wk.violations = append(wk.violations, Violation{Node: node, Round: round, Reason: reason})
	return true
}

func (wk *delivWorker) count(k metrics.Kind, bits int) {
	wk.messages++
	wk.bits += int64(bits)
	if int(k) >= len(wk.perKind) {
		grown := make([]int64, max(int(k)+1, metrics.KindCount()))
		copy(grown, wk.perKind)
		wk.perKind = grown
	}
	wk.perKind[k]++
}

// pipeline executes the delivery/step/send stages for every round of one
// Run and owns all round-recycled state: SoA inboxes, outboxes, routing
// buckets, lanes, and crash masks.
type pipeline struct {
	e     *Engine
	w     int  // shard / worker count
	chunk int  // nodes per shard; a power of two, so routing is a shift
	shift uint // log2(chunk)

	workers  []delivWorker
	inbox    []shardInbox // one SoA inbox per receiver shard
	outboxes [][]Send
	lane     []uint64 // per-sender lane digest; 0 = no events this round
	crashing []bool   // per-sender: crashed this round; cleared by merge
	faulty   []bool   // adversary's static faulty set, cached once per Run
	keep     [][]bool // crash-round delivery masks, indexed by sender
	tevs     [][]tev  // per-sender trace-event buffers; nil when untraced
	pool     *shardPool

	// Per-dispatch inputs, set on the coordination thread before the
	// pass barrier releases the workers.
	round int
	gen   int // bucket generation the send stage fills: round & 1
}

// passID selects the work a dispatched shard performs.
type passID int

const (
	// passFused runs delivery, step, and send back to back in one
	// dispatch — the single-barrier path for crash-free rounds.
	passFused passID = iota
	// passDeliverStep runs delivery and step, then returns to the
	// coordination thread for crash decisions before passSenders.
	passDeliverStep
	// passSenders runs the send stage after crash decisions.
	passSenders
)

func newPipeline(e *Engine, w int) *pipeline {
	n := e.cfg.N
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	// Round the shard size up to a power of two: the send stage routes
	// every message with a shift instead of an integer division, and the
	// slight imbalance this can leave in the last shard is noise next to
	// a per-message div. Digests are shard-geometry-independent (see
	// buildInbox), so this is invisible in every observable.
	chunk := 1
	shift := uint(0)
	for chunk*w < n {
		chunk <<= 1
		shift++
	}
	w = (n + chunk - 1) / chunk // drop empty tail shards
	p := &pipeline{
		e:        e,
		w:        w,
		chunk:    chunk,
		shift:    shift,
		workers:  make([]delivWorker, w),
		inbox:    make([]shardInbox, w),
		outboxes: make([][]Send, n),
		lane:     make([]uint64, n),
		crashing: make([]bool, n),
		faulty:   make([]bool, n),
		keep:     make([][]bool, n),
	}
	maxPort := n - 1
	if e.cfg.Ports != nil {
		maxPort = e.cfg.Ports.maxDeg
	}
	words := maxPort>>6 + 1 // duplicate-port bitset covers ports 0..maxPort
	kinds := metrics.KindCount()
	for i := range p.workers {
		p.workers[i].portSeen = make([]uint64, words)
		p.workers[i].perKind = make([]int64, kinds)
		p.workers[i].buckets[0] = make([][]routed, w)
		p.workers[i].buckets[1] = make([][]routed, w)
	}
	for s := range p.inbox {
		lo := s * chunk
		p.inbox[s] = newShardInbox(lo, min(lo+chunk, n))
	}
	if e.cfg.Tracer != nil {
		p.tevs = make([][]tev, n)
	}
	if w > 1 {
		p.pool = newShardPool(w)
	}
	return p
}

func (p *pipeline) close() {
	if p.pool != nil {
		p.pool.close()
	}
}

// fusedRound runs a crash-free round in a single dispatch: every shard
// delivers, steps, and processes sends without re-synchronizing.
func (p *pipeline) fusedRound(round int) {
	p.round = round
	p.gen = round & 1
	p.dispatch(passFused)
}

// deliverStep runs the delivery and step stages of a round that may
// crash, leaving the outboxes ready for the coordination thread's crash
// pass.
func (p *pipeline) deliverStep(round int) {
	p.round = round
	p.gen = round & 1
	p.dispatch(passDeliverStep)
}

// senders runs the send stage after crash decisions.
func (p *pipeline) senders(round int) {
	p.dispatch(passSenders)
}

// crashPass consults the adversary for this round's crash decisions, on
// the coordination thread in ascending node order — the exact call
// sequence stateful adversaries observed under the original sequential
// engine. It returns the number of nodes that crashed.
func (p *pipeline) crashPass(round int) int {
	e := p.e
	n := e.cfg.N
	crashes := 0
	for u := 0; u < n; u++ {
		outbox := p.outboxes[u]
		if outbox == nil {
			continue // crashed in an earlier round
		}
		if e.crashedAt[u] == 0 && p.faulty[u] && e.adv.CrashNow(u, round, outbox) {
			p.crashing[u] = true
			e.crashedAt[u] = round
			crashes++
			mask := p.keep[u]
			if cap(mask) < len(outbox) {
				mask = make([]bool, len(outbox))
			} else {
				mask = mask[:len(outbox)]
			}
			deg := e.cfg.degree(u)
			for i, s := range outbox {
				// Out-of-range ports never reach the adversary, matching
				// the original engine's call set.
				mask[i] = s.Port >= 1 && s.Port <= deg && e.adv.DeliverOnCrash(u, round, i, s)
			}
			p.keep[u] = mask
		}
	}
	return crashes
}

// merge is the deterministic round barrier on the coordination thread:
// strict-mode errors surface first — the lowest-numbered worker holds
// the violation with the smallest (sender, message) position, matching
// the original engine's abort — then per-worker counters and violations
// fold in worker order, and crash events plus per-sender lanes fold
// into the run digest in ascending node order. It reports whether any
// sender had messages in flight this round.
func (p *pipeline) merge(round int) (bool, error) {
	e := p.e
	n := e.cfg.N
	for i := range p.workers {
		if err := p.workers[i].err; err != nil {
			return false, err
		}
	}
	inFlight := false
	for i := range p.workers {
		wk := &p.workers[i]
		if wk.inFlight {
			inFlight = true
			wk.inFlight = false
		}
		e.counters.AddBulk(wk.messages, wk.bits, wk.perKind)
		wk.messages, wk.bits = 0, 0
		for k := range wk.perKind {
			wk.perKind[k] = 0
		}
		if len(wk.violations) > 0 {
			e.violations = append(e.violations, wk.violations...)
			wk.violations = wk.violations[:0]
		}
	}
	tracer := e.cfg.Tracer
	for u := 0; u < n; u++ {
		if p.crashing[u] {
			e.digest.words(digestCrash, uint64(u), uint64(round))
		}
		if h := p.lane[u]; h != 0 {
			e.digest.word(digestLane | uint64(u)<<8)
			e.digest.word(h)
			p.lane[u] = 0
		}
		if tracer != nil {
			// Emit the node's buffered events in the digest fold order:
			// crash first, then messages/violations in outbox order, then
			// annotations. This sweep is the determinism argument for
			// traces: event order is a pure function of per-sender buffers
			// visited in ascending node order, independent of worker count.
			if p.crashing[u] {
				tracer.TraceCrash(u, round)
			}
			buf := p.tevs[u]
			for i := range buf {
				ev := &buf[i]
				if ev.op == tevViolation {
					tracer.TraceViolation(u, round, ev.reason)
				} else {
					tracer.TraceMessage(u, round, int(ev.port), ev.kind, int(ev.bits), ev.op == tevDrop)
				}
				ev.reason = "" // release, the buffer recycles
			}
			p.tevs[u] = buf[:0]
			if env := e.envs[u]; len(env.annot) > 0 {
				for _, a := range env.annot {
					tracer.TraceAnnotation(u, round, a)
				}
				env.annot = env.annot[:0]
			}
		}
		p.crashing[u] = false
	}
	return inFlight, nil
}

// dispatch runs one pass across every shard and waits for the barrier.
// With a single shard the pass runs inline on the coordination thread.
func (p *pipeline) dispatch(pass passID) {
	if p.pool == nil {
		p.runShard(0, pass)
		return
	}
	p.pool.run(func(shard int) { p.runShard(shard, pass) })
}

func (p *pipeline) runShard(shard int, pass passID) {
	lo := shard * p.chunk
	hi := min(lo+p.chunk, p.e.cfg.N)
	switch pass {
	case passFused:
		p.buildInbox(shard)
		p.stepShard(shard, lo, hi)
		p.sendShard(shard, lo, hi)
	case passDeliverStep:
		p.buildInbox(shard)
		p.stepShard(shard, lo, hi)
	case passSenders:
		p.sendShard(shard, lo, hi)
	}
}

// buildInbox assembles receiver shard s's SoA inbox for the current
// round from the previous round's routing buckets: a stable two-pass
// counting sort by receiver. Sender shards are visited in ascending
// order and each bucket holds deliveries in ascending (sender, outbox
// index) order, so every inbox receives exactly the delivery order the
// per-node slices used to accumulate — independent of worker count.
func (p *pipeline) buildInbox(s int) {
	ib := &p.inbox[s]
	prev := p.gen ^ 1
	total := 0
	for b := range p.workers {
		total += len(p.workers[b].buckets[prev][s])
	}
	if total == 0 && !ib.dirty {
		return // offsets are already all zero: every inbox slice is empty
	}
	cur := ib.cur
	for i := range cur {
		cur[i] = 0
	}
	for b := range p.workers {
		for _, r := range p.workers[b].buckets[prev][s] {
			cur[r.to-int32(ib.lo)]++
		}
	}
	off := ib.off
	var sum int32
	for i, c := range cur {
		off[i] = sum
		cur[i] = sum
		sum += c
	}
	off[len(ib.cur)] = sum
	ib.buf = growDeliveries(ib.buf, total)
	for b := range p.workers {
		bucket := p.workers[b].buckets[prev][s]
		for _, r := range bucket {
			l := r.to - int32(ib.lo)
			ib.buf[cur[l]] = r.d
			cur[l]++
		}
		p.workers[b].buckets[prev][s] = bucket[:0]
	}
	ib.dirty = total > 0
}

// stepShard steps every live machine in [lo, hi) against the freshly
// built inbox slices and records the outboxes.
func (p *pipeline) stepShard(shard, lo, hi int) {
	wk := &p.workers[shard]
	ib := &p.inbox[shard]
	for u := lo; u < hi; u++ {
		out := p.e.stepOne(u, p.round, ib.slice(u))
		p.outboxes[u] = out
		if len(out) > 0 {
			wk.inFlight = true
		}
	}
}

// sendShard processes every sender in [lo, hi) with a nonempty outbox.
func (p *pipeline) sendShard(shard, lo, hi int) {
	wk := &p.workers[shard]
	for u := lo; u < hi; u++ {
		if outbox := p.outboxes[u]; len(outbox) > 0 {
			p.processSender(wk, u, outbox)
			if wk.err != nil {
				return
			}
		}
	}
}

// processSender validates, accounts, digests and routes one sender's
// round outbox. It runs on whichever worker owns the sender's shard and
// touches only that worker's private state plus lane[u].
func (p *pipeline) processSender(wk *delivWorker, u int, outbox []Send) {
	e := p.e
	n := e.cfg.N
	deg := e.cfg.degree(u)
	ports := e.cfg.Ports
	var base int32
	if ports != nil {
		base = ports.row[u]
	}
	round := p.round
	crashing := p.crashing[u]
	var keep []bool
	if crashing {
		keep = p.keep[u]
	}
	checkDup := len(outbox) > 1
	traced := p.tevs != nil
	buckets := wk.buckets[p.gen]
	lane := laneInit()
	events := 0
	for i, s := range outbox {
		if s.Port < 1 || s.Port > deg {
			reason := fmt.Sprintf("port %d out of range", s.Port)
			if traced {
				p.tevs[u] = append(p.tevs[u], tev{op: tevViolation, port: int32(s.Port), reason: reason})
			}
			if !wk.violate(e.cfg.Strict, u, round, reason) {
				return
			}
			continue
		}
		if checkDup {
			word, bit := uint(s.Port)>>6, uint64(1)<<(uint(s.Port)&63)
			if wk.portSeen[word]&bit != 0 {
				reason := fmt.Sprintf("two messages on port %d in one round", s.Port)
				if traced {
					p.tevs[u] = append(p.tevs[u], tev{op: tevViolation, port: int32(s.Port), reason: reason})
				}
				if !wk.violate(e.cfg.Strict, u, round, reason) {
					return
				}
			}
			wk.portSeen[word] |= bit
		}
		sz := s.Payload.Bits(n)
		if sz > e.bitBudget {
			reason := fmt.Sprintf("payload %q is %d bits, budget %d", s.Payload.Kind(), sz, e.bitBudget)
			if traced {
				p.tevs[u] = append(p.tevs[u], tev{op: tevViolation, port: int32(s.Port), reason: reason})
			}
			if !wk.violate(e.cfg.Strict, u, round, reason) {
				return
			}
		}
		// A message is "sent" (and counts toward message complexity) even
		// if the sender crashes mid-round and the message is lost: the
		// paper counts messages sent by all nodes.
		kid := PayloadKindID(s.Payload)
		wk.count(kid, sz)

		if crashing && !keep[i] {
			lane = laneEvent(lane, digestDrop, s.Port, sz, metrics.KindHash(kid))
			events++
			if traced {
				p.tevs[u] = append(p.tevs[u], tev{op: tevDrop, port: int32(s.Port), bits: int32(sz), kind: kid})
			}
			continue
		}
		lane = laneEvent(lane, digestSend, s.Port, sz, metrics.KindHash(kid))
		events++
		if traced {
			p.tevs[u] = append(p.tevs[u], tev{op: tevSend, port: int32(s.Port), bits: int32(sz), kind: kid})
		}
		// Routing, with 1 <= Port <= deg already validated: on the clique
		// Peer and ArrivalPort reduce to a compare-subtract and a
		// subtract; a port table resolves them with two int32 loads. No
		// div/mod, search, or interface call on the per-message path.
		var v int
		var d Delivery
		if ports == nil {
			v = u + s.Port
			if v >= n {
				v -= n
			}
			d = Delivery{Port: n - s.Port, Payload: s.Payload}
		} else {
			k := base + int32(s.Port) - 1
			v = int(ports.peer[k])
			d = Delivery{Port: int(ports.aport[k]), Payload: s.Payload}
		}
		rs := v >> p.shift
		buckets[rs] = append(buckets[rs], routed{to: int32(v), d: d})
		if e.trace != nil {
			// Trace recording forces a single-lane pipeline (see Run), so
			// this call stays on one goroutine in (sender, index) order.
			e.trace.noteSend(u, v, round)
		}
	}
	if checkDup {
		for _, s := range outbox {
			if s.Port >= 1 && s.Port <= deg {
				wk.portSeen[uint(s.Port)>>6] &^= uint64(1) << (uint(s.Port) & 63)
			}
		}
	}
	if events > 0 {
		p.lane[u] = lane
	}
}

// shardPool is a persistent, fixed-size worker pool: one goroutine per
// shard for the lifetime of a Run, released per pass through per-worker
// channels and collected with a WaitGroup barrier.
type shardPool struct {
	fn     func(shard int)
	start  []chan struct{}
	done   sync.WaitGroup
	exited sync.WaitGroup
}

func newShardPool(w int) *shardPool {
	p := &shardPool{start: make([]chan struct{}, w)}
	p.exited.Add(w)
	for i := range p.start {
		p.start[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *shardPool) worker(i int) {
	defer p.exited.Done()
	for range p.start[i] {
		p.fn(i)
		p.done.Done()
	}
}

// run executes fn(shard) on every worker and blocks until all complete.
// The channel sends publish the fn write to the workers.
func (p *shardPool) run(fn func(shard int)) {
	p.fn = fn
	p.done.Add(len(p.start))
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	p.done.Wait()
}

// close terminates the workers and waits for them to exit — pool
// goroutines must never outlive the engine run.
func (p *shardPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.exited.Wait()
}
