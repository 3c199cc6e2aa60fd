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
//   - Step (same shards): each shard steps the round's active nodes —
//     receivers, due wake-ups and machines that never sleep (wake.go) —
//     against the freshly built inbox slices and records the outboxes.
//   - Crash pass (coordination thread, ascending node order): crash
//     decisions. The adversary interface is stateful and
//     order-sensitive, so CrashNow/DeliverOnCrash calls never move off
//     the coordination thread and never reorder. A CrashCalendar names
//     the nodes due in each round, so the pass visits only those;
//     other adversaries are asked about every live faulty node. When no
//     crash can fire this round (no node due, a CrashPlanner window, or
//     no live faulty node left), this pass is skipped entirely and the
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
//     lane digests of the round's active nodes fold into the run
//     digest. Everything order-sensitive happens here, which is the
//     determinism argument: the run digest is a pure function of
//     per-sender lanes folded in node order, and each lane is a pure
//     function of one sender's outbox.
//
// The wiring is the one varying piece: a validated port resolves to its
// peer by the complete network's arithmetic when Config.Ports is nil, or
// through the compiled CSR port table otherwise (see processSender), and
// the valid port range of node u is 1..Degree(u). Everything else —
// stages, barriers, folds, and event order — is shared, so a general
// graph runs on exactly the code path the clique does.
//
// All buffers (buckets, inbox arenas, bitsets, wake calendars, lane
// arrays, crash masks, flat counters) are allocated once per Run —
// pre-sized from the Config and the interned-kind registry — and
// recycled, so the steady-state round loop performs no allocations at
// any n.

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

	workers []delivWorker
	inbox   []shardInbox // one SoA inbox per receiver shard
	active  []activeSet  // one active set per shard (wake.go)
	// outboxes[u] is what u's Step returned this round, nil when u did
	// not step; when some machine sleeps, the send stage clears the
	// entries it visits.
	outboxes [][]Send
	lane     []uint64  // per-sender lane digest; 0 = no events this round
	crashing []bool    // per-sender: crashed this round; cleared by merge
	keep     [][]bool  // crash-round delivery masks, indexed by sender
	tevs     [][]tev   // per-sender trace-event buffers; nil when untraced
	sleep    []Sleeper // per-node Sleeper, nil entries for the rest; nil when no machine sleeps
	pool     *shardPool

	// The crash pass's worklist, built once per Run from the adversary's
	// static faulty set (Engine.Run): due holds a CrashCalendar's
	// entries sorted by (round, node), consumed from dueNext on; faulty
	// lists every faulty node in ascending order for any other
	// adversary.
	due     []crashDue
	dueNext int
	faulty  []int32

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
		active:   make([]activeSet, w),
		outboxes: make([][]Send, n),
		lane:     make([]uint64, n),
		crashing: make([]bool, n),
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
		hi := min(lo+chunk, n)
		p.inbox[s] = newShardInbox(lo, hi)
		p.active[s] = newActiveSet(hi - lo)
	}
	if e.cfg.Tracer != nil {
		p.tevs = make([][]tev, n)
	}
	p.findSleepers()
	if w > 1 {
		p.pool = newShardPool(w)
	}
	return p
}

// findSleepers records the machines that implement Sleeper and gives
// each shard its standing non-sleepers and a wake calendar. When no
// machine sleeps it allocates nothing, and every node stays active in
// every round.
func (p *pipeline) findSleepers() {
	e := p.e
	for u, m := range e.machines {
		if sl, ok := m.(Sleeper); ok {
			if p.sleep == nil {
				p.sleep = make([]Sleeper, len(e.machines))
			}
			p.sleep[u] = sl
		}
	}
	if p.sleep == nil {
		return
	}
	for s := range p.active {
		a := &p.active[s]
		lo := s * p.chunk
		size := min(lo+p.chunk, e.cfg.N) - lo
		a.always = make([]uint64, len(a.step))
		for l := 0; l < size; l++ {
			if p.sleep[lo+l] == nil {
				mark(a.always, l)
			}
		}
		a.wake = newWakeCalendar(size, e.cfg.MaxRounds)
	}
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
// engine. A CrashCalendar's due nodes are visited, or else every live
// faulty node (one of the two worklists is empty). It returns the
// number of nodes that crashed.
func (p *pipeline) crashPass(round int) int {
	crashes := 0
	for ; p.dueAt(round); p.dueNext++ {
		if p.crash(p.due[p.dueNext].node, round) {
			crashes++
		}
	}
	for _, u := range p.faulty {
		if p.crash(int(u), round) {
			crashes++
		}
	}
	return crashes
}

// crashDue is one crash calendar entry: node is due to crash in round.
type crashDue struct{ round, node int }

// dueAt reports whether the crash calendar names a node in round.
func (p *pipeline) dueAt(round int) bool {
	return p.dueNext < len(p.due) && p.due[p.dueNext].round == round
}

// crash asks the adversary whether live faulty node u crashes this
// round and, if it does, records the crash and its delivery mask.
func (p *pipeline) crash(u, round int) bool {
	e := p.e
	if e.crashedAt[u] != 0 {
		return false
	}
	outbox := p.outboxes[u]
	if outbox == nil {
		outbox = emptyOutbox // asleep: its skipped Step would have sent nothing
	}
	if !e.adv.CrashNow(u, round, outbox) {
		return false
	}
	p.crashing[u] = true
	e.crashedAt[u] = round
	mask := p.keep[u]
	if cap(mask) < len(outbox) {
		mask = make([]bool, len(outbox))
	} else {
		mask = mask[:len(outbox)]
	}
	deg := e.cfg.degree(u)
	for i, s := range outbox {
		// Out-of-range ports never reach the adversary, matching the
		// original engine's call set.
		mask[i] = s.Port >= 1 && s.Port <= deg && e.adv.DeliverOnCrash(u, round, i, s)
	}
	p.keep[u] = mask
	// The crashing node joins the round's active set, so the send pass
	// and the merge visit it even if it slept, and leaves the standing
	// non-sleepers and the wake calendar for good.
	s := u >> p.shift
	l := u - s*p.chunk
	a := &p.active[s]
	mark(a.step, l)
	if p.sleep != nil {
		unmark(a.always, l)
		a.wake.set(l, 0)
	}
	return true
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
	for s := range p.active {
		lo := s * p.chunk
		step := p.active[s].step
		for i, w := range step {
			step[i] = 0
			for ; w != 0; w &= w - 1 {
				p.mergeNode(lo+lowest(i, w), round, tracer)
			}
		}
	}
	return inFlight, nil
}

// mergeNode folds one active node's round into the run: its crash event
// and sender lane into the digest, and its buffered events into the
// tracer.
func (p *pipeline) mergeNode(u, round int, tracer Tracer) {
	e := p.e
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
	switch pass {
	case passFused:
		p.activate(shard, lo)
		p.buildInbox(shard)
		p.stepShard(shard, lo)
		p.sendShard(shard, lo)
	case passDeliverStep:
		p.activate(shard, lo)
		p.buildInbox(shard)
		p.stepShard(shard, lo)
	case passSenders:
		p.sendShard(shard, lo)
	}
}

// activate starts shard s's active set for the round, before the inbox
// build adds the receivers: every node in round 1 and whenever no
// machine sleeps, otherwise the non-sleepers and the wake-ups due now.
func (p *pipeline) activate(s, lo int) {
	a := &p.active[s]
	if p.sleep == nil || p.round == 1 {
		fill(a.step, min(lo+p.chunk, p.e.cfg.N)-lo)
		return
	}
	for i, w := range a.always {
		a.step[i] |= w
	}
	a.wake.drain(p.round, a.step)
}

// buildInbox assembles receiver shard s's SoA inbox for the current
// round from the previous round's routing buckets: a stable two-pass
// counting sort by receiver, which also adds every receiver to the
// round's active set. Offsets are assigned only to active nodes. Sender
// shards are visited in ascending order and each bucket holds
// deliveries in ascending (sender, outbox index) order, so every inbox
// receives exactly the delivery order the per-node slices used to
// accumulate — independent of worker count.
func (p *pipeline) buildInbox(s int) {
	ib := &p.inbox[s]
	step := p.active[s].step
	prev := p.gen ^ 1
	total := 0
	for b := range p.workers {
		total += len(p.workers[b].buckets[prev][s])
	}
	if total == 0 {
		return // offsets are zero between rounds: every inbox slice is empty
	}
	cur, off, lo := ib.cur, ib.off, int32(ib.lo)
	for b := range p.workers {
		for _, r := range p.workers[b].buckets[prev][s] {
			l := r.to - lo
			cur[l]++
			mark(step, int(l))
		}
	}
	var sum int32
	for i, w := range step {
		for ; w != 0; w &= w - 1 {
			l := lowest(i, w)
			c := cur[l]
			off[l], cur[l] = sum, sum
			sum += c
		}
	}
	ib.buf = growDeliveries(ib.buf, total)
	for b := range p.workers {
		bucket := p.workers[b].buckets[prev][s]
		for _, r := range bucket {
			l := r.to - lo
			ib.buf[cur[l]] = r.d
			cur[l]++
		}
		p.workers[b].buckets[prev][s] = bucket[:0]
	}
}

// stepShard steps the shard's active nodes against the freshly built
// inbox slices, records the outboxes, and asks each stepped Sleeper for
// its next wake-up.
func (p *pipeline) stepShard(s, lo int) {
	wk := &p.workers[s]
	ib := &p.inbox[s]
	a := &p.active[s]
	round := p.round
	for i, w := range a.step {
		for ; w != 0; w &= w - 1 {
			u := lo + lowest(i, w)
			out := p.e.stepOne(u, round, ib.slice(u))
			ib.reset(u)
			p.outboxes[u] = out
			if len(out) > 0 {
				wk.inFlight = true
			}
			if p.sleep != nil && out != nil {
				if sl := p.sleep[u]; sl != nil {
					wake := sl.NextWake(round)
					if wake <= round || wake > p.e.cfg.MaxRounds {
						wake = 0
					}
					a.wake.set(u-lo, wake)
				}
			}
		}
	}
}

// sendShard processes every active sender of the shard with a nonempty
// outbox. When some machine sleeps, it is the round's last reader of the
// outboxes and clears them, so a node that sleeps next round shows the
// crash pass none. Without sleepers every live node steps again next
// round and overwrites its entry, so the entries stay until then:
// clearing them lowers the live heap that paces the collector, and in
// back-to-back dense runs (perfbench table1-dense) that moved
// collections into the run that follows a message-heavy one.
func (p *pipeline) sendShard(s, lo int) {
	wk := &p.workers[s]
	for i, w := range p.active[s].step {
		for ; w != 0; w &= w - 1 {
			u := lo + lowest(i, w)
			if outbox := p.outboxes[u]; len(outbox) > 0 {
				p.processSender(wk, u, outbox)
				if wk.err != nil {
					return
				}
			}
			if p.sleep != nil {
				p.outboxes[u] = nil
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
