package netsim

// Run digests. Every engine mode folds the observable events of an
// execution — round boundaries, crash decisions, and each message's
// (sender, port, kind, size, delivered) tuple — into a single FNV-1a
// fingerprint. Two runs with the same digest performed the same
// communication; the deterministic-simulation harness (internal/dst)
// compares digests across the Sequential and Parallel engines to detect
// any scheduling-dependent divergence.
//
// Schema v2 (the sharded-delivery pipeline): message events no longer
// fold directly into the run digest on the coordination thread. Instead
// each sender's round events fold into a private per-sender *lane*
// digest — computable on any worker, since it touches no shared state —
// and the coordination thread folds (digestLane, sender, lane) words
// into the run digest in ascending sender order at the round barrier.
// Kind strings are not rehashed per message: the lane folds the kind's
// interned content hash (metrics.KindHash), which is precomputed once
// per kind name and independent of interning order, so digests remain
// reproducible across processes. The schema version itself seeds the
// digest, so v1 and v2 fingerprints of the same execution never collide.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// DigestSchemaVersion identifies the digest construction. It is folded
// into every digest at initialization; bump it whenever the event
// encoding changes so stale reproducer expectations fail loudly instead
// of silently comparing incompatible fingerprints.
const DigestSchemaVersion = 2

// Event tags keep distinct event shapes from aliasing in the digest.
const (
	digestRound   uint64 = 0xd1
	digestCrash   uint64 = 0xd2
	digestSend    uint64 = 0xd3
	digestDrop    uint64 = 0xd4
	digestOutcome uint64 = 0xd5
	digestLane    uint64 = 0xd6
)

// foldWord folds one 64-bit word into an order-sensitive accumulator: the
// running hash is xored with the word and avalanched through the
// splitmix64 finalizer. One fold costs two multiplies and three shifts —
// the v1 digest's byte-at-a-time FNV-1a loop cost eight dependent
// multiplies per word and dominated the per-message profile.
func foldWord(h, v uint64) uint64 {
	x := h ^ v
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// digest is an order-sensitive accumulator over 64-bit words.
type digest struct{ h uint64 }

func newDigest() digest {
	d := digest{h: fnvOffset}
	d.word(DigestSchemaVersion)
	return d
}

func (d *digest) word(v uint64) { d.h = foldWord(d.h, v) }

func (d *digest) words(vs ...uint64) {
	for _, v := range vs {
		d.h = foldWord(d.h, v)
	}
}

// laneInit is the seed of a per-sender lane digest. A lane that folded at
// least one event is (with overwhelming probability) nonzero, which the
// pipeline uses as its "sender had events this round" sentinel.
func laneInit() uint64 { return fnvOffset }

// laneEvent packs one message event into a single word and folds it into
// a lane, followed by the kind's content hash. Field layout: tag in bits
// [0,8), port in [8,40), payload size in [40,64). A port or size past its
// field bleeds into the neighbor, degrading (never breaking) digest
// discrimination; ports are bounded by n and sizes by the CONGEST budget
// in every non-adversarial payload, so the packed form is exact in
// practice.
func laneEvent(lane, tag uint64, port, size int, kindHash uint64) uint64 {
	return foldWord(foldWord(lane, tag|uint64(port)<<8|uint64(size)<<40), kindHash)
}

// DigestAccumulator recomputes a run digest from the observable event
// stream a Tracer sees, in the exact fold order of the engine: rounds,
// crash decisions, per-sender message lanes flushed on sender change,
// and the outcome record. Feeding it every TraceRound / TraceCrash /
// TraceMessage call of a run and then Sum-ming with the TraceFinish
// totals yields netsim.Result.Digest — which is how internal/trace
// certifies a recorded trace as a faithful witness of the execution,
// and how a reader re-verifies a trace file it did not record.
// Violations and annotations do not fold into the digest.
type DigestAccumulator struct {
	d      digest
	sender int
	lane   uint64
	open   bool // a lane is accumulating for sender
}

// NewDigestAccumulator returns an accumulator seeded exactly like a
// fresh engine digest (schema version included).
func NewDigestAccumulator() *DigestAccumulator {
	return &DigestAccumulator{d: newDigest()}
}

// flush folds the pending sender lane, mirroring the pipeline's pass D:
// the (lane-tag, sender) word then the lane value, skipped in the
// astronomically unlikely case the lane folded to exactly zero (the
// pipeline uses zero as its "no events" sentinel).
func (a *DigestAccumulator) flush() {
	if !a.open {
		return
	}
	if a.lane != 0 {
		a.d.word(digestLane | uint64(a.sender)<<8)
		a.d.word(a.lane)
	}
	a.open = false
}

// Round folds the start of round r.
func (a *DigestAccumulator) Round(r int) {
	a.flush()
	a.d.words(digestRound, uint64(r))
}

// Crash folds node u's crash in round r.
func (a *DigestAccumulator) Crash(u, r int) {
	a.flush()
	a.d.words(digestCrash, uint64(u), uint64(r))
}

// Message folds one counted message into the sender's lane. kindHash is
// the kind's content hash (metrics.KindHash for an interned Kind,
// metrics.HashKindName for a decoded name). Messages of one sender must
// arrive contiguously in outbox order, as the Tracer contract delivers
// them.
func (a *DigestAccumulator) Message(sender, port int, kindHash uint64, bits int, dropped bool) {
	if a.open && a.sender != sender {
		a.flush()
	}
	if !a.open {
		a.sender = sender
		a.lane = laneInit()
		a.open = true
	}
	tag := digestSend
	if dropped {
		tag = digestDrop
	}
	a.lane = laneEvent(a.lane, tag, port, bits, kindHash)
}

// Sum folds the outcome record and returns the final digest. The
// accumulator must not be reused afterwards.
func (a *DigestAccumulator) Sum(rounds int, messages, bits int64) uint64 {
	a.flush()
	a.d.words(digestOutcome, uint64(rounds), uint64(messages), uint64(bits))
	return a.d.h
}
