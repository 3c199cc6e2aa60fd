// Package netsim simulates a synchronous, fully connected, anonymous
// message-passing network under crash faults — the model of Section II of
// the paper.
//
// Model contract implemented here:
//
//   - The network is a complete graph on n nodes. Nodes are anonymous
//     (KT0): a machine addresses messages by local port number in
//     [1, n-1] and never learns which node a port leads to, except that a
//     received message carries the arrival port, enabling replies.
//   - Execution proceeds in synchronous rounds starting at round 1. All
//     messages sent by a node that does not crash in round r are delivered
//     at the beginning of round r+1.
//   - A faulty node may crash in any round; in its crash round an
//     adversarially chosen subset of its outgoing messages is lost, and
//     the node halts for all subsequent rounds.
//   - CONGEST: each message carries O(log n) bits; the engine enforces a
//     per-message bit budget and can also enforce the one-message-per-edge
//     -per-round discipline.
//
// Port wiring: node u's port p (1 <= p <= n-1) connects to node
// (u+p) mod n. The protocols in this repository use ports only for
// uniform random sampling and for replying on arrival ports, so any fixed
// bijection yields the same execution distribution as the hidden random
// permutation of the paper's model (see DESIGN.md). The same pipeline
// runs on any connected graph given a compiled PortTable (Config.Ports):
// node u then has ports 1..Degree(u) following the graph, and the wiring
// is the only thing that changes.
package netsim

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"

	"sublinear/internal/metrics"
	"sublinear/internal/rng"
)

// Payload is the content of a message. Implementations must be immutable
// after send: the same value may be delivered to the receiver without
// copying.
type Payload interface {
	// Bits returns the encoded size of the payload in bits, for a network
	// of n nodes. Used for CONGEST accounting and enforcement.
	Bits(n int) int
	// Kind returns a short label for accounting (e.g. "propose").
	Kind() string
}

// Kinded is an optional Payload extension. A payload whose type
// precomputes its interned kind id (typically in a package-level
// `var kindFoo = metrics.InternKind("foo")`) lets the engine's
// per-message hot path skip the string-keyed registry lookup entirely.
// Payloads without it still work; the engine falls back to interning
// Kind() on the fly.
type Kinded interface {
	KindID() metrics.Kind
}

// PayloadKindID resolves a payload's interned kind: the precomputed id
// when the payload implements Kinded, otherwise a registry lookup on its
// Kind() string.
func PayloadKindID(p Payload) metrics.Kind {
	if k, ok := p.(Kinded); ok {
		return k.KindID()
	}
	return metrics.InternKind(p.Kind())
}

// Send is an outgoing message: a payload addressed to a local port.
type Send struct {
	Port    int
	Payload Payload
}

// Delivery is an incoming message as seen by a machine: the payload and
// the local port it arrived on. The sender's identity is deliberately not
// exposed (KT0 anonymity).
type Delivery struct {
	Port    int
	Payload Payload
}

// Env is the per-node environment handed to a machine: n, alpha, and a
// private coin stream.
//
// ID is the node's own index. It exists for KT1 baseline protocols
// (internal/baseline), where nodes know their neighbors; with the fixed
// port wiring, a KT1 machine reaches node v via port (v-ID) mod n and
// identifies a sender as (ID+arrivalPort) mod n. The paper's KT0
// algorithms in internal/core never read ID — anonymity is a property of
// the protocol, which the tests enforce.
type Env struct {
	N     int
	ID    int
	Alpha float64
	Rand  *rng.Source
	// Deg is the number of local ports: N-1 on the complete network,
	// the node's degree under a Config.Ports table.
	Deg int

	// Trace-annotation buffer, drained by the engine at the round
	// barrier when a Tracer is configured.
	tracing bool
	annot   []string
}

// NewEnv constructs the per-node environment an out-of-process engine
// (a registered RunMode, or a realnet worker in another OS process)
// hands to its machine. The in-process engines build envs the same way:
// coins for node id derive as rng.New(seed).Split(id) — Split is pure,
// so a remote worker reconstructs exactly the coin stream the simulator
// would have used — and Deg is n-1 on the complete network.
func NewEnv(n, id int, alpha float64, coins *rng.Source, tracing bool) *Env {
	return &Env{N: n, ID: id, Alpha: alpha, Rand: coins, Deg: n - 1, tracing: tracing}
}

// DrainAnnotations returns the annotations buffered since the last drain
// and resets the buffer. The in-process engines drain at the round
// barrier (shard.go pass D); the socket engine drains after each Step so
// a node's annotations ship inside its outbox frame.
func (e *Env) DrainAnnotations() []string {
	if len(e.annot) == 0 {
		return nil
	}
	out := e.annot
	e.annot = nil
	return out
}

// Tracing reports whether an execution trace is being recorded
// (Config.Tracer non-nil). Protocols that build annotation strings with
// fmt.Sprintf should gate on it so the untraced hot path stays
// allocation-free.
func (e *Env) Tracing() bool { return e.tracing }

// Annotate attaches a free-form protocol-state note to this node's
// current round in the execution trace. It is a no-op when tracing is
// off. Annotations are observability only: they are NOT folded into the
// run digest, so annotated and unannotated runs of the same execution
// stay digest-equal.
func (e *Env) Annotate(text string) {
	if e.tracing {
		e.annot = append(e.annot, text)
	}
}

// PortTo returns the local port that reaches node v from this node (KT1
// on the complete network only). It panics if v is this node.
func (e *Env) PortTo(v int) int { return ArrivalPort(e.N, v, e.ID) }

// SenderOf returns the node behind the given arrival port (KT1 on the
// complete network only).
func (e *Env) SenderOf(port int) int { return Peer(e.N, e.ID, port) }

// Machine is a per-node protocol state machine.
//
// Step is called once per round for every node that has not crashed and
// has not halted. The inbox holds the deliveries that arrived at the start
// of this round (messages sent in the previous round); it is empty in
// round 1. Step returns the messages the node sends this round.
//
// Done reports that the machine has halted voluntarily; the engine stops
// once every live machine is done and no messages are in flight.
//
// Output returns the machine's final output and may be called at any time
// after Run returns.
type Machine interface {
	Step(env *Env, round int, inbox []Delivery) []Send
	Done() bool
	Output() any
}

// Adversary controls crash faults. The engine calls it as follows: the
// faulty set is static (Faulty — a pure function of the node, which the
// engine caches once per run); each round, after a faulty live node
// produced its outbox, CrashNow is consulted once — returning true crashes
// the node this round, in which case DeliverOnCrash is consulted per
// outgoing message. CrashNow is called in increasing node order on the
// engine's coordination thread, so adversaries may keep state and observe
// outboxes across rounds (the "adaptively choose when and how" power of
// the paper's static adversary). Once every faulty node has crashed, the
// engine stops consulting the adversary altogether.
type Adversary interface {
	Faulty(node int) bool
	CrashNow(node, round int, outbox []Send) bool
	DeliverOnCrash(node, round, msgIndex int, send Send) bool
}

// CrashPlanner is an optional Adversary extension that lets the engine
// amortize its round barrier. NextCrashRound(round) returns the earliest
// round >= round in which CrashNow may return true for any live node; a
// larger return value is a binding promise that every round before it is
// crash-free, which the engine exploits by skipping the per-round
// CrashNow consultation and fusing delivery, stepping, and send
// processing into a single worker dispatch — one barrier per round
// instead of three — for the whole window. The engine re-asks at the end
// of each window, so implementations may answer incrementally; they must
// treat nodes whose CrashNow already returned true as spent (the engine
// never re-consults a crashed node). An adversary with no crashes left
// should return a round past Config.MaxRounds. Adversaries that decide
// crash timing only upon seeing an outbox must not implement
// CrashPlanner: during a published window they are not consulted at all.
//
// Fully scheduled adversaries (fault.Schedule) implement this, so every
// dst/mc replay runs on the fused path between its scheduled crash
// rounds; digest identity with the unfused path is pinned by tests.
type CrashPlanner interface {
	NextCrashRound(round int) int
}

// Tracer observes the typed event stream of a run: the execution flight
// recorder hook (internal/trace implements it). The engine guarantees:
//
//   - Every method is called on the coordination thread; implementations
//     need no locking.
//   - The call order is deterministic — identical for the Sequential
//     and Parallel engines at every worker count, because events
//     buffered on the delivery pipeline's workers are emitted at the
//     round barrier in ascending node order, exactly mirroring the
//     digest fold order (see shard.go pass D).
//   - Per round: TraceRound(r) once at round open; then, after delivery,
//     for each node u in ascending order: TraceCrash if u crashed this
//     round, the node's message and violation events in outbox order,
//     and finally its annotations. TraceFinish fires once, after the
//     outcome fold, with the run's final digest — a recorder that
//     reconstructs the digest from the events it saw can compare the two
//     and certify the trace as a witness of the execution.
//
// A nil Config.Tracer costs one predictable branch per message and no
// allocations; the steady-state zero-alloc guarantee holds with tracing
// off.
type Tracer interface {
	// TraceRound marks the start of round r.
	TraceRound(round int)
	// TraceCrash reports that node crashed in the given round.
	TraceCrash(node, round int)
	// TraceMessage reports one counted message: sender's port, interned
	// kind, payload size in bits, and whether the message was lost to the
	// sender's crash (dropped) instead of delivered.
	TraceMessage(sender, round, port int, kind metrics.Kind, bits int, dropped bool)
	// TraceViolation reports a CONGEST violation attributed to node.
	TraceViolation(node, round int, reason string)
	// TraceAnnotation reports a protocol-state note (Env.Annotate).
	TraceAnnotation(node, round int, text string)
	// TraceFinish reports the run totals and the final execution digest
	// (netsim.Result.Digest). It is not called if the run aborts with a
	// strict-mode error.
	TraceFinish(rounds int, messages, bits int64, digest uint64)
}

// NoFaults is an Adversary with an empty faulty set.
type NoFaults struct{}

// Faulty always reports false.
func (NoFaults) Faulty(int) bool { return false }

// CrashNow always reports false.
func (NoFaults) CrashNow(int, int, []Send) bool { return false }

// DeliverOnCrash always reports true (it is never consulted).
func (NoFaults) DeliverOnCrash(int, int, int, Send) bool { return true }

// Config parameterises an engine run.
type Config struct {
	// N is the number of nodes. Required, >= 2.
	N int
	// Alpha is the guaranteed fraction of non-faulty nodes, exposed to
	// machines via Env. Must be in (0, 1].
	Alpha float64
	// Seed seeds the run; each node's private coins derive from it.
	Seed uint64
	// MaxRounds caps the execution length. Required, >= 1.
	MaxRounds int
	// CongestFactor c sets the per-message budget to c*ceil(log2 n) bits.
	// Zero selects the default of 8 (a handful of log-sized fields).
	CongestFactor int
	// Strict makes CONGEST violations (over-sized payloads, two messages
	// on one edge in one round, out-of-range ports) abort the run with an
	// error instead of being recorded.
	Strict bool
	// Record enables the message trace needed by the influence-cloud
	// analysis (internal/cloud). Costs memory proportional to the number
	// of messages, and forces the delivery pipeline to a single lane so
	// trace entries keep their deterministic first-crossing order.
	Record bool
	// Workers sizes the sharded pipeline's worker pool, used by the
	// Parallel mode. Zero selects runtime.GOMAXPROCS(0); 1 forces a
	// fully single-threaded pipeline; negative is invalid.
	Workers int
	// Ports, when non-nil, wires the nodes as a general graph compiled by
	// CompilePorts; it must have N nodes. nil selects the complete
	// network's fixed wiring (see Peer), routed by arithmetic. Only the
	// built-in modes run general graphs.
	Ports *PortTable
	// Tracer, when non-nil, receives the run's typed event stream in
	// deterministic order (see the Tracer interface contract). Unlike
	// Record it does not constrain the pipeline: traced runs keep their
	// configured worker count and emit identical event streams at every
	// worker count. nil disables tracing at zero cost.
	Tracer Tracer
}

func (c *Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("netsim: config N = %d, need >= 2", c.N)
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("netsim: config Alpha = %v, need (0,1]", c.Alpha)
	}
	if c.MaxRounds < 1 {
		return errors.New("netsim: config MaxRounds must be >= 1")
	}
	if c.Workers < 0 {
		return fmt.Errorf("netsim: config Workers = %d, need >= 0", c.Workers)
	}
	if c.Ports != nil && c.Ports.N() != c.N {
		return fmt.Errorf("netsim: port table has %d nodes, config N = %d", c.Ports.N(), c.N)
	}
	return nil
}

// workerCount resolves the configured pool size: the explicit override
// when set, otherwise the scheduler's processor count.
func (c *Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// degree returns node u's port count under the configured wiring.
func (c *Config) degree(u int) int {
	if c.Ports == nil {
		return c.N - 1
	}
	return c.Ports.Degree(u)
}

func (c *Config) bitBudget() int {
	factor := c.CongestFactor
	if factor == 0 {
		factor = 8
	}
	return factor * bitsLen(c.N)
}

// bitsLen returns ceil(log2 n) with a floor of 1.
func bitsLen(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Violation is a recorded CONGEST violation (non-strict mode).
type Violation struct {
	Node, Round int
	Reason      string
}

// Result holds the outcome of an engine run.
type Result struct {
	// Outputs holds each machine's Output(), indexed by node.
	Outputs []any
	// CrashedAt[u] is the round node u crashed in, or 0 if it never did.
	CrashedAt []int
	// Faulty[u] reports whether node u was in the adversary's static
	// faulty set (it may or may not have crashed).
	Faulty []bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Counters holds message/bit/round accounting.
	Counters *metrics.Counters
	// Violations holds CONGEST violations observed in non-strict mode.
	Violations []Violation
	// Trace is the recorded message trace, or nil if Config.Record was
	// false.
	Trace *Trace
	// Digest fingerprints the execution: an order-sensitive hash of every
	// round boundary, crash decision, and message (sender, port, kind,
	// size, delivered-or-dropped), folded on the coordination thread.
	// Runs with equal seeds must produce equal digests in every engine
	// mode; the DST harness fails on any mismatch.
	Digest uint64
}

// PerMessageBudget returns the CONGEST per-message bit budget an engine
// enforces for the given network size and congest factor (0 selects the
// default factor). Exposed for the protocol oracles, which re-check the
// budget against the counters after a run.
func PerMessageBudget(n, congestFactor int) int {
	cfg := Config{N: n, CongestFactor: congestFactor}
	return cfg.bitBudget()
}

// Peer returns the node that port p of node u connects to, for an n-node
// network. It panics on out-of-range ports.
func Peer(n, u, p int) int {
	if p < 1 || p >= n {
		panic(fmt.Sprintf("netsim: port %d out of range [1,%d]", p, n-1))
	}
	return (u + p) % n
}

// ArrivalPort returns the port of node v on which a message from node u
// arrives. It panics if u == v.
func ArrivalPort(n, u, v int) int {
	if u == v {
		panic("netsim: no self edges in the model")
	}
	return ((u-v)%n + n) % n
}
