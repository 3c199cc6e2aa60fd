// Package trace is the execution flight recorder: it captures the typed
// event stream a netsim run emits through the Config.Tracer hook — round
// boundaries, every counted message (sender, port, kind, bits,
// delivered-or-dropped), crash decisions, CONGEST violations, and
// protocol annotations — and streams it to a compact chunked binary
// format that can be inspected, diffed, and re-verified after the fact
// (cmd/tracectl).
//
// # Format
//
// A trace is a sequence of length-prefixed frames (internal/wire: 4-byte
// big-endian length, body capped at wire.MaxFrame). The first body byte
// is the frame type:
//
//	'H'  header: magic "SLTR", then uvarints for format version, digest
//	     schema, n, seed, and a length-prefixed label.
//	'C'  chunk: one gzip stream of event records (below).
//	'F'  footer: uvarints for rounds, messages, bits, events, kinds,
//	     and the execution digest.
//
// Records inside a chunk are delta-coded varints, one opcode byte each:
// round records carry the round delta (rounds strictly increase); every
// node-bearing record carries the delta from the previous node of the
// round, which is non-negative because the engine emits events in
// ascending node order at the round barrier. Kind names appear once, in
// a kind-definition record immediately before their first use, and are
// referenced by dense local id afterwards — the on-disk mirror of the
// in-process interned kind table (internal/metrics).
//
// # Digest as witness
//
// The footer digest must equal netsim.Result.Digest. The recorder
// recomputes the digest from the events it is handed
// (netsim.DigestAccumulator, the engine's exact fold order) and fails if
// the engine's TraceFinish digest disagrees; the reader recomputes it
// again from the decoded events and rejects any trace whose footer
// digest does not match. A trace that reads successfully is therefore a
// checkable witness: it describes exactly the communication the engine
// performed, byte-for-byte identical across the Sequential and Parallel
// engines at any worker count.
package trace

import (
	"errors"
	"fmt"
)

// FormatVersion identifies the frame/record encoding.
const FormatVersion = 1

// Frame type bytes.
const (
	frameHeader = 'H'
	frameChunk  = 'C'
	frameFooter = 'F'
)

// traceMagic opens the header body, so a trace file is recognizable even
// without its extension.
const traceMagic = "SLTR"

// Record opcodes. Event-bearing opcodes coincide with the exported Op
// values; opKind is an encoding detail (kind-table definition) and never
// surfaces as an Event.
const (
	opRound      = byte(OpRound)
	opSend       = byte(OpSend)
	opDrop       = byte(OpDrop)
	opCrash      = byte(OpCrash)
	opViolation  = byte(OpViolation)
	opAnnotation = byte(OpAnnotation)
	opKind       = 7
)

// Decoder hardening caps. The reader allocates nothing proportional to a
// declared size beyond these, so arbitrary input cannot balloon memory;
// the writer enforces the same caps so every accepted trace re-encodes.
const (
	maxN        = 1 << 24 // nodes
	maxRounds   = 1 << 24 // round numbers
	maxKinds    = 1 << 16 // distinct kind names per trace
	maxKindName = 128     // bytes per kind name
	maxText     = 4096    // bytes per annotation / violation reason
	maxLabel    = 256     // bytes of header label
	maxScalar   = 1<<31 - 1
	// chunkFlush is the writer's uncompressed flush threshold. Compressed
	// chunks stay far below wire.MaxFrame even on incompressible input.
	chunkFlush = 64 << 10
)

// ErrIncomplete reports a trace stream that ended before its footer.
var ErrIncomplete = errors.New("trace: truncated trace (no footer)")

// Op identifies an event's type.
type Op uint8

// Event types, in the order the engine emits them within a round.
const (
	// OpRound marks the start of a round.
	OpRound Op = iota + 1
	// OpSend is a message counted and delivered.
	OpSend
	// OpDrop is a message counted but lost to the sender's crash.
	OpDrop
	// OpCrash marks a node's crash round.
	OpCrash
	// OpViolation is a CONGEST violation attributed to a node.
	OpViolation
	// OpAnnotation is a protocol-state note (netsim.Env.Annotate).
	OpAnnotation
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpRound:
		return "round"
	case OpSend:
		return "send"
	case OpDrop:
		return "drop"
	case OpCrash:
		return "crash"
	case OpViolation:
		return "violation"
	case OpAnnotation:
		return "annotation"
	}
	return fmt.Sprintf("op#%d", uint8(o))
}

// Event is one decoded trace event. Events are plain comparable values;
// two traces are equivalent iff their event sequences (and headers) are
// equal.
type Event struct {
	Op    Op
	Round int
	// Node is the sender (OpSend/OpDrop), the crashed node (OpCrash), or
	// the attributed node (OpViolation/OpAnnotation). Unused for OpRound.
	Node int
	// Port is the sender's local port (OpSend/OpDrop) or the offending
	// port of a violation, which may be out of range — that being the
	// violation.
	Port int
	// Bits is the payload size (OpSend/OpDrop).
	Bits int
	// Kind is the message kind name (OpSend/OpDrop).
	Kind string
	// Text is the violation reason or annotation text.
	Text string
}

// String renders the event for tracectl and diff output.
func (e Event) String() string {
	switch e.Op {
	case OpRound:
		return fmt.Sprintf("round %d", e.Round)
	case OpSend:
		return fmt.Sprintf("r%d node %d send port %d kind %s %db", e.Round, e.Node, e.Port, e.Kind, e.Bits)
	case OpDrop:
		return fmt.Sprintf("r%d node %d DROP port %d kind %s %db (crash)", e.Round, e.Node, e.Port, e.Kind, e.Bits)
	case OpCrash:
		return fmt.Sprintf("r%d node %d CRASH", e.Round, e.Node)
	case OpViolation:
		return fmt.Sprintf("r%d node %d violation: %s", e.Round, e.Node, e.Text)
	case OpAnnotation:
		return fmt.Sprintf("r%d node %d note: %s", e.Round, e.Node, e.Text)
	}
	return fmt.Sprintf("r%d node %d %s", e.Round, e.Node, e.Op)
}

// Header identifies the run a trace records.
type Header struct {
	// Version is the trace format version (FormatVersion).
	Version int
	// DigestSchema is netsim.DigestSchemaVersion at record time; traces
	// recorded under different schemas are never comparable.
	DigestSchema int
	// N is the network size.
	N int
	// Seed is the run seed.
	Seed uint64
	// Label is a free-form run description ("election n=64", a dst case
	// name, a simd job key). Not compared by Diff.
	Label string
}

// Footer carries the run totals and the execution digest.
type Footer struct {
	// Rounds is the number of rounds executed (netsim.Result.Rounds).
	Rounds int
	// Messages and Bits are the run totals, counting dropped messages
	// (the paper counts messages sent, not delivered).
	Messages int64
	Bits     int64
	// Events is the number of events in the trace, across all types.
	Events int64
	// Kinds is the size of the trace's kind table.
	Kinds int
	// Digest is the execution digest (netsim.Result.Digest); readers
	// recompute it from the event stream and reject mismatches.
	Digest uint64
}
