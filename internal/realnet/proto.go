package realnet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"syscall"

	"sublinear/internal/wire"
)

// Wire protocol of the socket engine. Every frame is a wire typed frame
// (4-byte length, 1-byte frame kind, body); the body encoding is
// uvarint/varint based, shared between the coordinator (hub.go) and the
// node loop (node.go). The round exchange mirrors the simulator's round
// structure one-to-one:
//
//	node → hub   HELLO    protocol header, codec-table hash, kind-name table
//	hub → node   WELCOME  header echo, node id, run parameters, system spec
//	hub → node   ROUND    round number + this node's deliveries
//	node → hub   OUTBOX   round echo, done flag, annotations, sends
//	hub → node   CRASH    at run end: the adversary crashed this node in round r
//	hub → node   STOP     the run quiesced or hit its horizon
//	node → hub   OUTPUT   the machine's final (or crash-frozen) output
const (
	frameHello byte = iota + 1
	frameWelcome
	frameRound
	frameOutbox
	frameCrash
	frameStop
	frameOutput
)

// protoSchema is the body-layout version carried in the header's Schema
// field, alongside the frame-layer wire.FrameVersion. Bump on any change
// to the frame bodies below.
const protoSchema = 1

func localHeader() wire.Header {
	return wire.Header{Version: wire.FrameVersion, Schema: protoSchema}
}

// hello is the node's opening frame.
type hello struct {
	hdr       wire.Header
	codecHash uint64
	kinds     []string // the node's metrics kind table, dense by local id
}

func appendHello(dst []byte, h hello) []byte {
	dst = wire.AppendHeader(dst, h.hdr)
	dst = wire.AppendUvarint(dst, h.codecHash)
	dst = wire.AppendUvarint(dst, uint64(len(h.kinds)))
	for _, name := range h.kinds {
		dst = appendString(dst, name)
	}
	return dst
}

func parseHello(b []byte) (hello, error) {
	var h hello
	var err error
	h.hdr, b, err = wire.ParseHeader(b)
	if err != nil {
		return h, err
	}
	if h.codecHash, b, err = wire.Uvarint(b); err != nil {
		return h, err
	}
	count, b, err := wire.Uvarint(b)
	if err != nil {
		return h, err
	}
	if count > uint64(wire.MaxFrame) {
		return h, fmt.Errorf("realnet: hello announces %d kinds", count)
	}
	h.kinds = make([]string, count)
	for i := range h.kinds {
		if h.kinds[i], b, err = parseString(b); err != nil {
			return h, err
		}
	}
	return h, nil
}

// welcome carries the run parameters from the coordinator to a node.
type welcome struct {
	hdr       wire.Header
	id        int
	n         int
	maxRounds int
	alpha     float64
	seed      uint64
	tracing   bool
	system    string  // "" for in-process runs: the dialer brought its own machine
	pOne      float64 // input-distribution parameter forwarded to system factories
}

func appendWelcome(dst []byte, w welcome) []byte {
	dst = wire.AppendHeader(dst, w.hdr)
	dst = wire.AppendUvarint(dst, uint64(w.id))
	dst = wire.AppendUvarint(dst, uint64(w.n))
	dst = wire.AppendUvarint(dst, uint64(w.maxRounds))
	dst = wire.AppendUvarint(dst, math.Float64bits(w.alpha))
	dst = wire.AppendUvarint(dst, w.seed)
	dst = wire.AppendBool(dst, w.tracing)
	dst = appendString(dst, w.system)
	dst = wire.AppendUvarint(dst, math.Float64bits(w.pOne))
	return dst
}

func parseWelcome(b []byte) (welcome, error) {
	var w welcome
	var err error
	if w.hdr, b, err = wire.ParseHeader(b); err != nil {
		return w, err
	}
	var id, n, rounds, bits uint64
	if id, b, err = wire.Uvarint(b); err != nil {
		return w, err
	}
	if n, b, err = wire.Uvarint(b); err != nil {
		return w, err
	}
	if rounds, b, err = wire.Uvarint(b); err != nil {
		return w, err
	}
	if bits, b, err = wire.Uvarint(b); err != nil {
		return w, err
	}
	w.id, w.n, w.maxRounds, w.alpha = int(id), int(n), int(rounds), math.Float64frombits(bits)
	if w.seed, b, err = wire.Uvarint(b); err != nil {
		return w, err
	}
	if w.tracing, b, err = wire.Bool(b); err != nil {
		return w, err
	}
	if w.system, b, err = parseString(b); err != nil {
		return w, err
	}
	if bits, _, err = wire.Uvarint(b); err != nil {
		return w, err
	}
	w.pOne = math.Float64frombits(bits)
	return w, nil
}

func appendString(dst []byte, s string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func parseString(b []byte) (string, []byte, error) {
	n, b, err := wire.Uvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, fmt.Errorf("realnet: string of %d bytes overruns frame: %w", n, wire.ErrShortBuffer)
	}
	return string(b[:n]), b[n:], nil
}

// readFrameOf reads one typed frame and requires the given frame kind.
func readFrameOf(r io.Reader, want byte) ([]byte, error) {
	kind, body, err := wire.ReadTypedFrame(r, nil)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("realnet: expected frame kind %d, got %d", want, kind)
	}
	return body, nil
}

// isConnError reports whether err looks like a dead or reset connection
// — the class of failures the coordinator converts into detected crash
// events — as opposed to a protocol or codec error, which aborts the
// run.
func isConnError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
