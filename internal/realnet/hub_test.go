package realnet

// Protocol-error coverage: a node that speaks the wire protocol by hand
// and breaks it must fail the run with an error naming the node.

import (
	"net"
	"strings"
	"testing"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/wire"
)

// quietMachine never sends and is always done.
type quietMachine struct{}

func (quietMachine) Step(*netsim.Env, int, []netsim.Delivery) []netsim.Send { return nil }
func (quietMachine) Done() bool                                             { return true }
func (quietMachine) Output() any                                            { return nil }

// TestOutboxForWrongRoundFailsRun: node 0 answers round 1 properly, not
// done, then answers round 2 with an OUTBOX for round 7. Serve must fail
// with an error naming the node and both rounds.
func TestOutboxForWrongRoundFailsRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	served := make(chan error, 1)
	go func() {
		_, err := Serve(Config{N: 2, Alpha: 1, Seed: 1, MaxRounds: 4}, SystemSpec{Name: "hand-rolled"}, ln)
		served <- err
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	frame := appendHello(nil, hello{hdr: localHeader(), codecHash: codecTableHash(), kinds: metrics.KindNames()})
	if err := wire.WriteTypedFrame(conn, frameHello, frame); err != nil {
		t.Fatalf("hello: %v", err)
	}
	body, err := readFrameOf(conn, frameWelcome)
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if w, err := parseWelcome(body); err != nil || w.id != 0 {
		t.Fatalf("welcome: id %d, err %v; want node 0", w.id, err)
	}
	// Node 1 dials only now, so the hand-rolled node is node 0.
	go func() {
		if c, err := net.Dial("tcp", addr); err == nil {
			runNode(c, func(welcome) (netsim.Machine, error) { return quietMachine{}, nil }, nil)
		}
	}()

	for _, echo := range []uint64{1, 7} {
		if _, err := readFrameOf(conn, frameRound); err != nil {
			t.Fatalf("round frame: %v", err)
		}
		frame = wire.AppendUvarint(frame[:0], echo)
		frame = wire.AppendBool(frame, false) // not done
		frame = wire.AppendUvarint(frame, 0)  // annotations
		frame = wire.AppendUvarint(frame, 0)  // sends
		if err := wire.WriteTypedFrame(conn, frameOutbox, frame); err != nil {
			t.Fatalf("outbox: %v", err)
		}
	}
	// Hang up, so a hub that let the bad OUTBOX through ends the run on
	// a lost connection instead of waiting for round 3.
	conn.Close()
	err = <-served
	if err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), "outbox for round 7 in round 2") {
		t.Fatalf("Serve error = %v, want node 0 and \"outbox for round 7 in round 2\"", err)
	}
}
