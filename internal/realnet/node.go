package realnet

import (
	"fmt"
	"net"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/wire"
)

// runNode is the node side of the protocol: handshake, then one
// step-and-reply per ROUND frame until a CRASH or STOP frame ends the
// run. pick resolves the welcome to this node's machine — in-process
// runs index a shared slice, worker processes build with Join's
// builder. encodeOut serialises the machine's output for the OUTPUT
// frame; nil means "no wire output" (in-process runs return it through
// the call instead). The returned output is the machine's final — or
// crash-frozen — Output(), valid whenever id >= 0, even if err is the
// connection error that ended the run.
func runNode(conn net.Conn, pick func(welcome) (netsim.Machine, error), encodeOut func(any) ([]byte, error)) (id int, out any, err error) {
	defer conn.Close()
	id = -1

	buf := appendHello(nil, hello{
		hdr:       localHeader(),
		codecHash: codecTableHash(),
		kinds:     metrics.KindNames(),
	})
	if err := wire.WriteTypedFrame(conn, frameHello, buf); err != nil {
		return -1, nil, err
	}
	body, err := readFrameOf(conn, frameWelcome)
	if err != nil {
		return -1, nil, err
	}
	w, err := parseWelcome(body)
	if err != nil {
		return -1, nil, err
	}
	if err := wire.CheckHeader(w.hdr, localHeader()); err != nil {
		return -1, nil, err
	}
	machine, err := pick(w)
	if err != nil {
		return -1, nil, err
	}
	id = w.id
	env := netsim.NewEnv(w.n, w.id, w.alpha, rng.New(w.seed).Split(uint64(w.id)), w.tracing)

	var inbox []netsim.Delivery
	var scratch, payload []byte
	for {
		kind, body, err := wire.ReadTypedFrame(conn, nil)
		if err != nil {
			return id, machine.Output(), err
		}
		switch kind {
		case frameCrash, frameStop:
			var frame []byte
			if encodeOut != nil {
				enc, err := encodeOut(machine.Output())
				if err != nil {
					return id, machine.Output(), err
				}
				frame = wire.AppendBool(scratch[:0], true)
				frame = append(frame, enc...)
			} else {
				frame = wire.AppendBool(scratch[:0], false)
			}
			// Best-effort: the hub may already have dropped the socket.
			wireErr := wire.WriteTypedFrame(conn, frameOutput, frame)
			_ = wireErr
			return id, machine.Output(), nil
		case frameRound:
			// fall through to the round step below
		default:
			return id, machine.Output(), fmt.Errorf("realnet: unexpected frame kind %d", kind)
		}

		round, body, err := wire.Uvarint(body)
		if err != nil {
			return id, machine.Output(), err
		}
		count, body, err := wire.Uvarint(body)
		if err != nil {
			return id, machine.Output(), err
		}
		inbox = inbox[:0]
		for i := uint64(0); i < count; i++ {
			var port, blen uint64
			if port, body, err = wire.Uvarint(body); err != nil {
				return id, machine.Output(), err
			}
			if blen, body, err = wire.Uvarint(body); err != nil {
				return id, machine.Output(), err
			}
			if blen > uint64(len(body)) {
				return id, machine.Output(), fmt.Errorf("realnet: delivery body of %d bytes overruns frame: %w", blen, wire.ErrShortBuffer)
			}
			p, rest, err := decodePayload(body[:blen])
			if err != nil {
				return id, machine.Output(), err
			}
			if len(rest) != 0 {
				return id, machine.Output(), fmt.Errorf("realnet: %d trailing bytes after payload", len(rest))
			}
			inbox = append(inbox, netsim.Delivery{Port: int(port), Payload: p})
			body = body[blen:]
		}

		outbox := machine.Step(env, int(round), inbox)

		frame := wire.AppendUvarint(scratch[:0], round)
		frame = wire.AppendBool(frame, machine.Done())
		annots := env.DrainAnnotations()
		frame = wire.AppendUvarint(frame, uint64(len(annots)))
		for _, a := range annots {
			frame = appendString(frame, a)
		}
		frame = wire.AppendUvarint(frame, uint64(len(outbox)))
		for _, s := range outbox {
			frame = wire.AppendVarint(frame, int64(s.Port))
			frame = wire.AppendKind(frame, netsim.PayloadKindID(s.Payload))
			frame = wire.AppendVarint(frame, int64(s.Payload.Bits(w.n)))
			payload, err = encodePayload(payload[:0], s.Payload)
			if err != nil {
				return id, machine.Output(), err
			}
			frame = wire.AppendUvarint(frame, uint64(len(payload)))
			frame = append(frame, payload...)
		}
		scratch = frame
		if err := wire.WriteTypedFrame(conn, frameOutbox, frame); err != nil {
			return id, machine.Output(), err
		}
	}
}
