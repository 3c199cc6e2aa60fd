package realnet

import (
	"fmt"
	"net"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
	"sublinear/internal/wire"
)

// remote is the coordinator's end of one node connection, stepped by
// netsim's pipeline as that node's Machine: Step is one ROUND/OUTBOX
// round trip, and everything order-sensitive stays in the pipeline.
// kinds remaps the node's dense kind ids (announced in its HELLO) to
// coordinator-local interned kinds: in-process the remap is the
// identity; across processes it bridges two independently grown intern
// tables.
type remote struct {
	id    int
	c     net.Conn
	kinds []kindEntry
	chaos func(round, node int) bool
	done  bool  // done flag of the node's last OUTBOX
	lost  int   // round the connection died in; 0 while it is healthy
	err   error // protocol error that retired the node as lost
	buf   []byte
}

type kindEntry struct {
	name  string
	local metrics.Kind
}

// wirePayload is the coordinator's view of a payload: the sender's
// declared kind and bit size plus its opaque encoded body. It
// implements netsim.Payload and Kinded, so the pipeline validates,
// accounts and digests it exactly like the in-memory payload, and
// routes the body to the receiver without decoding it.
type wirePayload struct {
	name string
	kind metrics.Kind
	bits int
	body []byte
}

func (p wirePayload) Bits(int) int         { return p.bits }
func (p wirePayload) Kind() string         { return p.name }
func (p wirePayload) KindID() metrics.Kind { return p.kind }

// Step runs the node's round: ChaosKill first, then the ROUND/OUTBOX
// exchange. A dead connection or a protocol error marks the node lost
// with an empty outbox, and lossAdversary crashes it this round.
func (r *remote) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	if r.chaos != nil && r.chaos(round, r.id) {
		r.c.Close()
	}
	sends, annots, err := r.exchange(round, inbox)
	if err != nil {
		r.lost = round
		if !isConnError(err) {
			r.err = fmt.Errorf("realnet: node %d round %d: %w", r.id, round, err)
		}
		return nil
	}
	for _, a := range annots {
		env.Annotate(a)
	}
	return sends
}

func (r *remote) Done() bool { return r.done }

// Output is nil: retire collects the node's output after the run.
func (r *remote) Output() any { return nil }

// exchange ships the round's deliveries and decodes the OUTBOX reply.
// Send payloads become wirePayloads carrying the coordinator-local
// remap of the sender's declared kind; their bodies alias the frame,
// which is freshly allocated per read.
func (r *remote) exchange(round int, inbox []netsim.Delivery) (sends []netsim.Send, annots []string, err error) {
	buf := wire.AppendUvarint(r.buf[:0], uint64(round))
	buf = wire.AppendUvarint(buf, uint64(len(inbox)))
	for _, d := range inbox {
		body := d.Payload.(wirePayload).body
		buf = wire.AppendUvarint(buf, uint64(d.Port))
		buf = wire.AppendUvarint(buf, uint64(len(body)))
		buf = append(buf, body...)
	}
	r.buf = buf
	if err := wire.WriteTypedFrame(r.c, frameRound, buf); err != nil {
		return nil, nil, err
	}
	body, err := readFrameOf(r.c, frameOutbox)
	if err != nil {
		return nil, nil, err
	}
	echo, body, err := wire.Uvarint(body)
	if err != nil {
		return nil, nil, err
	}
	if echo != uint64(round) {
		return nil, nil, fmt.Errorf("realnet: outbox for round %d in round %d", echo, round)
	}
	if r.done, body, err = wire.Bool(body); err != nil {
		return nil, nil, err
	}
	acount, body, err := wire.Uvarint(body)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < acount; i++ {
		var a string
		if a, body, err = parseString(body); err != nil {
			return nil, nil, err
		}
		annots = append(annots, a)
	}
	count, body, err := wire.Uvarint(body)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < count; i++ {
		var port, bits int64
		if port, body, err = wire.Varint(body); err != nil {
			return nil, nil, err
		}
		var kid metrics.Kind
		if kid, body, err = wire.Kind(body, len(r.kinds)); err != nil {
			return nil, nil, err
		}
		if bits, body, err = wire.Varint(body); err != nil {
			return nil, nil, err
		}
		var blen uint64
		if blen, body, err = wire.Uvarint(body); err != nil {
			return nil, nil, err
		}
		if blen > uint64(len(body)) {
			return nil, nil, fmt.Errorf("realnet: send body of %d bytes overruns frame: %w", blen, wire.ErrShortBuffer)
		}
		ent := r.kinds[kid]
		sends = append(sends, netsim.Send{
			Port:    int(port),
			Payload: wirePayload{name: ent.name, kind: ent.local, bits: int(bits), body: body[:blen:blen]},
		})
		body = body[blen:]
	}
	return sends, annots, nil
}

// retire ends the node's run after the pipeline has returned: a CRASH
// frame carrying its crash round, or STOP, then the OUTPUT exchange. A
// lost node is not contacted. The result is nil unless the node shipped
// its output as gob; in-process runs recover it from the node goroutine
// instead.
func (r *remote) retire(crashedAt int) any {
	if r.lost != 0 {
		return nil
	}
	kind, body := frameStop, []byte(nil)
	if crashedAt != 0 {
		kind, body = frameCrash, wire.AppendUvarint(nil, uint64(crashedAt))
	}
	if wire.WriteTypedFrame(r.c, kind, body) != nil {
		return nil
	}
	out, err := readFrameOf(r.c, frameOutput)
	if err != nil {
		return nil
	}
	if hasGob, out, err := wire.Bool(out); err == nil && hasGob {
		// An undecodable output stays nil, which Serve reports as
		// a node that delivered no output.
		v, _ := decodeOutput(out)
		return v
	}
	return nil
}

// lossAdversary folds connection loss into the pipeline's crash path.
// It reports every node faulty, so the pipeline consults it for every
// live node in every round. It crashes a node whose connection died in
// this round's Step; that node's outbox is empty, so no DeliverOnCrash
// follows. Every other call goes to the run's adversary, for the nodes
// it calls faulty. It is not a CrashPlanner, since a loss can come in
// any round.
type lossAdversary struct {
	adv    netsim.Adversary
	faulty []bool // adv's static faulty set
	nodes  []*remote
}

func (a *lossAdversary) Faulty(int) bool { return true }

func (a *lossAdversary) CrashNow(u, round int, outbox []netsim.Send) bool {
	return a.nodes[u].lost != 0 || a.faulty[u] && a.adv.CrashNow(u, round, outbox)
}

func (a *lossAdversary) DeliverOnCrash(u, round, i int, s netsim.Send) bool {
	return a.adv.DeliverOnCrash(u, round, i, s)
}

// serve runs one execution on ln: the handshakes, the rounds on
// netsim's pipeline, then every node's retirement. On return every
// connection and the listener are closed.
func serve(cfg Config, spec systemSpec, ln net.Listener) (*netsim.Result, error) {
	n := cfg.N
	nodes := make([]*remote, n)
	defer func() {
		ln.Close()
		for _, r := range nodes {
			if r != nil {
				r.c.Close()
			}
		}
	}()
	if err := accept(cfg, spec, ln, nodes); err != nil {
		return nil, err
	}
	// The run is full: keep the listener draining so late or repeated
	// dials (a restarted node trying to rejoin, a stray client) are
	// rejected immediately instead of hanging in the backlog. Nodes are
	// identified by arrival order, so a revenant cannot reclaim its slot.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	adv := cfg.Adversary
	if adv == nil {
		adv = netsim.NoFaults{}
	}
	loss := &lossAdversary{adv: adv, faulty: make([]bool, n), nodes: nodes}
	machines := make([]netsim.Machine, n)
	for u, r := range nodes {
		r.chaos = cfg.ChaosKill
		loss.faulty[u] = adv.Faulty(u)
		machines[u] = r
	}
	res, err := netsim.Execute(netsim.Parallel, netsim.Config{
		N: n, Alpha: cfg.Alpha, Seed: cfg.Seed, MaxRounds: cfg.MaxRounds,
		CongestFactor: cfg.CongestFactor, Strict: cfg.Strict,
		Workers: n, Tracer: cfg.Tracer,
	}, machines, loss)
	// A protocol error retired its node no later than any strict-mode
	// abort, so the earliest one is the run's error.
	var failed *remote
	for _, r := range nodes {
		if r.err != nil && (failed == nil || r.lost < failed.lost) {
			failed = r
		}
	}
	if failed != nil {
		return nil, failed.err
	}
	if err != nil {
		return nil, err
	}
	res.Faulty = loss.faulty
	for u, r := range nodes {
		res.Outputs[u] = r.retire(res.CrashedAt[u])
		// An all-remote run gets every live node's output as gob.
		if spec.name != "" && res.Outputs[u] == nil && res.CrashedAt[u] == 0 {
			return nil, fmt.Errorf("realnet: node %d delivered no output", u)
		}
	}
	return res, nil
}

// accept handshakes the run's n connections in arrival order: arrival
// index is node id. A connection that dies before completing its hello
// does not consume a slot — a worker that lost the dial race against a
// partially-bound coordinator closes its connections and redials the
// whole batch, and those aborted dials must not poison the assembly.
func accept(cfg Config, spec systemSpec, ln net.Listener, nodes []*remote) error {
	localHash := codecTableHash()
	var buf []byte
	for id := 0; id < cfg.N; id++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("realnet: accept node %d: %w", id, err)
		}
		body, err := readFrameOf(c, frameHello)
		if err != nil {
			c.Close()
			if isConnError(err) {
				id--
				continue
			}
			return fmt.Errorf("realnet: hello of node %d: %w", id, err)
		}
		hel, err := parseHello(body)
		if err != nil {
			c.Close()
			return fmt.Errorf("realnet: hello of node %d: %w", id, err)
		}
		if err := wire.CheckHeader(hel.hdr, localHeader()); err != nil {
			c.Close()
			return fmt.Errorf("realnet: node %d: %w", id, err)
		}
		if hel.codecHash != localHash {
			c.Close()
			return fmt.Errorf("realnet: node %d payload codec table %#x differs from coordinator's %#x (mixed binaries?)", id, hel.codecHash, localHash)
		}
		r := &remote{id: id, c: c, kinds: make([]kindEntry, len(hel.kinds))}
		for i, name := range hel.kinds {
			r.kinds[i] = kindEntry{name: name, local: metrics.InternKind(name)}
		}
		buf = appendWelcome(buf[:0], welcome{
			hdr:       localHeader(),
			id:        id,
			n:         cfg.N,
			maxRounds: cfg.MaxRounds,
			alpha:     cfg.Alpha,
			seed:      cfg.Seed,
			tracing:   cfg.Tracer != nil,
			system:    spec.name,
			pOne:      spec.pOne,
		})
		if err := wire.WriteTypedFrame(c, frameWelcome, buf); err != nil {
			c.Close()
			return fmt.Errorf("realnet: welcome to node %d: %w", id, err)
		}
		nodes[id] = r
	}
	return nil
}
