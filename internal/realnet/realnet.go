// Package realnet executes netsim machines over real TCP sockets with
// the same contract — and the same execution digest — as the in-process
// engines.
//
// The engine is a coordinator (the hub) plus one connection per node.
// In-process runs (Run) spawn a goroutine per node that dials the hub
// over loopback; multi-process runs (Serve/Join, and cmd/realnode on top
// of them) put the same node loop in worker processes, so an n=64
// execution can span a docker-compose fleet while the coordinator still
// observes one synchronous round structure.
//
// Conformance holds by construction: the hub runs the execution on
// netsim's own round pipeline (netsim.Parallel, one worker per node, so
// every node's round trip overlaps). Each node connection is a remote
// netsim.Machine whose Step ships the round's deliveries in a ROUND
// frame and returns the node's OUTBOX as opaque payloads that carry
// their kind and declared bit size. Validation, accounting, digest
// folds, crash decisions, Tracer order and quiescence are the
// pipeline's code, so for the same (config, machines, adversary) triple
// Run produces a netsim.Result whose Digest is byte-equal to the
// Sequential engine's, and an adversary that is not a CrashPlanner sees
// the Sequential engine's exact CrashNow/DeliverOnCrash call sequence.
//
// A node the adversary crashes in round r gets no ROUND frame after r.
// Its CRASH frame, carrying r, comes once the pipeline returns; the node
// then hands back its crash-frozen output and its socket closes. A
// connection that dies without being scheduled (chaos, a killed worker)
// fails that round's Step, and an adversary wrapper crashes the node in
// the same round, so the loss folds into the digest and trace exactly
// where a scheduled crash would. A protocol error, such as a malformed
// OUTBOX, retires its node the same way and fails the run with an error
// naming the node and round once the pipeline returns.
//
// The engine registers itself as netsim.RealNet, so callers that
// dispatch through netsim.Execute (core, baseline, dst) reach sockets by
// flipping the mode; dst can diff it against the Sequential reference
// like any other engine.
package realnet

import (
	"errors"
	"fmt"
	"net"

	"sublinear/internal/netsim"
)

// Config parameterises a socket run. The fields mirror netsim.Config;
// Workers has no meaning here (concurrency is one goroutine or process
// per node by construction) and Record is unsupported — the message
// trace for influence-cloud analysis would require shipping full
// payload provenance through the hub.
type Config struct {
	// N is the number of nodes. Required, >= 2.
	N int
	// Alpha is the guaranteed fraction of non-faulty nodes.
	Alpha float64
	// Seed seeds the run; node u's private coins derive from it as
	// rng.New(Seed).Split(u), exactly like the simulator, so worker
	// processes reconstruct identical coin streams from the welcome
	// frame alone.
	Seed uint64
	// MaxRounds caps the execution length. Required, >= 1.
	MaxRounds int
	// CongestFactor c sets the per-message budget to c*ceil(log2 n)
	// bits. Zero selects the netsim default.
	CongestFactor int
	// Strict aborts the run on CONGEST violations, with the same
	// classification as the simulator.
	Strict bool
	// Adversary injects crash faults. A fault.Schedule adversary drives
	// identical CrashNow/DeliverOnCrash decisions here and in the
	// simulator; nil means no faults.
	Adversary netsim.Adversary
	// Tracer observes the run's event stream, in the exact order the
	// Sequential engine would emit it.
	Tracer netsim.Tracer
	// ChaosKill, if set, is consulted at the start of each live node's
	// round, concurrently across nodes; returning true force-closes the
	// node's connection so the run exercises the unplanned-disconnect
	// path: the hub must detect the loss in that round and record it as
	// a crash.
	ChaosKill func(round, node int) bool
	// OnListen, if set, receives the coordinator's bound address before
	// any node dials — tests use it to aim extra (rejected) connections
	// at a live hub.
	OnListen func(addr string)
}

func (cfg *Config) validate(machines int) error {
	if cfg.N < 2 {
		return fmt.Errorf("realnet: need at least 2 nodes, got %d", cfg.N)
	}
	if machines >= 0 && machines != cfg.N {
		return fmt.Errorf("realnet: %d machines for %d nodes", machines, cfg.N)
	}
	if cfg.MaxRounds < 1 {
		return fmt.Errorf("realnet: MaxRounds must be positive, got %d", cfg.MaxRounds)
	}
	if !(cfg.Alpha > 0 && cfg.Alpha <= 1) {
		return fmt.Errorf("realnet: alpha %v outside (0,1]", cfg.Alpha)
	}
	return nil
}

func init() {
	netsim.RegisterEngine(netsim.RealNet, "realnet", func(cfg netsim.Config, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
		if cfg.Record {
			return nil, errors.New("realnet: Record (message tracing for influence clouds) is not supported over sockets")
		}
		return Run(Config{
			N:             cfg.N,
			Alpha:         cfg.Alpha,
			Seed:          cfg.Seed,
			MaxRounds:     cfg.MaxRounds,
			CongestFactor: cfg.CongestFactor,
			Strict:        cfg.Strict,
			Adversary:     adv,
			Tracer:        cfg.Tracer,
		}, machines)
	})
}

// Run executes machines over loopback TCP: a hub listening on an
// ephemeral port, one client goroutine per node dialing in. The result
// carries the same digest the Sequential simulator computes for this
// configuration.
func Run(cfg Config, machines []netsim.Machine) (*netsim.Result, error) {
	if err := cfg.validate(len(machines)); err != nil {
		return nil, err
	}
	for u, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("realnet: machine %d is nil", u)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("realnet: listen: %w", err)
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr().String())
	}

	type nodeResult struct {
		id  int
		out any
		err error
	}
	results := make(chan nodeResult, cfg.N)
	addr := ln.Addr().String()
	for i := 0; i < cfg.N; i++ {
		go func() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				results <- nodeResult{id: -1, err: err}
				return
			}
			id, out, err := runNode(conn, func(w welcome) (netsim.Machine, error) {
				if w.id < 0 || w.id >= len(machines) {
					return nil, fmt.Errorf("realnet: welcome assigns id %d beyond %d machines", w.id, len(machines))
				}
				return machines[w.id], nil
			}, nil)
			results <- nodeResult{id: id, out: out, err: err}
		}()
	}

	res, runErr := serve(cfg, systemSpec{}, ln)
	// The hub has closed (or force-closed, on error) every connection, so
	// all node goroutines terminate; their outputs fill the slots the
	// socket could not deliver — crash-frozen state rides back in-process.
	for i := 0; i < cfg.N; i++ {
		nr := <-results
		if nr.id < 0 {
			if runErr == nil {
				runErr = fmt.Errorf("realnet: node failed before handshake: %w", nr.err)
			}
			continue
		}
		if runErr == nil && res != nil && res.Outputs[nr.id] == nil {
			res.Outputs[nr.id] = nr.out
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
