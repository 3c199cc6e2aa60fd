package sublinear_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"sublinear"
	"sublinear/internal/dst"
	"sublinear/internal/fault"
	"sublinear/internal/realnet"
	"sublinear/internal/rng"
	"sublinear/internal/trace"
)

// TestSoakRandomConfigurations is the chaos test: random network sizes,
// alphas, fault loads, policies and transports, checked against the hard
// invariants that must hold on EVERY run regardless of Monte Carlo
// outcomes:
//
//  1. the run never errors for a valid configuration;
//  2. an agreed election leader that crashed had self-proposed first
//     ("a crashed node is never elected");
//  3. at most one live node ends ELECTED;
//  4. a decided agreement value is some node's input;
//  5. accounting is sane (messages > 0, rounds within budget).
func TestSoakRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	src := rng.New(0x50a1234)
	const runs = 40
	for i := 0; i < runs; i++ {
		n := 64 << src.Intn(3) // 64, 128, 256
		minA := sublinear.MinimumAlpha(n)
		alpha := minA + src.Float64()*(1-minA)
		maxF := int((1 - alpha) * float64(n))
		f := 0
		if maxF > 0 {
			f = src.Intn(maxF + 1)
		}
		policy := []sublinear.DropPolicy{
			sublinear.DropAll, sublinear.DropNone, sublinear.DropHalf, sublinear.DropRandom,
		}[src.Intn(4)]
		opts := sublinear.Options{
			N:          n,
			Alpha:      alpha,
			Seed:       src.Uint64(),
			Explicit:   src.Bool(0.3),
			Concurrent: src.Bool(0.3),
		}
		if f > 0 {
			opts.Faults = &sublinear.FaultModel{
				Faulty: f,
				Policy: policy,
				Hunter: src.Bool(0.25),
			}
		}

		res, err := sublinear.Elect(opts)
		if err != nil {
			t.Fatalf("run %d (n=%d alpha=%.3f f=%d): %v", i, n, alpha, f, err)
		}
		tun := opts.Tuning
		tun.Explicit = opts.Explicit
		d, err := sublinear.Describe(tun, n, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Messages() <= 0 && res.Eval.Candidates > 0 {
			t.Errorf("run %d: no messages despite candidates", i)
		}
		if res.Rounds > d.ElectionRounds {
			t.Errorf("run %d: %d rounds exceeds budget %d", i, res.Rounds, d.ElectionRounds)
		}
		electedLive := 0
		for u, o := range res.Outputs {
			if o.State == sublinear.Elected && res.CrashedAt[u] == 0 {
				electedLive++
			}
		}
		if electedLive > 1 {
			t.Errorf("run %d: %d live ELECTED nodes", i, electedLive)
		}
		if res.Eval.Success && res.Eval.LeaderCrashed {
			if !res.Outputs[res.Eval.LeaderNode].SelfProposed {
				t.Errorf("run %d: crashed leader without self-proposal", i)
			}
		}

		inputs := sublinear.RandomInputs(n, src.Float64(), opts.Seed^0xf00d)
		ares, err := sublinear.Agree(opts, inputs)
		if err != nil {
			t.Fatalf("run %d agreement: %v", i, err)
		}
		if ares.Eval.Success {
			found := false
			for _, in := range inputs {
				if in == ares.Eval.Value {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("run %d: decided %d, not an input", i, ares.Eval.Value)
			}
		}
		if ares.Rounds > d.AgreementRounds+2 {
			t.Errorf("run %d: agreement rounds %d exceed budget %d", i, ares.Rounds, d.AgreementRounds)
		}
	}
}

// TestSoakRealnetChaos is the socket engine's chaos soak: random core
// systems over a Serve/Join split where a random node's connection is
// killed mid-run and immediately redialed (the restart must be rejected
// as a revenant, not re-admitted). Invariants on every iteration:
//
//  1. the coordinator survives and completes the run;
//  2. the loss is detected within one round — recorded as a crash at
//     exactly the kill round, both in the result and in the trace;
//  3. no other node is marked crashed;
//  4. the trace recorder's digest witness verifies (the event stream
//     folds to the digest the hub reported).
func TestSoakRealnetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	src := rng.New(0xc4a05)
	systems := []string{"election", "agreement", "minagree"}
	const runs = 8
	deadline := time.Now().Add(2 * time.Minute)
	for i := 0; i < runs && time.Now().Before(deadline); i++ {
		system := systems[src.Intn(len(systems))]
		n := 32
		alpha := 0.8 + src.Float64()*0.2
		seed := src.Uint64()
		victim := src.Intn(n)

		cfg, spec, err := dst.RealnetConfig(dst.Case{
			System: system, N: n, Alpha: alpha, Seed: seed, Schedule: fault.Schedule{N: n},
		})
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, system, err)
		}
		// Kill within the first rounds: every core system provably runs at
		// least 3 rounds, while MaxRounds is only an upper bound the run
		// may finish under — a kill scheduled past termination would
		// never fire and make the crash assertions vacuous.
		killRound := 1 + src.Intn(3)
		var buf bytes.Buffer
		rec, err := trace.NewRecorder(&buf, trace.Header{N: n, Seed: seed, Label: "chaos " + system})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tracer = rec
		var addr string
		restarted := make(chan error, 1)
		cfg.OnListen = func(a string) { addr = a }
		cfg.ChaosKill = func(round, node int) bool {
			if round != killRound || node != victim {
				return false
			}
			// The "restart": redial the coordinator like a rebooted
			// worker would. The hub must reject it (the round structure
			// admits no late joiners) without disturbing the run.
			go func(addr string) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					restarted <- nil
					return
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				_, err = conn.Read(make([]byte, 1))
				conn.Close()
				restarted <- err
			}(addr)
			return true
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		joinErr := make(chan error, 1)
		go func(addr string) { joinErr <- realnet.Join(addr, n, dst.Machines) }(ln.Addr().String())
		res, err := realnet.Serve(cfg, spec, ln)
		if err != nil {
			t.Fatalf("run %d (%s seed=%d kill=%d/%d): %v", i, system, seed, victim, killRound, err)
		}
		if err := <-joinErr; err != nil {
			t.Fatalf("run %d (%s): worker: %v", i, system, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("run %d (%s): trace witness: %v", i, system, err)
		}
		if res.CrashedAt[victim] != killRound {
			t.Errorf("run %d (%s): CrashedAt[%d] = %d, want %d (detection within one round)",
				i, system, victim, res.CrashedAt[victim], killRound)
		}
		for u, r := range res.CrashedAt {
			if u != victim && r != 0 {
				t.Errorf("run %d (%s): node %d marked crashed at %d; only %d was killed", i, system, u, r, victim)
			}
		}
		select {
		case err := <-restarted:
			if err == nil {
				t.Logf("run %d: restart rejected at dial", i)
			}
		case <-time.After(15 * time.Second):
			t.Errorf("run %d (%s): restarted connection neither closed nor reset", i, system)
		}
		sawCrash := false
		tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("run %d (%s): trace: %v", i, system, err)
		}
		for {
			ev, err := tr.Next()
			if err != nil {
				if err != io.EOF && !sawCrash {
					t.Logf("run %d: trace read ended: %v", i, err)
				}
				break
			}
			if ev.Op == trace.OpCrash && ev.Node == victim && ev.Round == killRound {
				sawCrash = true
			}
		}
		if !sawCrash {
			t.Errorf("run %d (%s): trace has no crash event for node %d round %d", i, system, victim, killRound)
		}
	}
}
