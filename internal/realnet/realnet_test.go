package realnet_test

// Engine unit tests: violation parity with the simulator, strict-mode
// aborts, adversary call-sequence parity, chaos (unplanned disconnect)
// detection, revenant rejection, trace-stream equality, and
// configuration validation.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/realnet"
	"sublinear/internal/trace"
)

// violatorMachine commits every CONGEST sin in round 1: an out-of-range
// port, a duplicated port, and (when the budget is squeezed via
// CongestFactor 1) over-budget payloads.
type violatorMachine struct {
	lastRound int
}

func (m *violatorMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round != 1 || env.ID != 0 {
		return nil
	}
	return []netsim.Send{
		{Port: env.N + 5, Payload: chatMsg{round: 1}},
		{Port: 1, Payload: chatMsg{round: 1}},
		{Port: 1, Payload: chatMsg{round: 2}},
	}
}

func (m *violatorMachine) Done() bool  { return m.lastRound >= 2 }
func (m *violatorMachine) Output() any { return m.lastRound }

func violatorConfig(strict bool) netsim.Config {
	return netsim.Config{
		N: 6, Alpha: 0.5, Seed: 3, MaxRounds: 4,
		CongestFactor: 1, // budget 3 bits < chatMsg's 8: every send is over budget
		Strict:        strict,
	}
}

func violatorMachines(n int) []netsim.Machine {
	machines := make([]netsim.Machine, n)
	for u := range machines {
		machines[u] = &violatorMachine{}
	}
	return machines
}

// TestViolationParity: in non-strict mode both engines must record the
// identical violation list (same nodes, rounds, reason strings, order)
// and still agree on the digest — violations are part of the folded
// execution fingerprint.
func TestViolationParity(t *testing.T) {
	cfg := violatorConfig(false)
	seq, err := netsim.Execute(netsim.Sequential, cfg, violatorMachines(cfg.N), nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	real, err := netsim.Execute(netsim.RealNet, cfg, violatorMachines(cfg.N), nil)
	if err != nil {
		t.Fatalf("realnet: %v", err)
	}
	if len(seq.Violations) == 0 {
		t.Fatal("violator machine produced no violations; test is vacuous")
	}
	if !reflect.DeepEqual(seq.Violations, real.Violations) {
		t.Errorf("violations diverge:\n  sequential: %+v\n  realnet:    %+v", seq.Violations, real.Violations)
	}
	if seq.Digest != real.Digest {
		t.Errorf("digest: sequential %016x, realnet %016x", seq.Digest, real.Digest)
	}
}

// TestStrictAbortParity: in strict mode both engines abort on the first
// violation through the same pipeline, so the errors are identical.
func TestStrictAbortParity(t *testing.T) {
	cfg := violatorConfig(true)
	_, seqErr := netsim.Execute(netsim.Sequential, cfg, violatorMachines(cfg.N), nil)
	_, realErr := netsim.Execute(netsim.RealNet, cfg, violatorMachines(cfg.N), nil)
	if seqErr == nil || realErr == nil {
		t.Fatalf("strict run did not abort: sequential %v, realnet %v", seqErr, realErr)
	}
	if seqErr.Error() != realErr.Error() {
		t.Errorf("abort errors diverge:\n  sequential: %s\n  realnet:    %s", seqErr, realErr)
	}
}

// callLog forwards to a schedule adversary and records every CrashNow
// and DeliverOnCrash call with its answer. Embedding the interface hides
// the schedule's CrashPlanner, so no engine may skip a consultation.
type callLog struct {
	netsim.Adversary
	calls []string
}

func (a *callLog) CrashNow(u, round int, outbox []netsim.Send) bool {
	ok := a.Adversary.CrashNow(u, round, outbox)
	a.calls = append(a.calls, fmt.Sprintf("CrashNow(%d, %d, %d sends) = %v", u, round, len(outbox), ok))
	return ok
}

func (a *callLog) DeliverOnCrash(u, round, i int, s netsim.Send) bool {
	ok := a.Adversary.DeliverOnCrash(u, round, i, s)
	a.calls = append(a.calls, fmt.Sprintf("DeliverOnCrash(%d, %d, %d, port %d) = %v", u, round, i, s.Port, ok))
	return ok
}

// TestAdversaryCallSequence: an adversary that is not a CrashPlanner
// sees the identical CrashNow/DeliverOnCrash call sequence, answers
// included, from the sequential engine and over sockets.
func TestAdversaryCallSequence(t *testing.T) {
	const n = 8
	sched := fault.Schedule{N: n, Seed: 6, Crashes: []fault.Crash{
		{Node: 2, Round: 2, Policy: fault.DropRandom},
		{Node: 5, Round: 4, Policy: fault.DropHalf},
	}}
	record := func(mode netsim.RunMode) []string {
		t.Helper()
		adv, err := sched.Adversary()
		if err != nil {
			t.Fatalf("adversary: %v", err)
		}
		log := &callLog{Adversary: adv}
		_, err = netsim.Execute(mode, netsim.Config{
			N: n, Alpha: 0.5, Seed: 6, MaxRounds: chatRounds + 2,
		}, chatterMachines(n, 2), log)
		if err != nil {
			t.Fatalf("%s: %v", netsim.EngineName(mode), err)
		}
		return log.calls
	}
	seq, real := record(netsim.Sequential), record(netsim.RealNet)
	if !strings.Contains(strings.Join(seq, "\n"), "DeliverOnCrash") {
		t.Fatalf("no DeliverOnCrash call in %q; test is vacuous", seq)
	}
	if !reflect.DeepEqual(seq, real) {
		t.Errorf("adversary call sequences diverge:\n  sequential: %q\n  realnet:    %q", seq, real)
	}
}

// TestTraceStreamIdentical records both engines' event streams through
// trace.Recorder and diffs them — the socket engine must emit the exact
// event sequence, which is what makes tracectl diff work across the
// sim/real boundary.
func TestTraceStreamIdentical(t *testing.T) {
	const n = 10
	sched := fault.Schedule{N: n, Seed: 5, Crashes: []fault.Crash{
		{Node: 1, Round: 1, Policy: fault.DropHalf},
		{Node: 6, Round: 3, Policy: fault.DropRandom},
	}}
	record := func(mode netsim.RunMode) *bytes.Buffer {
		t.Helper()
		var buf bytes.Buffer
		rec, err := trace.NewRecorder(&buf, trace.Header{N: n, Seed: 5, Label: netsim.EngineName(mode)})
		if err != nil {
			t.Fatalf("recorder: %v", err)
		}
		adv, err := sched.Adversary()
		if err != nil {
			t.Fatalf("adversary: %v", err)
		}
		_, err = netsim.Execute(mode, netsim.Config{
			N: n, Alpha: 0.5, Seed: 5, MaxRounds: chatRounds + 2, Tracer: rec,
		}, chatterMachines(n, 1), adv)
		if err != nil {
			t.Fatalf("%s: %v", netsim.EngineName(mode), err)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: close recorder: %v", netsim.EngineName(mode), err)
		}
		return &buf
	}
	a, b := record(netsim.Sequential), record(netsim.RealNet)
	div, err := trace.Diff(bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if div != nil {
		t.Errorf("event streams diverge: %s", div)
	}
}

// TestChaosKillDetectedAsCrash force-closes a node's connection at the
// start of round 2. The coordinator must detect the loss within that
// round — at its barrier — and fold it into the result and trace as a
// crash at exactly that round.
func TestChaosKillDetectedAsCrash(t *testing.T) {
	const n, victim, killRound = 8, 3, 2
	chaosRun := func(rec *trace.Recorder) *netsim.Result {
		t.Helper()
		var tracer netsim.Tracer
		if rec != nil {
			tracer = rec
		}
		res, err := realnet.Run(realnet.Config{
			N: n, Alpha: 0.5, Seed: 4, MaxRounds: chatRounds + 2,
			Tracer: tracer,
			ChaosKill: func(round, node int) bool {
				return round == killRound && node == victim
			},
		}, chatterMachines(n, victim))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.Header{N: n, Seed: 4, Label: "chaos"})
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	res := chaosRun(rec)
	// Close verifies the digest witness: the recorded event stream folds
	// to the digest the hub reported.
	if err := rec.Close(); err != nil {
		t.Fatalf("close recorder: %v", err)
	}
	if res.CrashedAt[victim] != killRound {
		t.Fatalf("CrashedAt[%d] = %d, want %d", victim, res.CrashedAt[victim], killRound)
	}
	for u := range res.CrashedAt {
		if u != victim && res.CrashedAt[u] != 0 {
			t.Errorf("node %d reported crashed at %d; only node %d was killed", u, res.CrashedAt[u], victim)
		}
	}
	// The chaos path must itself be deterministic: the same kill at the
	// same barrier folds to the same digest on every run.
	if again := chaosRun(nil); again.Digest != res.Digest {
		t.Errorf("chaos digest unstable: %016x then %016x", res.Digest, again.Digest)
	}
	// The recorded trace must contain the crash event at the kill round.
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace reader: %v", err)
	}
	sawCrash := false
	for {
		ev, err := r.Next()
		if err != nil {
			break
		}
		if ev.Op == trace.OpCrash && ev.Node == victim && ev.Round == killRound {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Errorf("trace has no crash event for node %d round %d", victim, killRound)
	}
}

// TestRevenantRejected aims an extra connection at a live hub after the
// handshake is complete; the hub must close it without disturbing the
// run.
func TestRevenantRejected(t *testing.T) {
	const n = 6
	var (
		addrMu sync.Mutex
		addr   string
		once   sync.Once
		revErr = make(chan error, 1)
	)
	res, err := realnet.Run(realnet.Config{
		N: n, Alpha: 0.5, Seed: 8, MaxRounds: chatRounds + 2,
		OnListen: func(a string) {
			addrMu.Lock()
			addr = a
			addrMu.Unlock()
		},
		ChaosKill: func(round, node int) bool {
			// Round 2 is past the handshake: every legitimate node is
			// connected, so a new dial is a revenant.
			if round == 2 {
				once.Do(func() {
					addrMu.Lock()
					a := addr
					addrMu.Unlock()
					go func() {
						conn, err := net.Dial("tcp", a)
						if err != nil {
							revErr <- nil // listener already closed: rejected at dial
							return
						}
						conn.SetReadDeadline(time.Now().Add(5 * time.Second))
						_, err = conn.Read(make([]byte, 1))
						conn.Close()
						revErr <- err
					}()
				})
			}
			return false
		},
	}, chatterMachines(n, 0))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	seq, err := netsim.Execute(netsim.Sequential, netsim.Config{
		N: n, Alpha: 0.5, Seed: 8, MaxRounds: chatRounds + 2,
	}, chatterMachines(n, 0), nil)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	if res.Digest != seq.Digest {
		t.Errorf("revenant disturbed the run: digest %016x, want %016x", res.Digest, seq.Digest)
	}
	select {
	case err := <-revErr:
		if err == nil {
			t.Log("revenant rejected before or at dial")
		} else {
			t.Logf("revenant connection closed by hub: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("revenant connection was neither closed nor reset within 10s")
	}
}

// TestRecordModeRejected: the influence-cloud message trace cannot be
// captured over sockets; asking for it must fail loudly, not silently
// return an un-analysable result.
func TestRecordModeRejected(t *testing.T) {
	_, err := netsim.Execute(netsim.RealNet, netsim.Config{
		N: 4, Alpha: 0.5, Seed: 1, MaxRounds: 2, Record: true,
	}, chatterMachines(4, 0), nil)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("Record over sockets: got %v, want unsupported error", err)
	}
}

// TestConfigValidation covers the constructor-style checks.
func TestConfigValidation(t *testing.T) {
	if _, err := realnet.Run(realnet.Config{N: 1, Alpha: 0.5, MaxRounds: 1}, chatterMachines(1, 0)); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := realnet.Run(realnet.Config{N: 4, Alpha: 0.5, MaxRounds: 1}, chatterMachines(3, 0)); err == nil {
		t.Error("machine count mismatch accepted")
	}
	if _, err := realnet.Run(realnet.Config{N: 4, Alpha: 0.5, MaxRounds: 0}, chatterMachines(4, 0)); err == nil {
		t.Error("MaxRounds=0 accepted")
	}
	if _, err := realnet.Run(realnet.Config{N: 4, Alpha: 1.5, MaxRounds: 1}, chatterMachines(4, 0)); err == nil {
		t.Error("alpha out of range accepted")
	}
	machines := chatterMachines(4, 0)
	machines[2] = nil
	if _, err := realnet.Run(realnet.Config{N: 4, Alpha: 0.5, MaxRounds: 1}, machines); err == nil {
		t.Error("nil machine accepted")
	}
}
