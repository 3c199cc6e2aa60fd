package realnet_test

// The differential conformance matrix: every registered clique protocol,
// across seeds, crash schedules and drop policies, must produce a socket
// run whose schema-v2 digest is byte-identical to the sequential
// simulator's. Both loops read the protocol registry (internal/dst):
// one through System.Run (the entry point dst campaigns and mc
// universes use), one through System.Build and Evaluate with a fixed
// setup.

import (
	"fmt"
	"sort"
	"testing"

	"sublinear/internal/dst"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
)

// policies is the full drop-policy sweep for crash schedules.
var policies = []struct {
	name   string
	policy fault.DropPolicy
}{
	{"drop-all", fault.DropAll},
	{"drop-none", fault.DropNone},
	{"drop-half", fault.DropHalf},
	{"drop-random", fault.DropRandom},
}

// crashSchedule builds an explicit f-crash schedule spread over the
// first rounds, all using the same policy.
func crashSchedule(n, f int, seed uint64, policy fault.DropPolicy) fault.Schedule {
	s := fault.Schedule{N: n, Seed: seed}
	for i := 0; i < f; i++ {
		s.Crashes = append(s.Crashes, fault.Crash{
			Node:   (i*5 + 1) % n,
			Round:  1 + i%3,
			Policy: policy,
		})
	}
	return s
}

// assertRunsEqual compares everything a dst.Run exposes.
func assertRunsEqual(t *testing.T, seq, real *dst.Run) {
	t.Helper()
	if seq.Digest != real.Digest {
		t.Errorf("digest: sequential %016x, realnet %016x", seq.Digest, real.Digest)
	}
	if seq.Rounds != real.Rounds {
		t.Errorf("rounds: sequential %d, realnet %d", seq.Rounds, real.Rounds)
	}
	if seq.Messages != real.Messages {
		t.Errorf("messages: sequential %d, realnet %d", seq.Messages, real.Messages)
	}
	if seq.Bits != real.Bits {
		t.Errorf("bits: sequential %d, realnet %d", seq.Bits, real.Bits)
	}
	if seq.Outputs != real.Outputs {
		t.Errorf("outputs diverge:\n  sequential: %s\n  realnet:    %s", seq.Outputs, real.Outputs)
	}
}

// TestConformanceDSTSystems runs every registered clique system over
// loopback sockets through its System.Run hook (the entry point dst
// campaigns and mc universes use) and asserts byte-identical runs
// against the sequential engine, under every drop policy. The paper's
// protocols also run at n = 64 with crashes over the whole run.
func TestConformanceDSTSystems(t *testing.T) {
	for _, name := range dst.AllSystems() {
		sys, _ := dst.Lookup(name)
		if sys.Topology != "" || name == "canary" {
			continue
		}
		// The core protocols' admissibility floor log^2(n)/n is 1 at
		// n=16, so a crash budget only exists from n=32 up.
		n := 16
		if sys.DefaultAlpha != nil {
			n = 32
		}
		alpha := sys.ResolveAlpha(n, 0)
		f := min(3, sys.MaxF(n, alpha))
		for _, seed := range []uint64{1, 2} {
			for _, pol := range policies {
				if f == 0 && pol.policy != fault.DropAll {
					continue // fault-free: policy is irrelevant, run once
				}
				t.Run(fmt.Sprintf("%s/n%d/seed%d/%s", name, n, seed, pol.name), func(t *testing.T) {
					t.Parallel()
					c := dst.Case{
						System:   name,
						N:        n,
						Alpha:    alpha,
						Seed:     seed,
						Schedule: crashSchedule(n, f, seed, pol.policy),
					}
					seq, err := sys.Run(c, netsim.Sequential, nil)
					if err != nil {
						t.Fatalf("sequential: %v", err)
					}
					real, err := sys.Run(c, netsim.RealNet, nil)
					if err != nil {
						t.Fatalf("realnet: %v", err)
					}
					assertRunsEqual(t, seq, real)
				})
			}
		}
		if sys.DefaultAlpha != nil {
			coreCrashesOverTheRun(t, sys)
		}
	}
}

// coreCrashesOverTheRun adds one of the paper's protocols at n = 64 with
// crashes spread over the whole run, not just its first rounds, under
// every drop policy. The socket lane steps every node in every round,
// while the simulator lets idle nodes sleep (netsim.Sleeper) and visits
// only the due crashes, so the two agreeing checks the wake rule and
// the crash calendar against a dense execution.
func coreCrashesOverTheRun(t *testing.T, sys *dst.System) {
	const n, seed = 64, 3
	alpha := sys.ResolveAlpha(n, 0)
	f := min(8, sys.MaxF(n, alpha))
	// Only the run's length is read here, so any inputs do.
	cfg, _, err := sys.Build(dst.Setup{N: n, Alpha: alpha, Seed: seed, F: sys.MaxF(n, alpha),
		Bits: make([]int, n), Values: make([]uint64, n)})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range policies {
		t.Run(fmt.Sprintf("%s/n%d/spread/%s", sys.Name, n, pol.name), func(t *testing.T) {
			t.Parallel()
			s := fault.Schedule{N: n, Seed: seed}
			for i := 0; i < f; i++ {
				// Crash i lands i/f of the way through the run; the last
				// two share a round.
				s.Crashes = append(s.Crashes, fault.Crash{
					Node:   (i*11 + 2) % n,
					Round:  1 + min(i, f-2)*cfg.MaxRounds/f,
					Policy: pol.policy,
				})
			}
			c := dst.Case{System: sys.Name, N: n, Alpha: alpha, Seed: seed, Schedule: s.Canonical()}
			seq, err := sys.Run(c, netsim.Sequential, nil)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			real, err := sys.Run(c, netsim.RealNet, nil)
			if err != nil {
				t.Fatalf("realnet: %v", err)
			}
			assertRunsEqual(t, seq, real)
		})
	}
}

// assertResultsEqual compares two engine results and their verdicts
// field by field, including the per-kind counter decomposition — the
// socket engine must not merely match totals but classify every message
// identically.
func assertResultsEqual(t *testing.T, seq, real *netsim.Result, seqVerdict, realVerdict string) {
	t.Helper()
	if seq.Digest != real.Digest {
		t.Errorf("digest: sequential %016x, realnet %016x", seq.Digest, real.Digest)
	}
	if seq.Rounds != real.Rounds {
		t.Errorf("rounds: sequential %d, realnet %d", seq.Rounds, real.Rounds)
	}
	if seqVerdict != realVerdict {
		t.Errorf("verdict: sequential %s, realnet %s", seqVerdict, realVerdict)
	}
	if sv, rv := fmt.Sprintf("%+v", seq.Outputs), fmt.Sprintf("%+v", real.Outputs); sv != rv {
		t.Errorf("outputs diverge:\n  sequential: %s\n  realnet:    %s", sv, rv)
	}
	if sv, rv := fmt.Sprintf("%v", seq.CrashedAt), fmt.Sprintf("%v", real.CrashedAt); sv != rv {
		t.Errorf("crashedAt: sequential %s, realnet %s", sv, rv)
	}
	if sv, rv := renderPerKind(seq), renderPerKind(real); sv != rv {
		t.Errorf("per-kind counters diverge:\n  sequential: %s\n  realnet:    %s", sv, rv)
	}
}

func renderPerKind(r *netsim.Result) string {
	per := r.Counters.PerKind()
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%+v ", k, per[k])
	}
	return out
}

func mustAdversary(t *testing.T, s fault.Schedule) netsim.Adversary {
	t.Helper()
	adv, err := s.Adversary()
	if err != nil {
		t.Fatalf("adversary: %v", err)
	}
	return adv
}

// TestConformanceBaselines builds every registered clique protocol that
// judges its runs from one hand-picked setup — fixed binary inputs, F =
// 3 — and runs it sequentially and over sockets, with a crash schedule
// where the protocol tolerates crashes.
func TestConformanceBaselines(t *testing.T) {
	const n = 16
	s := dst.Setup{N: n, F: 3, Bits: make([]int, n), Values: make([]uint64, n)}
	for i := 0; i < n; i++ {
		s.Bits[i] = (i / 3) % 2
		s.Values[i] = uint64(i*37) % 101
	}
	for _, name := range dst.AllSystems() {
		sys, _ := dst.Lookup(name)
		if sys.Evaluate == nil || sys.Topology != "" {
			continue
		}
		s := s
		s.Alpha = sys.ResolveAlpha(n, 0)
		faulty := sys.MaxF(n, s.Alpha) > 0
		for _, seed := range []uint64{1, 2} {
			for _, pol := range policies {
				if !faulty && pol.policy != fault.DropAll {
					continue // fault-free protocol: run once per seed
				}
				label := fmt.Sprintf("%s/seed%d", name, seed)
				if faulty {
					label += "/" + pol.name
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					s := s
					s.Seed = seed
					run := func(mode netsim.RunMode) (*netsim.Result, string) {
						var adv netsim.Adversary
						if faulty {
							adv = mustAdversary(t, crashSchedule(n, 3, seed, pol.policy))
						}
						cfg, machines, err := sys.Build(s)
						if err != nil {
							t.Fatalf("build: %v", err)
						}
						res, err := netsim.Execute(mode, cfg, machines, adv)
						if err != nil {
							t.Fatalf("mode %d: %v", mode, err)
						}
						ok, reason := sys.Evaluate(s, res)
						return res, fmt.Sprintf("(%v, %q)", ok, reason)
					}
					seq, seqVerdict := run(netsim.Sequential)
					real, realVerdict := run(netsim.RealNet)
					assertResultsEqual(t, seq, real, seqVerdict, realVerdict)
				})
			}
		}
	}
}

// TestConformanceDSTHook exercises the dst.CheckRealnet entry point —
// the hook dst campaigns and mc universes use to re-validate a failing
// schedule over sockets.
func TestConformanceDSTHook(t *testing.T) {
	c := dst.Case{
		System: "echo",
		N:      12,
		Alpha:  0.5,
		Seed:   7,
		Schedule: fault.Schedule{N: 12, Seed: 7, Crashes: []fault.Crash{
			{Node: 3, Round: 1, Policy: fault.DropHalf},
			{Node: 8, Round: 2, Policy: fault.DropRandom},
		}},
	}
	fail, err := dst.CheckRealnet(c)
	if err != nil {
		t.Fatalf("CheckRealnet: %v", err)
	}
	if fail != nil {
		t.Fatalf("CheckRealnet reported a failure on a healthy case: %+v", fail)
	}
	// The canary is deliberately broken: a mid-broadcast crash splits the
	// live nodes' ping counts. The socket engine must reproduce the same
	// oracle verdict the simulator finds.
	bad := dst.Case{
		System: "canary",
		N:      8,
		Alpha:  0.5,
		Seed:   1,
		Schedule: fault.Schedule{N: 8, Seed: 1, Crashes: []fault.Crash{
			{Node: 0, Round: 1, Policy: fault.DropHalf},
		}},
	}
	fail, err = dst.CheckRealnet(bad)
	if err != nil {
		t.Fatalf("CheckRealnet(canary): %v", err)
	}
	if fail == nil {
		t.Fatal("CheckRealnet(canary) found no failure; want canary-consistency oracle violation in both engines")
	}
	if fail.Kind == "divergence" {
		t.Fatalf("engines diverged on the canary instead of agreeing on the oracle violation: %s", fail.Detail)
	}
}
