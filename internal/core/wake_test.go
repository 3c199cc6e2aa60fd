package core

import (
	"fmt"
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// denseMachine hides a machine's netsim.Sleeper method, so the engine
// steps it in every round: the reference a sleeping run must match.
type denseMachine struct{ netsim.Machine }

// TestSleepersMatchDenseStepping is the differential test of the wake
// rule (nextWake): every core protocol runs once with its machines
// sleeping between wake-ups and once with them stepped in every round,
// and the two runs must agree on everything the engine reports. The
// crash cases use a fault.Plan (a crash calendar) with f = n/2 crashes
// spread over the whole run, so sleeping nodes crash too. At n = 4096
// and alpha = 1 about 1% of the nodes get no mail in round 1, which is
// what the round-2 wake-up exists for.
func TestSleepersMatchDenseStepping(t *testing.T) {
	protocols := []struct {
		name  string
		build func(RunConfig) (netsim.Config, []netsim.Machine, error)
	}{
		{"election", BuildElection},
		{"agreement", func(c RunConfig) (netsim.Config, []netsim.Machine, error) {
			return BuildAgreement(c, DeriveAgreementInputs(c.N, c.Seed, 0))
		}},
		{"minagree", func(c RunConfig) (netsim.Config, []netsim.Machine, error) {
			return BuildMinAgreement(c, DeriveMinAgreementValues(c.N, c.Seed))
		}},
	}
	sizes := []struct {
		n        int
		alpha    float64
		policies []fault.DropPolicy // nil: fault-free
	}{
		{256, 0.5, []fault.DropPolicy{fault.DropAll, fault.DropNone, fault.DropHalf, fault.DropRandom}},
		{4096, 1, nil},
	}
	for _, size := range sizes {
		if size.n > 256 && testing.Short() {
			continue
		}
		policies := size.policies
		if policies == nil {
			policies = []fault.DropPolicy{0}
		}
		for _, p := range protocols {
			for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
				for _, params := range []Params{{}, {EarlyStop: true}, {Explicit: true}, {EarlyStop: true, Explicit: true}} {
					for _, policy := range policies {
						faults := "fault-free"
						if policy != 0 {
							faults = "drop-" + policy.String()
						}
						name := fmt.Sprintf("%s/n%d/%s/early=%t/explicit=%t/%s",
							p.name, size.n, netsim.EngineName(mode), params.EarlyStop, params.Explicit, faults)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							cfg := RunConfig{N: size.n, Alpha: size.alpha, Seed: 7, Params: params}
							run := func(hide bool) *netsim.Result {
								ecfg, machines, err := p.build(cfg)
								if err != nil {
									t.Fatal(err)
								}
								if mode == netsim.Parallel {
									ecfg.Workers = 3
								}
								slept := false
								for u, m := range machines {
									if _, ok := m.(netsim.Sleeper); ok {
										slept = true
									}
									if hide {
										machines[u] = denseMachine{m}
									}
								}
								if !slept {
									t.Fatalf("%s machines do not implement netsim.Sleeper", p.name)
								}
								var adv netsim.Adversary
								if policy != 0 {
									adv = fault.Must(fault.NewRandomPlan(size.n, size.n/2, ecfg.MaxRounds, policy, rng.New(11)))
								}
								res, err := netsim.Execute(mode, ecfg, machines, adv)
								if err != nil {
									t.Fatal(err)
								}
								return res
							}
							assertSameExecution(t, run(true), run(false))
						})
					}
				}
			}
		}
	}
}

// assertSameExecution compares everything a netsim.Result reports.
func assertSameExecution(t *testing.T, dense, sparse *netsim.Result) {
	t.Helper()
	if dense.Digest != sparse.Digest {
		t.Errorf("digest: dense %#x, sleeping %#x", dense.Digest, sparse.Digest)
	}
	if dense.Rounds != sparse.Rounds {
		t.Errorf("rounds: dense %d, sleeping %d", dense.Rounds, sparse.Rounds)
	}
	for _, c := range []struct {
		what          string
		dense, sparse any
	}{
		{"messages", dense.Counters.Messages(), sparse.Counters.Messages()},
		{"bits", dense.Counters.Bits(), sparse.Counters.Bits()},
		{"per-kind counters", dense.Counters.PerKind(), sparse.Counters.PerKind()},
		{"per-round counters", dense.Counters.PerRound(), sparse.Counters.PerRound()},
		{"crash rounds", dense.CrashedAt, sparse.CrashedAt},
		{"outputs", dense.Outputs, sparse.Outputs},
		{"violations", dense.Violations, sparse.Violations},
	} {
		if d, s := fmt.Sprintf("%+v", c.dense), fmt.Sprintf("%+v", c.sparse); d != s {
			t.Errorf("%s differ:\n  dense:    %.300s\n  sleeping: %.300s", c.what, d, s)
		}
	}
}

// TestNextWake pins the core wake rule: busy nodes every round, everyone
// else in round 2, in endRound, and otherwise only on mail.
func TestNextWake(t *testing.T) {
	const end = 40
	for _, c := range []struct {
		round int
		busy  bool
		want  int
	}{
		{1, true, 2}, {1, false, 2}, {2, false, end}, {2, true, 3},
		{39, false, end}, {39, true, end}, {end, false, 0}, {end, true, end + 1}, {end + 5, false, 0},
	} {
		if got := nextWake(c.round, c.busy, end); got != c.want {
			t.Errorf("nextWake(%d, busy=%t, %d) = %d, want %d", c.round, c.busy, end, got, c.want)
		}
	}
}
