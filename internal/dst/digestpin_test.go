package dst

import (
	"fmt"
	"testing"

	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// TestDigestSchemaVersionPinned locks the digest schema: any change to
// the event encoding must bump netsim.DigestSchemaVersion (and this pin,
// and the golden digests below) in the same commit, so stale reproducer
// expectations fail loudly instead of comparing incompatible hashes.
func TestDigestSchemaVersionPinned(t *testing.T) {
	if netsim.DigestSchemaVersion != 2 {
		t.Fatalf("DigestSchemaVersion = %d, want 2 — if the digest encoding changed on purpose, "+
			"update this pin and the golden digests in TestDigestGoldenValues", netsim.DigestSchemaVersion)
	}
}

// TestDigestGoldenValues replays canonical fixed-seed fault-free cases
// and compares every engine mode against digests recorded when schema v2
// landed. Cross-mode agreement alone would not catch a change that
// breaks all modes identically (say, a reordered fold); the pinned
// values do, and they prove digests are reproducible across processes —
// the property that lets a failing seed from one machine replay on
// another.
func TestDigestGoldenValues(t *testing.T) {
	golden := []struct {
		system string
		n      int
		seed   uint64
		want   uint64
	}{
		{"election", 32, 1, 0x102adbb0e868e75c},
		{"election", 32, 2, 0x19d6462b7a2636c5},
		{"agreement", 32, 1, 0xd8b88fc4e5100aa9},
		{"agreement", 32, 2, 0x68de0bf41eaec155},
	}
	for _, g := range golden {
		c := Case{System: g.system, N: g.n, Alpha: 0.9, Seed: g.seed, Schedule: fault.Schedule{N: g.n}}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		sys, err := Lookup(g.system)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
			t.Run(fmt.Sprintf("%s/seed%d/mode%d", g.system, g.seed, mode), func(t *testing.T) {
				res, err := sys.Run(c, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Digest != g.want {
					t.Errorf("digest = %#x, want %#x", res.Digest, g.want)
				}
			})
		}
	}
}

// TestTopoDigestGoldenValues pins the topology-family systems the same
// way: fault-free fixed-seed runs on their native graphs (cluster-d2 and
// wellconnected), compared across every worker mapping the differential
// uses. n = 64 so candidacy sampling actually varies with the seed — at
// n = 32 the small-n threshold makes every node a candidate and the
// digests of different seeds legitimately coincide.
func TestTopoDigestGoldenValues(t *testing.T) {
	golden := []struct {
		system string
		n      int
		seed   uint64
		want   uint64
	}{
		{"d2election", 64, 1, 0xe5fd79d22f033f0b},
		{"d2election", 64, 2, 0x9c3d7a58444619f0},
		{"wcelection", 64, 1, 0x27090982f0d36089},
		{"wcelection", 64, 2, 0x238e4cfdb586c7df},
	}
	for _, g := range golden {
		c := Case{System: g.system, N: g.n, Alpha: 0.9, Seed: g.seed, Schedule: fault.Schedule{N: g.n}}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		sys, err := Lookup(g.system)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
			t.Run(fmt.Sprintf("%s/seed%d/mode%d", g.system, g.seed, mode), func(t *testing.T) {
				res, err := sys.Run(c, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Digest != g.want {
					t.Errorf("digest = %#x, want %#x", res.Digest, g.want)
				}
			})
		}
	}
}

// pinCrashes builds an explicit schedule for a crash pin: crash i hits
// node (7i+3) mod n in rounds[i], all under one policy. Repeated rounds
// put several crashes in one round, which is what makes the crash
// pass's node order and the DropRandom coin order observable.
func pinCrashes(n int, seed uint64, policy fault.DropPolicy, rounds []int) fault.Schedule {
	s := fault.Schedule{N: n, Seed: seed}
	for i, r := range rounds {
		s.Crashes = append(s.Crashes, fault.Crash{Node: (7*i + 3) % n, Round: r, Policy: policy})
	}
	return s.Canonical()
}

// TestCrashDigestGoldenValues pins executions with crashes, recorded
// before the engine learned sparse rounds: every real default system
// under every drop policy, with crashes spread over the run and several
// in one round. The fault-free pins above never run the crash pass, so
// a change to its node order, its DeliverOnCrash order or its drop
// masks shows only here.
func TestCrashDigestGoldenValues(t *testing.T) {
	// Crash rounds per system: the core protocols run for dozens of
	// rounds, so their crashes reach well past round 3; the others end
	// within a few rounds.
	long := []int{1, 2, 2, 2, 5, 9, 9, 17, 30, 45}
	short := []int{1, 2, 2, 2, 3}
	golden := []struct {
		system string
		n      int
		policy fault.DropPolicy
		want   uint64
	}{
		{"election", 64, fault.DropAll, 0x494105eb6e2d2b87},
		{"election", 64, fault.DropNone, 0x1ebfd5a043f1c268},
		{"election", 64, fault.DropHalf, 0x22d8b4548e24b87b},
		{"election", 64, fault.DropRandom, 0x585919b44497ac59},
		{"agreement", 64, fault.DropAll, 0xcd25c29d1d4dbc6d},
		{"agreement", 64, fault.DropNone, 0x141a66ca4bb261f8},
		{"agreement", 64, fault.DropHalf, 0x8c360665ec995bc7},
		{"agreement", 64, fault.DropRandom, 0x72eabc88ab4228d8},
		{"minagree", 64, fault.DropAll, 0x69fbe4c83dee8da3},
		{"minagree", 64, fault.DropNone, 0x3cee2c69e6045c1d},
		{"minagree", 64, fault.DropHalf, 0x51c7485195ceb61f},
		{"minagree", 64, fault.DropRandom, 0xd3fb35de6360485f},
		{"floodset", 16, fault.DropAll, 0xe5637e6961c1577a},
		{"floodset", 16, fault.DropNone, 0xbe61cdf519ea5c70},
		{"floodset", 16, fault.DropHalf, 0x69b6eb5a49834d71},
		{"floodset", 16, fault.DropRandom, 0xa0adba8b839f72af},
		{"d2election", 64, fault.DropAll, 0x90ef8dfc59258838},
		{"d2election", 64, fault.DropNone, 0xcfc3283da01815ec},
		{"d2election", 64, fault.DropHalf, 0xd98c879d9e296980},
		{"d2election", 64, fault.DropRandom, 0xf593f1852b75b1cc},
		{"wcelection", 64, fault.DropAll, 0x9aaa20a2b1281cf7},
		{"wcelection", 64, fault.DropNone, 0xedebf6aadfbbfee8},
		{"wcelection", 64, fault.DropHalf, 0x648f18a6482d3b59},
		{"wcelection", 64, fault.DropRandom, 0xf0466e4b2986aec2},
	}
	for _, g := range golden {
		sys, err := Lookup(g.system)
		if err != nil {
			t.Fatal(err)
		}
		rounds := short
		if sys.DefaultAlpha != nil {
			rounds = long
		}
		alpha := sys.ResolveAlpha(g.n, 0)
		rounds = rounds[:min(len(rounds), sys.MaxF(g.n, alpha))]
		c := Case{System: g.system, N: g.n, Alpha: alpha, Seed: 3, Schedule: pinCrashes(g.n, 11, g.policy, rounds)}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
			t.Run(fmt.Sprintf("%s/%s/mode%d", g.system, g.policy, mode), func(t *testing.T) {
				res, err := sys.Run(c, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Digest != g.want {
					t.Errorf("digest = %#x, want %#x", res.Digest, g.want)
				}
			})
		}
	}
}

// TestAdversaryDigestGoldenValues pins the paper's protocols under the
// randomized adversaries the experiments use, outside any schedule: a
// fault.Plan with f = n/2 DropRandom crashes over the whole run, and a
// Hunter, which decides crashes by watching outboxes.
func TestAdversaryDigestGoldenValues(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 2048 adversary pins skipped in -short mode")
	}
	const n, alpha = 2048, 0.5
	d, err := core.DeriveParams(core.Params{}, n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(seed uint64) netsim.Adversary {
		return fault.Must(fault.NewRandomPlan(n, n/2, d.ElectionRounds, fault.DropRandom, rng.New(seed)))
	}
	hunter := func(seed uint64) netsim.Adversary {
		return fault.NewHunter(n, n/2, 8, fault.DropRandom, rng.New(seed))
	}
	inputs := core.DeriveAgreementInputs(n, 5, 0)
	golden := []struct {
		name string
		run  func(core.RunConfig) (uint64, error)
		adv  func(uint64) netsim.Adversary
		want uint64
	}{
		{"election/plan", func(c core.RunConfig) (uint64, error) {
			r, err := core.RunElection(c)
			if err != nil {
				return 0, err
			}
			return r.Digest, nil
		}, plan, 0xf4cbb5f92996b574},
		{"agreement/plan", func(c core.RunConfig) (uint64, error) {
			r, err := core.RunAgreement(c, inputs)
			if err != nil {
				return 0, err
			}
			return r.Digest, nil
		}, plan, 0xbe97fd4257e4690c},
		{"election/hunter", func(c core.RunConfig) (uint64, error) {
			r, err := core.RunElection(c)
			if err != nil {
				return 0, err
			}
			return r.Digest, nil
		}, hunter, 0x51071e90cd9bd859},
	}
	for _, g := range golden {
		for _, mode := range []netsim.RunMode{netsim.Sequential, netsim.Parallel} {
			t.Run(fmt.Sprintf("%s/mode%d", g.name, mode), func(t *testing.T) {
				got, err := g.run(core.RunConfig{N: n, Alpha: alpha, Seed: 5, Mode: mode, Adversary: g.adv(17)})
				if err != nil {
					t.Fatal(err)
				}
				if got != g.want {
					t.Errorf("digest = %#x, want %#x", got, g.want)
				}
			})
		}
	}
}
