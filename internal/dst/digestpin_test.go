package dst

import (
	"fmt"
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
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
