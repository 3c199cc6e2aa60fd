package simsvc

import (
	"context"
	"testing"
)

// pinnedRep is one repetition's observable outcome.
type pinnedRep struct {
	msgs, bits, rounds int64
	success            bool
}

// TestExecutionsPinned pins every accepted run protocol's executions as
// the service runs them: one small spec each, with crashes wherever the
// protocol takes them and a non-native graph for the topology
// protocols. Each spec runs on both engines, and every repetition's
// messages, bits, rounds and verdict must match the recorded values, so
// a change to the service's input, crash-plan or dispatch derivation
// shows up here even when the protocols themselves are unchanged.
func TestExecutionsPinned(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want [3]pinnedRep
	}{
		{JobSpec{Protocol: "election", N: 64, Alpha: 0.6, Policy: "half", Seed: 11},
			[3]pinnedRep{{67924, 1859968, 270, true}, {48842, 1312821, 270, true}, {44606, 1200108, 270, true}}},
		{JobSpec{Protocol: "agreement", N: 64, Alpha: 0.6, Policy: "random", Seed: 12},
			[3]pinnedRep{{4429, 10664, 115, true}, {3655, 8815, 115, true}, {3827, 9374, 115, true}}},
		{JobSpec{Protocol: "minagree", N: 64, Alpha: 0.6, Policy: "all", Seed: 13},
			[3]pinnedRep{{9720, 262440, 115, true}, {8792, 237384, 115, true}, {6929, 187083, 115, true}}},
		{JobSpec{Protocol: "gk", N: 32, Alpha: 0.5, Policy: "half", Seed: 14},
			[3]pinnedRep{{423, 846, 12, true}, {374, 748, 12, true}, {321, 642, 12, true}}},
		{JobSpec{Protocol: "floodset", N: 32, Alpha: 0.5, Policy: "random", Seed: 15},
			[3]pinnedRep{{1612, 3224, 18, true}, {1364, 2728, 18, true}, {1488, 2976, 18, true}}},
		{JobSpec{Protocol: "gossip", N: 32, Alpha: 0.5, Policy: "half", Seed: 16},
			[3]pinnedRep{{1490, 2980, 21, true}, {1386, 2772, 21, true}, {1349, 2698, 21, true}}},
		{JobSpec{Protocol: "rotating", N: 32, Alpha: 0.75, Policy: "random", Seed: 17},
			[3]pinnedRep{{248, 496, 10, true}, {248, 496, 10, true}, {217, 434, 10, true}}},
		{JobSpec{Protocol: "allpairs", N: 32, Alpha: 0.75, Policy: "none", Seed: 18},
			[3]pinnedRep{{1953, 42966, 10, true}, {1953, 42966, 10, true}, {1891, 41602, 10, true}}},
		{JobSpec{Protocol: "kutten", N: 64, Seed: 19},
			[3]pinnedRep{{1914, 49764, 3, true}, {1716, 44616, 3, true}, {1386, 36036, 3, true}}},
		{JobSpec{Protocol: "amp", N: 64, POne: 0.3, Seed: 20},
			[3]pinnedRep{{1716, 3432, 3, true}, {1914, 3828, 3, true}, {1716, 3432, 3, true}}},
		{JobSpec{Protocol: "d2election", N: 32, Alpha: 0.75, Policy: "half", Topology: "star", Seed: 21},
			[3]pinnedRep{{122, 1830, 3, true}, {120, 1800, 3, true}, {122, 1830, 3, false}}},
		{JobSpec{Protocol: "wcelection", N: 32, Alpha: 0.75, Policy: "all", Topology: "cluster-d2", Seed: 22},
			[3]pinnedRep{{895, 13425, 3, true}, {862, 12930, 3, true}, {864, 12960, 3, true}}},
	}
	for _, tc := range cases {
		for _, engine := range []string{"seq", "concurrent"} {
			spec := tc.spec
			spec.Engine, spec.Raw, spec.Reps = engine, true, 3
			t.Run(spec.Protocol+"/"+engine, func(t *testing.T) {
				norm, err := spec.Normalize(DefaultLimits)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runSpec(context.Background(), norm)
				if err != nil {
					t.Fatal(err)
				}
				var got [3]pinnedRep
				for r := range got {
					got[r] = pinnedRep{res.Raw.Messages[r], res.Raw.Bits[r], res.Raw.Rounds[r], res.Raw.Success[r]}
				}
				if got != tc.want {
					t.Errorf("repetitions\n got %+v\nwant %+v", got, tc.want)
				}
			})
		}
	}
}
