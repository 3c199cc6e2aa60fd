package dst

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sublinear/internal/fault"
)

// TestCampaignCleanOnRealProtocols is the harness in its steady state:
// a deterministic mini-campaign over every real protocol finds no
// engine divergence and no oracle violation.
func TestCampaignCleanOnRealProtocols(t *testing.T) {
	res, err := RunCampaign(context.Background(), CampaignConfig{Cases: 9, Seed: 7}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases != 9 {
		t.Fatalf("checked %d cases, want 9", res.Cases)
	}
	for _, f := range res.Failures {
		t.Errorf("unexpected failure: %s (case %+v)", &f, f.Case)
	}
}

// canaryCampaign runs a campaign over the deliberately broken canary
// and returns its failures; the harness MUST find some.
func canaryCampaign(t *testing.T) []Failure {
	t.Helper()
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Systems: []string{"canary"}, Cases: 12, Seed: 3,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("campaign over the broken canary found no failure — the harness is blind")
	}
	return res.Failures
}

// TestCanarySelfTest is the harness's acceptance self-test: fuzzing the
// deliberately broken canary detects the consistency violation and
// shrinks every failure to at most two faulty nodes (the bug needs
// exactly one mid-broadcast crash).
func TestCanarySelfTest(t *testing.T) {
	for _, f := range canaryCampaign(t) {
		if f.Kind != "oracle" || f.Oracle != "canary-consistency" {
			t.Errorf("failure is %s/%s, want oracle/canary-consistency", f.Kind, f.Oracle)
		}
		if got := f.Case.Schedule.FaultyCount(); got > 2 {
			t.Errorf("minimized schedule still has %d faulty nodes, want <= 2: %+v", got, f.Case.Schedule)
		}
	}
}

// TestFailureReplaysDeterministically closes the repro loop: a
// minimized failing case, round-tripped through its JSON reproducer
// encoding, fails again with the identical failure — twice.
func TestFailureReplaysDeterministically(t *testing.T) {
	f := canaryCampaign(t)[0]
	enc, err := json.Marshal(f.Case)
	if err != nil {
		t.Fatal(err)
	}
	var replay Case
	if err := json.Unmarshal(enc, &replay); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := Check(replay)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatal("reproducer no longer fails")
		}
		if got.Kind != f.Kind || got.Oracle != f.Oracle || got.Detail != f.Detail {
			t.Fatalf("replay %d diverged: got %s, want %s", i, got, &f)
		}
	}
}

func TestCaseValidate(t *testing.T) {
	valid := Case{System: "election", N: 32, Alpha: 0.8, Seed: 1,
		Schedule: fault.Schedule{N: 32, Crashes: []fault.Crash{{Node: 3, Round: 1, Policy: fault.DropHalf}}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid case rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(c *Case)
	}{
		{"unknown system", func(c *Case) { c.System = "nope" }},
		{"n too small", func(c *Case) { c.N = 1; c.Schedule.N = 1 }},
		{"alpha out of range", func(c *Case) { c.Alpha = 1.5 }},
		{"p_one out of range", func(c *Case) { c.POne = 2 }},
		{"schedule n mismatch", func(c *Case) { c.Schedule.N = 16 }},
		{"invalid schedule", func(c *Case) { c.Schedule.Crashes[0].Round = 0 }},
		{"too many faulty", func(c *Case) {
			c.Alpha = 1 // crash budget 0
		}},
	}
	for _, tc := range cases {
		c := valid
		c.Schedule.Crashes = append([]fault.Crash(nil), valid.Schedule.Crashes...)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLookupAndRegistry(t *testing.T) {
	if _, err := Lookup("no-such-system"); err == nil {
		t.Fatal("unknown system resolved")
	}
	for _, name := range DefaultSystems() {
		if name == "canary" {
			t.Fatal("canary leaked into the default campaign systems")
		}
		if _, err := Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Lookup("canary"); err != nil {
		t.Fatalf("canary not registered: %v", err)
	}
	// The default campaign set is pinned (perfbench's dst-verify folds
	// its executions); the canary and the Table I comparators are opt-in.
	const defaults = "[agreement d2election echo election floodset minagree minflood wcelection]"
	if got := fmt.Sprint(DefaultSystems()); got != defaults {
		t.Fatalf("DefaultSystems %s, want %s", got, defaults)
	}
	const all = "[agreement allpairs amp canary d2election echo election floodset gk gossip kutten minagree minflood rotating wcelection]"
	if got := fmt.Sprint(AllSystems()); got != all {
		t.Fatalf("AllSystems %s, want %s", got, all)
	}
}

// TestMinimizeBudget: a zero budget returns the failure untouched.
func TestMinimizeBudget(t *testing.T) {
	f := canaryCampaign(t)[0]
	got, spent := Minimize(&f, 0)
	if spent != 0 {
		t.Fatalf("spent %d checks on a zero budget", spent)
	}
	if got != &f {
		t.Fatal("zero-budget minimize did not return its input")
	}
}

// TestMinimizeCanonicalRepro: minimization is a pure function of the
// failure's canonical schedule — two runs that catch the same bug with
// differently-ordered crash lists shrink to byte-identical reproducer
// files. mc relies on this to dedupe repro artifacts across shards.
func TestMinimizeCanonicalRepro(t *testing.T) {
	// Find a failing canary schedule with >= 2 crashes so that crash
	// ordering is observable in the un-canonicalized encoding.
	uni := fault.Universe{N: 4, MaxF: 2, Horizon: 2, Seed: 5}
	var found *Failure
	for i := int64(0); i < uni.Size() && found == nil; i++ {
		s := uni.At(i)
		if s.FaultyCount() < 2 {
			continue
		}
		c := Case{System: "canary", N: 4, Alpha: 0.5, Seed: 5, Schedule: s}
		f, err := Check(c)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil && f.Kind == "oracle" {
			found = f
		}
	}
	if found == nil {
		t.Fatal("no 2-crash canary failure in the n=4 universe")
	}
	reversed := *found
	rs := found.Case.Schedule
	rs.Crashes = append([]fault.Crash(nil), found.Case.Schedule.Crashes...)
	for i, j := 0, len(rs.Crashes)-1; i < j; i, j = i+1, j-1 {
		rs.Crashes[i], rs.Crashes[j] = rs.Crashes[j], rs.Crashes[i]
	}
	reversed.Case.Schedule = rs
	const budget = 200
	a, _ := Minimize(found, budget)
	b, _ := Minimize(&reversed, budget)
	aj, err := json.Marshal(a.Case)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Case)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("reproducers differ:\n%s\n%s", aj, bj)
	}
	// And re-minimizing an already minimal failure is a fixed point.
	c, _ := Minimize(a, budget)
	cj, err := json.Marshal(c.Case)
	if err != nil {
		t.Fatal(err)
	}
	if string(cj) != string(aj) {
		t.Fatalf("minimize not idempotent:\n%s\n%s", aj, cj)
	}
}

// TestCampaignHonorsContext: a pre-cancelled context checks nothing.
func TestCampaignHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCampaign(ctx, CampaignConfig{Cases: 50, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases != 0 {
		t.Fatalf("cancelled campaign still checked %d cases", res.Cases)
	}
}

func TestShardCampaigns(t *testing.T) {
	base := CampaignConfig{Cases: 10, Seed: 3, Systems: []string{"election"}}
	shards := ShardCampaigns(base, 4)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	total := 0
	seen := map[uint64]bool{}
	for i, s := range shards {
		total += s.Cases
		if seen[s.Seed] {
			t.Fatalf("shard %d reuses seed %d", i, s.Seed)
		}
		seen[s.Seed] = true
		if len(s.Systems) != 1 || s.Systems[0] != "election" {
			t.Fatalf("shard %d lost its system list: %+v", i, s.Systems)
		}
	}
	if total != 10 {
		t.Fatalf("shards cover %d cases, want 10", total)
	}
	// The decomposition is a pure function of (config, shard size).
	again := ShardCampaigns(base, 4)
	for i := range shards {
		if shards[i].Seed != again[i].Seed || shards[i].Cases != again[i].Cases {
			t.Fatalf("shard %d not reproducible: %+v vs %+v", i, shards[i], again[i])
		}
	}
	// Each shard really runs: a tiny sharded campaign completes cleanly.
	for _, s := range ShardCampaigns(CampaignConfig{Cases: 4, Seed: 11, Systems: []string{"election"}}, 2) {
		res, err := RunCampaign(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cases != s.Cases {
			t.Fatalf("shard ran %d/%d cases", res.Cases, s.Cases)
		}
	}
}
