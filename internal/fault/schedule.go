package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// A Schedule is a fully explicit, serializable adversary: which nodes
// crash, in which round, and under which crash-round delivery policy. It
// is the unit of state the deterministic-simulation harness
// (internal/dst) fuzzes, replays, and shrinks — unlike Plan and Hunter,
// whose choices live inside an rng stream, every decision here is a
// plain field, so a failing schedule can be minimized structurally and
// committed as a JSON reproducer.
type Schedule struct {
	// N is the network size the schedule was generated for.
	N int `json:"n"`
	// Seed drives the DropRandom coin flips; irrelevant for the other
	// policies.
	Seed uint64 `json:"seed,omitempty"`
	// Crashes lists the faulty nodes; a node appears at most once.
	Crashes []Crash `json:"crashes,omitempty"`
}

// Crash is one faulty node's fate: crash in round Round, filtering the
// crash-round outbox with Policy.
type Crash struct {
	Node   int        `json:"node"`
	Round  int        `json:"round"`
	Policy DropPolicy `json:"policy"`
}

// Validate checks the schedule's internal consistency.
func (s Schedule) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("fault: schedule n = %d, need >= 2", s.N)
	}
	seen := make(map[int]bool, len(s.Crashes))
	for i, c := range s.Crashes {
		if c.Node < 0 || c.Node >= s.N {
			return fmt.Errorf("fault: crash %d: node %d out of range [0,%d)", i, c.Node, s.N)
		}
		if seen[c.Node] {
			return fmt.Errorf("fault: node %d crashes twice", c.Node)
		}
		seen[c.Node] = true
		if c.Round < 1 {
			return fmt.Errorf("fault: crash %d: round %d, need >= 1", i, c.Round)
		}
		if !validPolicy(c.Policy) {
			return fmt.Errorf("fault: crash %d: invalid policy %d", i, c.Policy)
		}
	}
	return nil
}

// FaultyCount returns the number of faulty nodes in the schedule.
func (s Schedule) FaultyCount() int { return len(s.Crashes) }

// Canonical returns a copy with crashes sorted by node, so structurally
// equal schedules encode to identical JSON.
func (s Schedule) Canonical() Schedule {
	out := s
	out.Crashes = append([]Crash(nil), s.Crashes...)
	sort.Slice(out.Crashes, func(i, j int) bool { return out.Crashes[i].Node < out.Crashes[j].Node })
	return out
}

// Adversary validates the schedule and builds the netsim.Adversary that
// executes it. Each call returns a fresh adversary with a fresh coin
// stream, so the same schedule replays identically run after run.
func (s Schedule) Adversary() (*ScheduleAdversary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := &ScheduleAdversary{
		faulty: make([]bool, s.N),
		round:  make([]int, s.N),
		policy: make([]DropPolicy, s.N),
		fired:  make([]bool, s.N),
		coin:   rng.New(s.Seed).Split(0x5ced),
	}
	for _, c := range s.Crashes {
		a.faulty[c.Node] = true
		a.round[c.Node] = c.Round
		a.policy[c.Node] = c.Policy
	}
	return a, nil
}

// ScheduleAdversary executes a Schedule. Construct with
// Schedule.Adversary.
type ScheduleAdversary struct {
	faulty []bool
	round  []int
	policy []DropPolicy
	// fired marks crashes whose CrashNow already returned true; the
	// engine never re-consults a crashed node, so NextCrashRound must
	// treat these as spent.
	fired []bool
	coin  *rng.Source
}

var (
	_ netsim.Adversary     = (*ScheduleAdversary)(nil)
	_ netsim.CrashPlanner  = (*ScheduleAdversary)(nil)
	_ netsim.CrashCalendar = (*ScheduleAdversary)(nil)
)

// Faulty reports whether node is scheduled to crash.
func (a *ScheduleAdversary) Faulty(node int) bool { return a.faulty[node] }

// CrashNow reports whether node's scheduled crash round has arrived.
func (a *ScheduleAdversary) CrashNow(node, round int, _ []netsim.Send) bool {
	if a.round[node] != 0 && round >= a.round[node] {
		a.fired[node] = true
		return true
	}
	return false
}

// NextCrashRound implements netsim.CrashPlanner: a schedule's crash
// timings are fixed up front, so the earliest round at which CrashNow
// may fire is simply the minimum unfired scheduled round (clamped to
// the current round). With every scheduled crash spent it returns
// math.MaxInt, promising the rest of the run crash-free.
func (a *ScheduleAdversary) NextCrashRound(round int) int {
	next := math.MaxInt
	for u, r := range a.round {
		if r == 0 || a.fired[u] {
			continue
		}
		if r < round {
			r = round
		}
		if r < next {
			next = r
		}
	}
	return next
}

// CrashRound implements netsim.CrashCalendar: node's scheduled crash
// round, or 0 if it is not scheduled to crash. The engine runs a
// schedule by this calendar and calls NextCrashRound only when a
// decorator hides CrashRound.
func (a *ScheduleAdversary) CrashRound(node int) int { return a.round[node] }

// DeliverOnCrash applies the crashing node's scheduled drop policy.
func (a *ScheduleAdversary) DeliverOnCrash(node, _, msgIndex int, _ netsim.Send) bool {
	return deliver(a.policy[node], a.coin, msgIndex)
}

// allPolicies is the generation palette, ordered from most to least
// destructive.
var allPolicies = []DropPolicy{DropAll, DropHalf, DropRandom, DropNone}

// GenerateSchedule draws a random schedule from src: a uniform faulty
// count in [0, maxF], distinct faulty nodes, per-node uniform crash
// rounds in [1, horizon], and a uniform policy per crash. maxF is
// clamped to n; horizon must be >= 1.
func GenerateSchedule(n, maxF, horizon int, src *rng.Source) Schedule {
	if maxF > n {
		maxF = n
	}
	s := Schedule{N: n, Seed: src.Uint64()}
	if maxF <= 0 || horizon < 1 {
		return s
	}
	f := src.Intn(maxF + 1)
	if f == 0 {
		return s
	}
	for _, u := range src.SampleDistinct(f, n, nil) {
		s.Crashes = append(s.Crashes, Crash{
			Node:   u,
			Round:  1 + src.Intn(horizon),
			Policy: allPolicies[src.Intn(len(allPolicies))],
		})
	}
	return s.Canonical()
}

// Shrinks proposes strictly simpler variants of the schedule, most
// aggressive first: drop a crash entirely (fewer faulty nodes), soften a
// crash's policy to DropNone (fewer lost messages), postpone a crash to
// horizon (later interference), then postpone by a single round. The
// harness greedily re-checks candidates and keeps any that still fail,
// converging on a minimal reproducer.
func (s Schedule) Shrinks(horizon int) []Schedule {
	var out []Schedule
	replace := func(i int, c Crash) Schedule {
		next := s
		next.Crashes = append([]Crash(nil), s.Crashes...)
		next.Crashes[i] = c
		return next
	}
	for i := range s.Crashes {
		next := s
		next.Crashes = append(append([]Crash(nil), s.Crashes[:i]...), s.Crashes[i+1:]...)
		out = append(out, next)
	}
	for i, c := range s.Crashes {
		if c.Policy != DropNone {
			c.Policy = DropNone
			out = append(out, replace(i, c))
		}
	}
	for i, c := range s.Crashes {
		if c.Round < horizon {
			late := c
			late.Round = horizon
			out = append(out, replace(i, late))
			if c.Round+1 < horizon {
				step := c
				step.Round = c.Round + 1
				out = append(out, replace(i, step))
			}
		}
	}
	return out
}

// String returns the policy's canonical spelling.
func (p DropPolicy) String() string {
	switch p {
	case DropAll:
		return "all"
	case DropNone:
		return "none"
	case DropHalf:
		return "half"
	case DropRandom:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the canonical spelling back to a DropPolicy.
func ParsePolicy(s string) (DropPolicy, error) {
	switch s {
	case "all":
		return DropAll, nil
	case "none":
		return DropNone, nil
	case "half":
		return DropHalf, nil
	case "random":
		return DropRandom, nil
	default:
		return 0, fmt.Errorf("fault: unknown policy %q (want all|none|half|random)", s)
	}
}

func validPolicy(p DropPolicy) bool {
	switch p {
	case DropAll, DropNone, DropHalf, DropRandom:
		return true
	}
	return false
}

// MarshalJSON encodes the policy as its canonical spelling, rejecting
// values outside the defined set so a schedule never round-trips through
// JSON into an unchecked state.
func (p DropPolicy) MarshalJSON() ([]byte, error) {
	if !validPolicy(p) {
		return nil, fmt.Errorf("fault: cannot encode invalid policy %d", int(p))
	}
	return json.Marshal(p.String())
}

// UnmarshalJSON decodes the canonical spelling.
func (p *DropPolicy) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("fault: policy must be a string: %w", err)
	}
	parsed, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
