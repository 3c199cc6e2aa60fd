package netsim

import (
	"fmt"
	"strings"
	"testing"

	"sublinear/internal/rng"
)

// napper is a Sleeper that keeps its own promise: it acts only in the
// round it named last (a random one, sometimes past the ring of the
// wake calendar or past MaxRounds, sometimes none) and whenever mail
// arrives. Stepped in any other round with an empty inbox, it returns
// nothing and changes nothing, so stepping it densely must give the
// same execution.
type napper struct {
	next  int // the round NextWake named; 0 = none
	acted int
	got   int
}

func (m *napper) Step(env *Env, round int, inbox []Delivery) []Send {
	if round != 1 && round != m.next && len(inbox) == 0 {
		return nil
	}
	m.acted++
	m.got += len(inbox)
	var out []Send
	if len(inbox) > 0 {
		out = append(out, Send{Port: inbox[0].Port, Payload: &benchPayload{bits: 4}})
	} else {
		out = append(out, Send{Port: 1 + env.Rand.Intn(env.N-1), Payload: &benchPayload{bits: 4}})
	}
	switch c := env.Rand.Intn(8); {
	case c == 0:
		m.next = 0 // only when mail arrives
	case c < 3:
		m.next = round + 1 + env.Rand.Intn(6000) // far: another ring lap, or past MaxRounds
	default:
		m.next = round + 1 + env.Rand.Intn(30)
	}
	return out
}

func (m *napper) NextWake(int) int { return m.next }
func (m *napper) Done() bool       { return false }
func (m *napper) Output() any      { return [2]int{m.acted, m.got} }

// hiddenSleeper strips NextWake, so the engine steps the machine in
// every round.
type hiddenSleeper struct{ Machine }

// calendarAdv crashes node u in round[u] (0 = never), dropping each
// crash-round message on a coin flip, and logs every CrashNow call. It
// declines every fifth due crash, so some due nodes survive their round.
type calendarAdv struct {
	round []int
	coin  *rng.Source
	calls []string
}

func (a *calendarAdv) Faulty(u int) bool { return a.round[u] != 0 }
func (a *calendarAdv) CrashNow(u, r int, out []Send) bool {
	a.calls = append(a.calls, fmt.Sprintf("%d@%d/%d", u, r, len(out)))
	return r == a.round[u] && u%5 != 0
}
func (a *calendarAdv) DeliverOnCrash(int, int, int, Send) bool { return a.coin.Bool(0.5) }
func (a *calendarAdv) CrashRound(u int) int                    { return a.round[u] }

// TestSleepersAndCrashCalendar runs a sparse workload with crashes and
// checks that neither extension is visible: sleeping machines against
// the same machines stepped densely, and the crash calendar against the
// same adversary scanned in full, in both modes and at several worker
// counts. MaxRounds exceeds the wake calendar's ring, so far wake-ups
// wrap around it.
func TestSleepersAndCrashCalendar(t *testing.T) {
	const n, rounds = 96, 5000
	crashRound := make([]int, n)
	src := rng.New(3)
	for _, u := range src.SampleDistinct(n/2, n, nil) {
		crashRound[u] = 1 + src.Intn(rounds+200) // some after MaxRounds
	}
	// Several crashes in one round make the crash pass's order count.
	for _, u := range []int{7, 8, 40, 41, 42} {
		crashRound[u] = 25
	}
	run := func(sleep, calendar bool, mode RunMode, workers int) (*Result, []string) {
		machines := make([]Machine, n)
		for u := range machines {
			machines[u] = &napper{}
			if !sleep {
				machines[u] = hiddenSleeper{machines[u]}
			}
		}
		adv := &calendarAdv{round: crashRound, coin: rng.New(9)}
		var a Adversary = adv
		if !calendar {
			a = struct{ Adversary }{adv}
		}
		eng, err := NewEngine(Config{N: n, Alpha: 0.5, Seed: 5, MaxRounds: rounds, Workers: workers}, machines, a)
		if err != nil {
			t.Fatal(err)
		}
		eng.Mode = mode
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, adv.calls
	}
	ref, _ := run(false, false, Sequential, 1)
	if ref.Rounds != rounds {
		t.Fatalf("reference ran %d rounds, want %d", ref.Rounds, rounds)
	}
	for _, tc := range []struct {
		sleep, calendar bool
		mode            RunMode
		workers         int
	}{
		{true, true, Sequential, 1},
		{true, false, Sequential, 1},
		{false, true, Sequential, 1},
		{true, true, Parallel, 3},
		{true, false, Parallel, 4},
		{false, true, Parallel, 2},
	} {
		name := fmt.Sprintf("sleep=%t/calendar=%t/%s-w%d", tc.sleep, tc.calendar, EngineName(tc.mode), tc.workers)
		t.Run(name, func(t *testing.T) {
			res, _ := run(tc.sleep, tc.calendar, tc.mode, tc.workers)
			if res.Digest != ref.Digest {
				t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
			}
			for _, c := range []struct {
				what     string
				got, ref any
			}{
				{"messages", res.Counters.Messages(), ref.Counters.Messages()},
				{"rounds", res.Rounds, ref.Rounds},
				{"crash rounds", res.CrashedAt, ref.CrashedAt},
				{"outputs", res.Outputs, ref.Outputs},
			} {
				if g, r := fmt.Sprint(c.got), fmt.Sprint(c.ref); g != r {
					t.Errorf("%s: got %.200s, want %.200s", c.what, g, r)
				}
			}
		})
	}

	// The calendar visits exactly the due nodes, in ascending order, and a
	// node that slept through its crash round shows the adversary the
	// empty outbox its dense Step returned.
	_, calls := run(true, true, Sequential, 1)
	_, denseCalls := run(false, true, Sequential, 1)
	var want []string
	for r := 1; r <= rounds; r++ {
		for u := 0; u < n; u++ {
			if crashRound[u] == r {
				want = append(want, fmt.Sprintf("%d@%d", u, r))
			}
		}
	}
	if len(calls) != len(want) || len(denseCalls) != len(want) {
		t.Fatalf("calendar made %d CrashNow calls (%d stepping densely), want %d", len(calls), len(denseCalls), len(want))
	}
	for i, c := range calls {
		if c != denseCalls[i] {
			t.Fatalf("CrashNow call %d is %s, stepping densely %s", i, c, denseCalls[i])
		}
		if !strings.HasPrefix(c, want[i]+"/") {
			t.Fatalf("CrashNow call %d is %s, want %s", i, c, want[i])
		}
	}
}
