package main

import (
	"context"
	"testing"
	"time"
)

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A stalled send delays the sends due behind it; the generator keeps
// their due times, so their latency includes the wait it imposed.
func TestOpenLoopKeepsScheduleThroughAStall(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &fakeClock{now: time.Unix(100, 0)}
	start := clk.now
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dues, latency []time.Duration
	lateness := openLoop(ctx, clk, interval, func(i int, due time.Time) {
		took := 3 * time.Millisecond
		if i == 2 {
			took = 35 * time.Millisecond
		}
		clk.Sleep(took)
		dues = append(dues, due.Sub(start))
		latency = append(latency, clk.Now().Sub(due))
		if i == 7 {
			cancel()
		}
	})
	wantLate := []time.Duration{0, 0, 0, 25, 18, 11, 4, 0}
	if len(lateness) != len(wantLate) || len(dues) != len(wantLate) {
		t.Fatalf("%d sends, %d lateness samples; want %d each", len(dues), len(lateness), len(wantLate))
	}
	for i, want := range wantLate {
		if lateness[i] != want*time.Millisecond {
			t.Errorf("send %d: lateness %v, want %v", i, lateness[i], want*time.Millisecond)
		}
		if dues[i] != time.Duration(i)*interval {
			t.Errorf("send %d: due at %v, want %v", i, dues[i], time.Duration(i)*interval)
		}
	}
	if latency[3] != 28*time.Millisecond {
		t.Errorf("send 3 latency %v, want 28ms: 25ms late plus 3ms to complete", latency[3])
	}
}
