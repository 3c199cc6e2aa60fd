package main

import (
	"context"
	"time"
)

// clock is the open-loop generator's time source; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends on a fixed schedule until ctx ends: send i is due at
// start + i*interval whether or not earlier sends have finished, and is
// started as soon as it is due or, when the previous send overran, as
// soon as that send returns. send receives its due time so it can time
// its request from when it was due, which charges a stall to every
// request it delays. openLoop returns each send's lateness: how long
// after its due time it started.
func openLoop(ctx context.Context, clk clock, interval time.Duration, send func(i int, due time.Time)) []time.Duration {
	start := clk.Now()
	var lateness []time.Duration
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
			if ctx.Err() != nil {
				break
			}
		}
		lateness = append(lateness, clk.Now().Sub(due))
		send(i, due)
	}
	return lateness
}
