package netsim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// TestPipelinePoolNoGoroutineLeak pins that shard-pool goroutines never
// outlive their run, across repeated multi-worker executions.
func TestPipelinePoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		machines := make([]Machine, 64)
		for u := range machines {
			machines[u] = &pingMachine{}
		}
		eng, err := NewEngine(Config{N: 64, Alpha: 1, Seed: uint64(i), MaxRounds: 10, Workers: 4}, machines, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Mode = Parallel
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Give exiting goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after — shard pool leaked", before, runtime.NumGoroutine())
}

// Property: for any interleaving of enqueues, repeated flushes preserve
// per-port FIFO order and eventually drain everything.
func TestEdgeQueueFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q EdgeQueue
		enqueued := make(map[int][]int)
		seq := 0
		for _, op := range ops {
			port := int(op%5) + 1
			q.Enqueue(port, testPayload{id: seq})
			enqueued[port] = append(enqueued[port], seq)
			seq++
		}
		got := make(map[int][]int)
		for !q.Empty() {
			for _, s := range q.Flush(nil) {
				got[s.Port] = append(got[s.Port], s.Payload.(testPayload).id)
			}
		}
		if len(got) != len(enqueued) {
			return false
		}
		for port, want := range enqueued {
			if len(got[port]) != len(want) {
				return false
			}
			for i := range want {
				if got[port][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
