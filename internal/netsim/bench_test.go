package netsim

import (
	"fmt"
	"testing"

	"sublinear/internal/metrics"
)

// benchPayload is a preallocated pointer payload: sending it never boxes,
// so the benchmark measures the engine's per-message cost, not the
// workload's allocator traffic.
type benchPayload struct{ bits int }

var benchKind = metrics.InternKind("ping")

func (p *benchPayload) Bits(int) int       { return p.bits }
func (*benchPayload) Kind() string         { return "ping" }
func (*benchPayload) KindID() metrics.Kind { return benchKind }

// pingMachine sends one message to a random port every round — a minimal
// always-busy workload for engine throughput measurement. It reuses its
// outbox and payload so the steady-state round loop allocates nothing.
type pingMachine struct {
	last    int
	payload benchPayload
	out     [1]Send
}

func (m *pingMachine) Step(env *Env, round int, _ []Delivery) []Send {
	m.last = round
	m.payload.bits = 8
	m.out[0] = Send{Port: 1 + env.Rand.Intn(env.N-1), Payload: &m.payload}
	return m.out[:]
}

func (m *pingMachine) Done() bool  { return false }
func (m *pingMachine) Output() any { return m.last }

func benchEngine(b *testing.B, n, rounds int, mode RunMode) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		machines := make([]Machine, n)
		for u := range machines {
			machines[u] = &pingMachine{}
		}
		eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: uint64(i), MaxRounds: rounds}, machines, nil)
		if err != nil {
			b.Fatal(err)
		}
		eng.Mode = mode
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	steps := float64(n * rounds)
	b.ReportMetric(steps, "steps/run")
	// Every step sends exactly one message, so simulated messages/sec is
	// steps per run over wall-clock per run — the headline number the
	// perf CI smoke (cmd/benchjson) guards against regression.
	b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

func BenchmarkEngineModes(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode RunMode
	}{{"sequential", Sequential}, {"parallel", Parallel}} {
		for _, n := range []int{256, 1024, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/n%d", mode.name, n), func(b *testing.B) {
				benchEngine(b, n, 50, mode.mode)
			})
		}
	}
}

func BenchmarkEdgeQueue(b *testing.B) {
	var q EdgeQueue
	var buf []Send
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 1; p <= 32; p++ {
			q.Enqueue(p, testPayload{id: i})
		}
		buf = q.Flush(buf[:0])
	}
	_ = buf
}

func BenchmarkPortMath(b *testing.B) {
	const n = 1 << 16
	sum := 0
	for i := 0; i < b.N; i++ {
		u := i & (n - 1)
		p := 1 + (i*7919)%(n-1)
		v := Peer(n, u, p)
		sum += ArrivalPort(n, u, v)
	}
	_ = sum
}
