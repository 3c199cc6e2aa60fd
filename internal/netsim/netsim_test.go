package netsim

import (
	"testing"
	"testing/quick"

	"sublinear/internal/metrics"
)

func TestPeerArrivalPortInverse(t *testing.T) {
	f := func(nRaw, uRaw, pRaw uint16) bool {
		n := int(nRaw%100) + 2
		u := int(uRaw) % n
		p := int(pRaw)%(n-1) + 1
		v := Peer(n, u, p)
		if v == u {
			return false
		}
		// The arrival port at v for a message from u must route back to u.
		q := ArrivalPort(n, u, v)
		return Peer(n, v, q) == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPeerCoversAllNodes(t *testing.T) {
	const n = 17
	for u := 0; u < n; u++ {
		seen := make(map[int]bool)
		for p := 1; p < n; p++ {
			v := Peer(n, u, p)
			if v == u {
				t.Fatalf("port %d of %d is a self-loop", p, u)
			}
			seen[v] = true
		}
		if len(seen) != n-1 {
			t.Fatalf("node %d reaches %d peers, want %d", u, len(seen), n-1)
		}
	}
}

func TestPeerPanicsOnBadPort(t *testing.T) {
	for _, p := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Peer(5, 0, %d) did not panic", p)
				}
			}()
			Peer(5, 0, p)
		}()
	}
}

func TestArrivalPortPanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ArrivalPort(10, 3, 3)
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{N: 4, Alpha: 0.5, MaxRounds: 1}, true},
		{"n too small", Config{N: 1, Alpha: 0.5, MaxRounds: 1}, false},
		{"alpha zero", Config{N: 4, Alpha: 0, MaxRounds: 1}, false},
		{"alpha above one", Config{N: 4, Alpha: 1.5, MaxRounds: 1}, false},
		{"no rounds", Config{N: 4, Alpha: 0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.validate()
			if (err == nil) != tt.ok {
				t.Errorf("validate() err = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestBitBudget(t *testing.T) {
	cfg := Config{N: 1024}
	if got := cfg.bitBudget(); got != 8*10 {
		t.Errorf("default budget for n=1024 = %d, want 80", got)
	}
	cfg.CongestFactor = 3
	if got := cfg.bitBudget(); got != 30 {
		t.Errorf("budget = %d, want 30", got)
	}
}

// TestBitsLen checks BitsLen against the definition, the smallest b >= 1
// with 2^b >= n, over every n in [2, 2^22].
func TestBitsLen(t *testing.T) {
	want := 1
	for n := 2; n <= 1<<22; n++ {
		if 1<<want < n {
			want++
		}
		if got := BitsLen(n); got != want {
			t.Fatalf("BitsLen(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEnvKT1Helpers(t *testing.T) {
	env := &Env{N: 10, ID: 3}
	for v := 0; v < 10; v++ {
		if v == 3 {
			continue
		}
		p := env.PortTo(v)
		if got := Peer(env.N, env.ID, p); got != v {
			t.Errorf("PortTo(%d) = %d which reaches %d", v, p, got)
		}
		if got := env.SenderOf(ArrivalPort(env.N, v, env.ID)); got != v {
			t.Errorf("SenderOf(arrival from %d) = %d", v, got)
		}
	}
}

func TestEdgeQueueFIFOAndDiscipline(t *testing.T) {
	var q EdgeQueue
	if !q.Empty() {
		t.Fatal("zero value not empty")
	}
	q.Enqueue(1, testPayload{id: 1})
	q.Enqueue(1, testPayload{id: 2})
	q.Enqueue(2, testPayload{id: 3})
	if q.Pending() != 3 {
		t.Fatalf("Pending = %d", q.Pending())
	}

	batch := q.Flush(nil)
	if len(batch) != 2 {
		t.Fatalf("flush 1: %d sends, want 2 (one per port)", len(batch))
	}
	got := map[int]int{}
	for _, s := range batch {
		got[s.Port] = s.Payload.(testPayload).id
	}
	if got[1] != 1 || got[2] != 3 {
		t.Fatalf("flush 1 heads: %v", got)
	}

	batch = q.Flush(nil)
	if len(batch) != 1 || batch[0].Port != 1 || batch[0].Payload.(testPayload).id != 2 {
		t.Fatalf("flush 2: %+v", batch)
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
	if len(q.Flush(nil)) != 0 {
		t.Fatal("flush on empty queue produced sends")
	}
}

func TestEdgeQueueAppendsToDst(t *testing.T) {
	var q EdgeQueue
	q.Enqueue(3, testPayload{id: 9})
	dst := []Send{{Port: 1, Payload: testPayload{id: 0}}}
	out := q.Flush(dst)
	if len(out) != 2 || out[0].Port != 1 || out[1].Port != 3 {
		t.Fatalf("flush into dst: %+v", out)
	}
}

type testPayload struct {
	id   int
	size int
}

var testKind = metrics.InternKind("test")

func (p testPayload) Bits(int) int       { return max(p.size, 1) }
func (testPayload) Kind() string         { return "test" }
func (testPayload) KindID() metrics.Kind { return testKind }
