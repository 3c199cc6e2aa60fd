package realnet_test

// Multi-connection coordinator tests: Serve + Join split the run across
// worker loops that only know (addr, node count) — exactly what worker
// processes get — and the digest must still match the sequential
// simulator's.

import (
	"fmt"
	"net"
	"testing"

	"sublinear/internal/dst"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/realnet"
)

// TestServeJoinMatchesSequential runs every registered clique system
// through the Serve/Join split — the coordinator knows only the system
// name, the two worker loops rebuild machines and coins from the
// welcome frame through dst.Machines — and checks the digest against
// the sequential engine.
func TestServeJoinMatchesSequential(t *testing.T) {
	const (
		n     = 32
		alpha = 0.8
		seed  = 21
	)
	for _, system := range dst.AllSystems() {
		sys, _ := dst.Lookup(system)
		if sys.Topology != "" {
			continue
		}
		t.Run(system, func(t *testing.T) {
			c := dst.Case{System: system, N: n, Alpha: alpha, Seed: seed, Schedule: fault.Schedule{N: n}}
			cfg, spec, err := dst.RealnetConfig(c)
			if err != nil {
				t.Fatalf("config: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			joinErr := make(chan error, 2)
			addr := ln.Addr().String()
			go func() { joinErr <- realnet.Join(addr, n/2, dst.Machines) }()
			go func() { joinErr <- realnet.Join(addr, n/2, dst.Machines) }()
			res, err := realnet.Serve(cfg, spec, ln)
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := <-joinErr; err != nil {
					t.Fatalf("join: %v", err)
				}
			}
			ref, failure, err := dst.CheckSequential(c)
			if err != nil || failure != nil {
				t.Fatalf("sequential reference: %v %v", err, failure)
			}
			if res.Digest != ref.Digest {
				t.Errorf("digest %016x, want sequential %016x", res.Digest, ref.Digest)
			}
			if len(res.Outputs) != n {
				t.Fatalf("%d outputs, want %d", len(res.Outputs), n)
			}
			if got := fmt.Sprintf("%+v", res.Outputs); got != ref.Outputs {
				t.Errorf("outputs diverge (gob round-trip?):\n  socket:    %s\n  simulator: %s", got, ref.Outputs)
			}
		})
	}
}

// TestServeJoinWithFaults exercises a crash schedule across the
// Serve/Join split: the coordinator executes the drop policy and closes
// the worker-held connection, and the digest must match the simulator
// running the same schedule.
func TestServeJoinWithFaults(t *testing.T) {
	const (
		n     = 32
		alpha = 0.8
		seed  = 33
	)
	c := dst.Case{System: "agreement", N: n, Alpha: alpha, Seed: seed,
		Schedule: crashSchedule(n, 3, seed, policies[2].policy)}
	cfg, spec, err := dst.RealnetConfig(c)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	joinErr := make(chan error, 1)
	go func() { joinErr <- realnet.Join(ln.Addr().String(), n, dst.Machines) }()
	res, err := realnet.Serve(cfg, spec, ln)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("join: %v", err)
	}
	sys, _ := dst.Lookup(c.System)
	ref, err := sys.Run(c, netsim.Sequential, nil)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	if res.Digest != ref.Digest {
		t.Errorf("digest %016x, want sequential %016x", res.Digest, ref.Digest)
	}
	for _, cr := range c.Schedule.Crashes {
		if res.CrashedAt[cr.Node] != cr.Round {
			t.Errorf("CrashedAt[%d] = %d, want %d", cr.Node, res.CrashedAt[cr.Node], cr.Round)
		}
	}
}
