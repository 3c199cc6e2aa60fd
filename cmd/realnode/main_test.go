package main

import (
	"errors"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCoordinatorAndWorkersInProcess drives the flag surface end to
// end: a coordinator goroutine plus two worker goroutines splitting
// n=16, with -verify cross-checking the digest against the simulator,
// for a core protocol and a Table I comparator.
func TestCoordinatorAndWorkersInProcess(t *testing.T) {
	for _, system := range []string{"agreement", "gk"} {
		t.Run(system, func(t *testing.T) { coordinateInProcess(t, system) })
	}
}

func coordinateInProcess(t *testing.T, system string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // just reserving a free port; tiny race, retried by the workers

	var coordOut strings.Builder
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- run([]string{
			"-serve", "-listen", addr, "-system", system,
			"-n", "16", "-alpha", "1", "-seed", "7", "-verify",
		}, &coordOut)
	}()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out strings.Builder
			workerErrs[i] = run([]string{"-join", addr, "-nodes", "8", "-wait", "30s"}, &out)
		}(i)
	}
	wg.Wait()
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if !strings.Contains(coordOut.String(), "verified: simulator digest matches") {
		t.Fatalf("verification missing from coordinator output:\n%s", coordOut.String())
	}
}

// TestMultiProcess builds the binary and runs a real three-process
// execution — the closest an automated test gets to the compose fleet.
func TestMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	bin := t.TempDir() + "/realnode"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	coord := exec.Command(bin, "-serve", "-listen", addr, "-system", "election",
		"-n", "16", "-alpha", "1", "-seed", "3", "-verify")
	var coordOut strings.Builder
	coord.Stdout, coord.Stderr = &coordOut, &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		workers[i] = exec.Command(bin, "-join", addr, "-nodes", "8", "-wait", "30s")
		var out strings.Builder
		workers[i].Stdout, workers[i].Stderr = &out, &out
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
		}
	case <-time.After(60 * time.Second):
		coord.Process.Kill()
		t.Fatalf("coordinator timed out\n%s", coordOut.String())
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if !strings.Contains(coordOut.String(), "verified: simulator digest matches") {
		t.Fatalf("verification missing:\n%s", coordOut.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("no-op invocation accepted")
	}
	if err := run([]string{"-serve", "-join", "x:1"}, &buf); err == nil {
		t.Error("-serve with -join accepted")
	}
	if err := run([]string{"-join", "x:1"}, &buf); err == nil {
		t.Error("-join without -nodes accepted")
	}
	if err := run([]string{"-serve", "-system", "nope", "-n", "8", "-alpha", "1"}, &buf); err == nil {
		t.Error("unknown system accepted")
	}
	if err := run([]string{"-serve", "-system", "d2election", "-n", "8", "-alpha", "1"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "complete network") {
		t.Errorf("d2election: err = %v, want a refusal naming the complete network", err)
	}
}

// TestWorkerRetries: a worker started before the coordinator keeps
// retrying instead of failing on the first refused dial.
func TestWorkerRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here yet

	workerDone := make(chan error, 1)
	go func() {
		var out strings.Builder
		workerDone <- run([]string{"-join", addr, "-nodes", "16", "-wait", "30s"}, &out)
	}()
	// Let the worker hit at least one refused dial before the
	// coordinator binds the port.
	time.Sleep(1 * time.Second)
	select {
	case err := <-workerDone:
		t.Fatalf("worker gave up while coordinator was down: %v", err)
	default:
	}
	var coordOut strings.Builder
	if err := run([]string{
		"-serve", "-listen", addr, "-system", "minagree",
		"-n", "16", "-alpha", "1", "-seed", "5", "-verify",
	}, &coordOut); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestDivergenceExitPath pins the -verify failure classification:
// errDivergence (exit 2) is reserved for digest mismatches and is
// distinct from run errors.
func TestDivergenceExitPath(t *testing.T) {
	if errors.Is(fmt.Errorf("wrapped: %w", errDivergence), errDivergence) != true {
		t.Fatal("errDivergence must survive wrapping")
	}
}
