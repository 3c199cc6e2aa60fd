// Command realnode runs one side of a multi-process socket execution of
// any protocol in the registry (internal/dst) that runs on the complete
// network: a coordinator (the round-barrier hub) or a worker holding a
// contiguous block of nodes. Workers rebuild machines, inputs and coin
// streams from the coordinator's welcome frame alone, so the only shared
// state is the (system, n, alpha, seed, pOne) tuple the coordinator
// announces — the docker-compose example in examples/realnet runs an
// n=64 election across four worker containers this way. The topology
// elections (d2election, wcelection) run on port tables, which the
// socket engine refuses.
//
// Usage:
//
//	realnode -serve -listen :9000 -system election -n 64 -alpha 0.8 -seed 1 [-pone P] [-verify] [-trace FILE]
//	realnode -join coordinator:9000 -nodes 16 [-wait 60s]
//
// With -verify the coordinator also runs the same configuration on the
// in-process sequential simulator and compares execution digests.
//
// Exit status: 0 on success, 1 on usage or run errors, 2 when -verify
// finds a digest divergence between the socket run and the simulator.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"sublinear/internal/dst"
	"sublinear/internal/fault"
	"sublinear/internal/realnet"
	"sublinear/internal/trace"
)

// errDivergence marks a -verify digest mismatch; details are printed.
var errDivergence = errors.New("digest divergence")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errDivergence) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "realnode:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("realnode", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		serve     = fs.Bool("serve", false, "run the coordinator")
		listen    = fs.String("listen", "127.0.0.1:0", "coordinator listen address")
		system    = fs.String("system", "election", "system under execution: any complete-network system of dstrun -list")
		n         = fs.Int("n", 64, "network size")
		alpha     = fs.Float64("alpha", 0.8, "guaranteed fraction of non-faulty nodes")
		seed      = fs.Uint64("seed", 1, "run seed; workers derive coins and inputs from it")
		pOne      = fs.Float64("pone", 0, "agreement input bias toward 1 (0 means 0.5)")
		verify    = fs.Bool("verify", false, "with -serve: replay on the sequential simulator and compare digests")
		tracePath = fs.String("trace", "", "with -serve: record the execution trace to FILE")
		join      = fs.String("join", "", "coordinator address to join as a worker")
		nodes     = fs.Int("nodes", 0, "with -join: number of node loops this worker runs")
		wait      = fs.Duration("wait", 60*time.Second, "with -join: how long to keep retrying an unreachable coordinator")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *serve && *join != "":
		return errors.New("-serve and -join are mutually exclusive")
	case *serve:
		return coordinate(*listen, *system, *n, *alpha, *seed, *pOne, *verify, *tracePath, out)
	case *join != "":
		if *nodes < 1 {
			return errors.New("-join needs -nodes >= 1")
		}
		return worker(*join, *nodes, *wait, out)
	default:
		fs.Usage()
		return errors.New("need -serve or -join ADDR")
	}
}

// coordinate listens, runs the hub until every node connects and the
// protocol terminates, and optionally cross-checks the digest against
// the sequential simulator.
func coordinate(listen, system string, n int, alpha float64, seed uint64, pOne float64, verify bool, tracePath string, out io.Writer) error {
	c := dst.Case{System: system, N: n, Alpha: alpha, Seed: seed, POne: pOne, Schedule: fault.Schedule{N: n}}
	cfg, spec, err := dst.RealnetConfig(c)
	if err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		rec, err := trace.NewRecorder(f, trace.Header{N: n, Seed: seed, Label: "realnet " + system})
		if err != nil {
			return err
		}
		cfg.Tracer = rec
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(out, "trace: %v\n", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coordinator: %s n=%d alpha=%v seed=%d listening on %s, waiting for %d nodes\n",
		system, n, alpha, seed, ln.Addr(), n)
	res, err := realnet.Serve(cfg, spec, ln)
	if err != nil {
		return err
	}
	crashed := 0
	for _, r := range res.CrashedAt {
		if r != 0 {
			crashed++
		}
	}
	fmt.Fprintf(out, "done: rounds=%d messages=%d bits=%d crashed=%d digest=%016x\n",
		res.Rounds, res.Counters.Messages(), res.Counters.Bits(), crashed, res.Digest)
	if !verify {
		return nil
	}
	ref, failure, err := dst.CheckSequential(c)
	if err == nil && failure != nil {
		err = errors.New(failure.String())
	}
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if res.Digest != ref.Digest {
		fmt.Fprintf(out, "DIVERGENCE: socket digest %016x, simulator %016x\n", res.Digest, ref.Digest)
		return errDivergence
	}
	fmt.Fprintf(out, "verified: simulator digest matches\n")
	return nil
}

// worker joins the coordinator, retrying while it is not up yet — in a
// compose fleet the workers usually start first.
func worker(addr string, nodes int, wait time.Duration, out io.Writer) error {
	deadline := time.Now().Add(wait)
	for {
		err := realnet.Join(addr, nodes, dst.Machines)
		if err == nil {
			fmt.Fprintf(out, "worker: %d nodes finished\n", nodes)
			return nil
		}
		if !retryable(err) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// retryable reports whether a Join failure means "coordinator not up
// yet" (refused, unreachable, or unresolvable address) as opposed to a
// protocol error.
func retryable(err error) bool {
	var dns *net.DNSError
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.As(err, &dns)
}
