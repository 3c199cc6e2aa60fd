package realnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"sublinear/internal/netsim"
)

// Multi-process mode. Run keeps everything in one process; Serve and
// Join split the same protocol across processes: a coordinator serves
// the run on a real listener, and each worker process joins with a batch
// of node connections. Workers cannot share a machines slice with the
// coordinator, so the worker's builder rebuilds the machines of the
// system named in the WELCOME frame from parameters (n, alpha, seed,
// pOne) that deterministically derive every node's machine and inputs —
// the same derivation the simulator-side caller uses, so the two ends
// cannot drift. Outputs return as gob (register concrete output types
// with gob.Register). internal/dst's protocol registry supplies the
// builder (dst.Machines); this package keeps no table of systems.

// SystemParams are the run parameters a builder builds from.
type SystemParams struct {
	N     int
	Alpha float64
	Seed  uint64
	// POne parameterises input distributions that need it (agreement's
	// one-bit inputs); builders that don't can ignore it.
	POne float64
}

// SystemSpec names the system and its input parameter, broadcast to
// workers in the WELCOME frame.
type SystemSpec struct {
	Name string
	POne float64
}

// systemSpec is the hub's internal copy; the zero value means
// "in-process run, the dialer brings its own machine".
type systemSpec struct {
	name string
	pOne float64
}

// Serve coordinates an all-remote run on ln: n workers must Join before
// the first round fires. The caller owns the listener's address
// plumbing; Serve owns its lifetime.
func Serve(cfg Config, spec SystemSpec, ln net.Listener) (*netsim.Result, error) {
	if err := cfg.validate(-1); err != nil {
		return nil, err
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("realnet: Serve needs a system name for the workers")
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr().String())
	}
	return serve(cfg, systemSpec{name: spec.Name, pOne: spec.POne}, ln)
}

// Join connects nodes worker connections to a coordinator at addr and
// runs their node loops to completion. build rebuilds the machines of
// the system the coordinator names; it must be deterministic in its
// arguments, since every worker rebuilds the full machine slice and
// picks its own nodes from it. Its output is cached so a worker hosting
// many nodes builds the machine slice once.
func Join(addr string, nodes int, build func(system string, p SystemParams) ([]netsim.Machine, error)) error {
	if nodes < 1 {
		return fmt.Errorf("realnet: Join needs at least one node, got %d", nodes)
	}
	var (
		mu    sync.Mutex
		cache = map[SystemParams]map[string][]netsim.Machine{}
	)
	pick := func(w welcome) (netsim.Machine, error) {
		if w.system == "" {
			return nil, fmt.Errorf("realnet: coordinator announced no system; in-process runs cannot be joined")
		}
		params := SystemParams{N: w.n, Alpha: w.alpha, Seed: w.seed, POne: w.pOne}
		mu.Lock()
		defer mu.Unlock()
		bySystem := cache[params]
		if bySystem == nil {
			bySystem = map[string][]netsim.Machine{}
			cache[params] = bySystem
		}
		machines, ok := bySystem[w.system]
		if !ok {
			var err error
			machines, err = build(w.system, params)
			if err != nil {
				return nil, err
			}
			if len(machines) != w.n {
				return nil, fmt.Errorf("realnet: system %q built %d machines for n=%d", w.system, len(machines), w.n)
			}
			bySystem[w.system] = machines
		}
		if w.id < 0 || w.id >= len(machines) {
			return nil, fmt.Errorf("realnet: welcome assigns id %d beyond %d machines", w.id, len(machines))
		}
		return machines[w.id], nil
	}

	// Dial phase first, and sequentially: either every node loop gets a
	// connection or none does. A worker racing the coordinator's bind
	// must not leave a subset of its nodes attached to a hub that will
	// never assemble a full network — that would deadlock both sides —
	// so a failed dial closes whatever connected and reports the error
	// for the caller to retry whole.
	conns := make([]net.Conn, 0, nodes)
	for i := 0; i < nodes; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return err
		}
		conns = append(conns, conn)
	}
	errs := make(chan error, nodes)
	for _, conn := range conns {
		go func(conn net.Conn) {
			_, _, err := runNode(conn, pick, encodeOutput)
			if err != nil && !isConnError(err) {
				errs <- err
				return
			}
			errs <- nil
		}(conn)
	}
	var firstErr error
	for i := 0; i < nodes; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// encodeOutput gobs a machine output for the OUTPUT frame.
func encodeOutput(out any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
		return nil, fmt.Errorf("realnet: encode output: %w (gob.Register the output type)", err)
	}
	return buf.Bytes(), nil
}

// decodeOutput is the hub-side inverse.
func decodeOutput(b []byte) (any, error) {
	var out any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&out); err != nil {
		return nil, fmt.Errorf("realnet: decode output: %w", err)
	}
	return out, nil
}
