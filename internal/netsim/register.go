package netsim

// Engine registry. The two in-process modes (Sequential, Parallel) are
// built into this package; out-of-process engines — the socket engine
// in internal/realnet — register themselves here so every caller that
// dispatches by RunMode (core, baseline, dst) reaches them through one
// entry point, Execute, without this package importing any transport
// code. The contract for a registered engine is the full netsim
// contract: same Machine/Adversary/Tracer call sequences, same
// accounting, and a Result whose Digest is byte-equal to the Sequential
// engine's for the same (config, machines, adversary) triple — the dst
// harness diffs registered modes against Sequential exactly like it
// diffs the built-ins.

import (
	"fmt"
	"sync"
)

// RunMode selects the engine that executes a run. All modes implement
// identical synchronous-round semantics and produce identical results
// (including byte-identical execution digests) for identical seeds; they
// differ only in how the per-node work is scheduled.
type RunMode int

// Engine run modes.
const (
	// Sequential runs the whole pipeline single-threaded on the
	// coordinator goroutine. The reference implementation: trivially
	// deterministic, fastest for small node counts.
	Sequential RunMode = iota
	// Parallel runs the sharded delivery pipeline (see shard.go): nodes
	// are partitioned into contiguous shards owned by a persistent
	// Config.Workers-sized pool, and crash-free rounds fuse delivery,
	// stepping, and send processing into a single barrier.
	Parallel
	// RealNet is the RunMode of the socket engine. It is registered by
	// internal/realnet's init; importing that package (directly or
	// through core/baseline/dst) makes Execute(RealNet, ...) work.
	RealNet
)

// EngineFunc executes one run under the netsim contract.
type EngineFunc func(cfg Config, machines []Machine, adv Adversary) (*Result, error)

type engineEntry struct {
	name string
	fn   EngineFunc
}

var (
	engineMu sync.RWMutex
	engines  = map[RunMode]engineEntry{}
)

// RegisterEngine registers an out-of-process engine for a mode. It
// panics on the built-in modes and on double registration — both are
// init-time programming errors.
func RegisterEngine(mode RunMode, name string, fn EngineFunc) {
	if mode == Sequential || mode == Parallel {
		panic(fmt.Sprintf("netsim: cannot override built-in mode %d", int(mode)))
	}
	if fn == nil || name == "" {
		panic("netsim: RegisterEngine needs a name and a function")
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if prev, ok := engines[mode]; ok {
		panic(fmt.Sprintf("netsim: mode %d already registered as %q", int(mode), prev.name))
	}
	engines[mode] = engineEntry{name: name, fn: fn}
}

// EngineName returns the human name of a mode, for diagnostics.
func EngineName(mode RunMode) string {
	switch mode {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	}
	engineMu.RLock()
	defer engineMu.RUnlock()
	if ent, ok := engines[mode]; ok {
		return ent.name
	}
	return fmt.Sprintf("mode(%d)", int(mode))
}

// Execute runs one execution in the given mode: built-in modes through
// NewEngine, registered modes through their EngineFunc. It is the single
// dispatch point for every mode-parameterised caller.
func Execute(mode RunMode, cfg Config, machines []Machine, adv Adversary) (*Result, error) {
	switch mode {
	case Sequential, Parallel:
		engine, err := NewEngine(cfg, machines, adv)
		if err != nil {
			return nil, err
		}
		engine.Mode = mode
		return engine.Run()
	}
	engineMu.RLock()
	ent, ok := engines[mode]
	engineMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("netsim: no engine registered for mode %d (import its package, e.g. internal/realnet)", int(mode))
	}
	if cfg.Ports != nil {
		return nil, fmt.Errorf("netsim: the %s engine runs only the complete network; Ports must be nil", ent.name)
	}
	return ent.fn(cfg, machines, adv)
}
