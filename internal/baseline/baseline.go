// Package baseline implements the comparator protocols the paper measures
// itself against (Table I and Section III):
//
//   - Kutten–Pandurangan–Peleg–Robinson–Trehan sublinear implicit leader
//     election in fault-free networks (TCS'15) — kutten.go.
//   - Augustine–Molla–Pandurangan sublinear implicit agreement in
//     fault-free networks (PODC'18) — amp.go.
//   - A Gilbert–Kowalski (SODA'10) style explicit agreement: a
//     Theta(log n) committee agrees internally and disseminates, O(n log n)
//     messages in the KT0-cost regime the paper quotes for it — gk.go.
//   - Classical FloodSet explicit agreement: f+1 rounds, Theta(n^2)
//     messages, tolerates any f — floodset.go.
//   - All-pairs flooding leader election: the trivial Theta(n^2) message
//     benchmark — allpairs.go.
//
// All baselines run on the same simulator and the same adversaries as the
// core algorithms, so message counts, bits, rounds, and success rates are
// directly comparable.
package baseline

import (
	"fmt"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// Result is the common outcome type for baseline runs.
type Result struct {
	// Outputs holds per-node outputs; the concrete type depends on the
	// protocol.
	Outputs []any
	// CrashedAt[u] is node u's crash round or 0.
	CrashedAt []int
	// Rounds is the number of rounds executed.
	Rounds int
	// Counters carries message/bit accounting.
	Counters *metrics.Counters
	// Digest is the engine's execution fingerprint (netsim.Result.Digest).
	Digest uint64
	// Success is the protocol-specific verdict.
	Success bool
	// Reason explains a failure.
	Reason string
	// Value is the agreed value / leader identifier on success.
	Value int64
}

// Each protocol comes as a Build, which returns the engine configuration
// and the machines of one run, and an Evaluate, which judges the
// finished run; its Run function executes the one and applies the
// other. internal/dst registers the same Build and Evaluate, so every
// consumer constructs a protocol the one way.

// runAlpha is the alpha the Run functions build with. Alpha only fills
// Env.Alpha, which no baseline machine reads, and the digest does not
// fold it, so one admissible value serves every protocol.
const runAlpha = 1

// cliqueConfig is the engine configuration of a complete-network
// baseline: strict CONGEST with a generous factor for set-carrying
// baselines.
func cliqueConfig(n int, alpha float64, seed uint64, maxRounds int, tracer netsim.Tracer) netsim.Config {
	return netsim.Config{
		N:             n,
		Alpha:         alpha,
		Seed:          seed,
		MaxRounds:     maxRounds,
		CongestFactor: 8,
		Strict:        true,
		Tracer:        tracer,
	}
}

// execute runs a built protocol in the given mode.
func execute(mode netsim.RunMode, cfg netsim.Config, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
	res, err := netsim.Execute(mode, cfg, machines, adv)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	return res, nil
}

// newResult carries an engine result's common fields into a Result
// awaiting its verdict.
func newResult(res *netsim.Result) *Result {
	return &Result{
		Outputs:   res.Outputs,
		CrashedAt: res.CrashedAt,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
		Digest:    res.Digest,
	}
}
