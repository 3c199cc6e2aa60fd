// Package dst is a deterministic-simulation-testing harness in the
// FoundationDB style: a single seed expands into a fully explicit
// adversary schedule (fault.Schedule), the scheduled run executes
// differentially through every netsim engine mode, and the results are
// checked against protocol safety oracles (internal/core). Any
// divergence between engine modes or oracle violation is a Failure
// whose Case serializes to JSON, shrinks to a minimal reproducer
// (Minimize), and replays byte-for-byte with `dstrun -repro`.
package dst

import (
	"fmt"
	"io"
	"sort"

	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/trace"
)

// Case is one fully determined execution: the system under test, its
// network parameters, the seed that fixes every protocol coin, and the
// explicit crash schedule. A Case marshalled to JSON is a reproducer
// file.
type Case struct {
	// System names the registered system under test.
	System string `json:"system"`
	// N is the network size.
	N int `json:"n"`
	// Alpha is the guaranteed non-faulty fraction.
	Alpha float64 `json:"alpha"`
	// Seed drives the engine and input generation (the schedule's own
	// seed drives only its DropRandom coins).
	Seed uint64 `json:"seed"`
	// POne biases the agreement input bits toward 1; 0 means 0.5.
	POne float64 `json:"p_one,omitempty"`
	// Schedule is the explicit crash adversary.
	Schedule fault.Schedule `json:"schedule"`
}

// Validate checks the case against its system's admissible parameters.
func (c Case) Validate() error {
	sys, err := Lookup(c.System)
	if err != nil {
		return err
	}
	if c.N < 2 {
		return fmt.Errorf("dst: n = %d, need >= 2", c.N)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("dst: alpha = %v out of (0, 1]", c.Alpha)
	}
	if c.POne < 0 || c.POne > 1 {
		return fmt.Errorf("dst: p_one = %v out of [0, 1]", c.POne)
	}
	if c.Schedule.N != c.N {
		return fmt.Errorf("dst: schedule is for n = %d, case has n = %d", c.Schedule.N, c.N)
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	if maxF := sys.MaxF(c.N, c.Alpha); c.Schedule.FaultyCount() > maxF {
		return fmt.Errorf("dst: %d faulty nodes exceed the %s bound %d at n = %d, alpha = %v",
			c.Schedule.FaultyCount(), c.System, maxF, c.N, c.Alpha)
	}
	return nil
}

// Run is the engine-agnostic summary of one execution that the
// differential check compares across modes.
type Run struct {
	// Digest is the engine's execution fingerprint.
	Digest uint64
	// Rounds, Messages and Bits are the run totals.
	Rounds   int
	Messages int64
	Bits     int64
	// Outputs is a canonical rendering of the per-node outputs.
	Outputs string
	// View feeds the oracles.
	View *core.RunView
}

// System is one registered protocol under test.
type System struct {
	// Name is the registry key.
	Name string
	// MaxF bounds the faulty set the adversary may schedule.
	MaxF func(n int, alpha float64) int
	// Horizon is the latest round the adversary schedules crashes in.
	Horizon int
	// Run executes the case in the given engine mode. tracer is usually
	// nil; TraceCase passes a flight recorder through to the engine.
	Run func(c Case, mode netsim.RunMode, tracer netsim.Tracer) (*Run, error)
	// Oracles is the safety suite checked on every run.
	Oracles []core.Oracle
	// Symmetric declares the system rotation-symmetric: its execution is
	// deterministic, ID-blind, coin-blind, input-free, and its machines
	// emit their outbox in a label-free order (e.g. ascending port) even
	// when reacting to an inbox, which arrives in sender-id order —
	// crash policies that select deliveries by outbox index (DropHalf)
	// make emission order observable. Under those conditions, relabeling
	// node u as (u+k) mod n and rotating the crash schedule by k yields
	// an isomorphic execution with an identical verdict. The model checker (internal/mc) explores one
	// representative per rotation orbit for symmetric systems; setting
	// this on a system that reads node IDs, per-node inputs or coins
	// makes mc unsound. Guarded by TestSymmetrySoundness.
	Symmetric bool
	// DefaultAlpha picks the alpha an exhaustive check should use when
	// the caller gives none. The paper's core protocols return their
	// admissibility floor (log^2 n / n, which is 1 — zero crash budget —
	// below n = 32); crash-tolerant-by-design systems return 0.5, the
	// maximal crash budget. nil means 0.5.
	DefaultAlpha func(n int) float64
}

// ResolveAlpha returns alpha when non-zero, else the system's default.
func (s *System) ResolveAlpha(n int, alpha float64) float64 {
	if alpha != 0 {
		return alpha
	}
	if s.DefaultAlpha == nil {
		return 0.5
	}
	return s.DefaultAlpha(n)
}

// Failure is one detected bug: a case plus what went wrong. Kind is
// "divergence" (engine modes disagreed), "oracle" (a safety invariant
// broke), or "error" (the run itself failed under the schedule).
type Failure struct {
	Case   Case   `json:"case"`
	Kind   string `json:"kind"`
	Oracle string `json:"oracle,omitempty"`
	Detail string `json:"detail"`
}

func (f *Failure) String() string {
	if f.Oracle != "" {
		return fmt.Sprintf("%s/%s: %s", f.Kind, f.Oracle, f.Detail)
	}
	return fmt.Sprintf("%s: %s", f.Kind, f.Detail)
}

// sameBug reports whether two failures are the same class of bug, the
// acceptance criterion for a shrink step.
func sameBug(a, b *Failure) bool { return a.Kind == b.Kind && a.Oracle == b.Oracle }

// modes are the engine strategies every case runs through: the
// single-threaded sequential reference and the sharded pipeline, which
// must reproduce the reference execution byte-for-byte on every system.
// Topology systems run both on their compiled port tables, so general
// graphs share the clique's verification story. The socket engine keeps
// its own check (CheckRealnet).
var modes = []struct {
	name string
	mode netsim.RunMode
}{
	{"sequential", netsim.Sequential},
	{"parallel", netsim.Parallel},
}

// Check executes the case differentially through all engine modes and
// the system's oracles. It returns a non-nil *Failure when the case
// exposes a bug and a non-nil error only for infrastructure problems
// (unknown system, invalid case).
func Check(c Case) (*Failure, error) {
	ref, f, err := CheckSequential(c)
	if err != nil || f != nil {
		return f, err
	}
	return CheckRemaining(c, ref)
}

// CheckSequential is the first half of Check: it validates the case and
// executes the reference (sequential) mode only. The returned Run's
// Digest fingerprints the whole execution, so a caller that has already
// checked another case with the same digest — the model checker's
// memoization — can skip CheckRemaining: an identical event stream
// replays identically through the other modes and the oracles. A non-nil
// Failure (kind "error") reports the run failing under the schedule.
func CheckSequential(c Case) (*Run, *Failure, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	sys, err := Lookup(c.System)
	if err != nil {
		return nil, nil, err
	}
	run, err := sys.Run(c, modes[0].mode, nil)
	if err != nil {
		return nil, &Failure{Case: c, Kind: "error",
			Detail: fmt.Sprintf("%s mode: %v", modes[0].name, err)}, nil
	}
	return run, nil, nil
}

// CheckRemaining is the second half of Check: given the sequential
// reference run it executes the remaining engine modes, diffs them
// against the reference, and applies the system's oracles.
func CheckRemaining(c Case, ref *Run) (*Failure, error) {
	sys, err := Lookup(c.System)
	if err != nil {
		return nil, err
	}
	for _, m := range modes[1:] {
		run, err := sys.Run(c, m.mode, nil)
		if err != nil {
			return &Failure{Case: c, Kind: "error",
				Detail: fmt.Sprintf("%s mode: %v", m.name, err)}, nil
		}
		if d := diffRuns(ref, run); d != "" {
			return &Failure{Case: c, Kind: "divergence",
				Detail: fmt.Sprintf("%s vs %s mode: %s", modes[0].name, m.name, d)}, nil
		}
	}
	for _, o := range sys.Oracles {
		if err := o.Check(ref.View); err != nil {
			return &Failure{Case: c, Kind: "oracle", Oracle: o.Name, Detail: err.Error()}, nil
		}
	}
	return nil, nil
}

// TraceCase replays one case in the given engine mode with an execution
// flight recorder attached, writing the binary trace (internal/trace) to
// w. The recorded digest doubles as the witness: TraceCase fails if the
// trace's recomputed digest disagrees with the engine's. Because traces
// are engine-mode invariant, diffing the traces of a failing schedule
// and its fault-free twin (Schedule.Crashes = nil) localizes the first
// event the faults perturbed — the use case `dstrun -repro -trace`
// packages up.
func TraceCase(c Case, mode netsim.RunMode, w io.Writer) (*Run, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sys, err := Lookup(c.System)
	if err != nil {
		return nil, err
	}
	rec, err := trace.NewRecorder(w, trace.Header{N: c.N, Seed: c.Seed, Label: c.System})
	if err != nil {
		return nil, err
	}
	run, err := sys.Run(c, mode, rec)
	if err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, fmt.Errorf("dst: trace of %s case: %w", c.System, err)
	}
	return run, nil
}

// diffRuns describes the first discrepancy between two runs, or "".
func diffRuns(a, b *Run) string {
	switch {
	case a.Digest != b.Digest:
		return fmt.Sprintf("digest %#x vs %#x", a.Digest, b.Digest)
	case a.Rounds != b.Rounds:
		return fmt.Sprintf("rounds %d vs %d", a.Rounds, b.Rounds)
	case a.Messages != b.Messages:
		return fmt.Sprintf("messages %d vs %d", a.Messages, b.Messages)
	case a.Bits != b.Bits:
		return fmt.Sprintf("bits %d vs %d", a.Bits, b.Bits)
	case a.Outputs != b.Outputs:
		return fmt.Sprintf("outputs %q vs %q", a.Outputs, b.Outputs)
	}
	return ""
}

// registry holds the systems under test. Canary is registered but kept
// out of DefaultSystems: it exists to prove the harness detects bugs,
// so a campaign over it always fails.
var registry = map[string]*System{}

func register(s *System) { registry[s.Name] = s }

// Lookup resolves a registered system by name.
func Lookup(name string) (*System, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("dst: unknown system %q (have %v)", name, AllSystems())
	}
	return s, nil
}

// DefaultSystems lists the systems a campaign fuzzes when none are
// named explicitly: every registered real protocol, not the canary.
func DefaultSystems() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		if name != canaryName {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// AllSystems lists every registered system, canary included.
func AllSystems() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// inputRand derives the input-generation stream from the case seed,
// decorrelated from the engine's own streams.
func (c Case) inputRand() *rng.Source { return rng.New(c.Seed).Split(0x1b) }

// adversary builds the case's fresh schedule adversary.
func (c Case) adversary() (netsim.Adversary, error) {
	if c.Schedule.FaultyCount() == 0 {
		return nil, nil
	}
	return c.Schedule.Adversary()
}
