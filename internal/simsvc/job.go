// Package simsvc is the simulation-as-a-service layer: a job queue, a
// worker pool, a seed-keyed result cache, and an HTTP API over the
// protocols and experiments this repository implements. One long-running
// daemon (cmd/simd) replaces process-per-run invocations of cmd/ftle,
// cmd/ftagree and cmd/experiments: jobs are small independent Monte Carlo
// runs, exactly the workload a pool plus cache serves best. Because every
// engine is deterministic in its seed, a cached result is exact — an
// identical resubmission is a true replay, not an approximation.
package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"sublinear/internal/fault"
	"sublinear/internal/topo"
)

// Protocols accepted by JobSpec.Protocol. The core three run the paper's
// algorithms through the public sublinear API; the baseline names run the
// Table-I comparators; "experiment" replays a registered experiment
// (E1–E14) from the shared internal/experiment registry; "dst" runs a
// deterministic-simulation fuzzing campaign (internal/dst) over the real
// protocols, where Reps is the case budget and a "success" is a case
// with no engine divergence and no oracle violation; "mc" exhaustively
// model-checks one dst system's bounded schedule universe (internal/mc)
// over the index range [Lo, Hi), which is how the fleet shards one
// exhaustive run across workers.
const (
	ProtoElection   = "election"
	ProtoAgreement  = "agreement"
	ProtoMinAgree   = "minagree"
	ProtoExperiment = "experiment"
	ProtoDST        = "dst"
	ProtoMC         = "mc"
)

// baselineProtocols maps the JobSpec spelling of each Table-I comparator.
var baselineProtocols = map[string]bool{
	"gk": true, "floodset": true, "gossip": true, "rotating": true,
	"allpairs": true, "kutten": true, "amp": true,
}

// topologyProtocols run on internal/topo instead of the clique engines
// and accept the Topology field: leader election on diameter-two graphs
// ("d2election") and on well-connected expanders ("wcelection").
// defaultTopology is each protocol's native graph family, resolved into
// the spec so two spellings of the default share one cache entry.
var defaultTopology = map[string]string{
	"d2election": "cluster-d2",
	"wcelection": "wellconnected",
}

// Protocols returns every accepted protocol name, sorted.
func Protocols() []string {
	out := []string{ProtoElection, ProtoAgreement, ProtoMinAgree, ProtoExperiment, ProtoDST, ProtoMC}
	for p := range baselineProtocols {
		out = append(out, p)
	}
	for p := range defaultTopology {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// JobSpec is one simulation job as submitted over the API. The zero value
// of every optional field means "the default"; Normalize resolves the
// defaults so two spellings of the same job share one cache entry.
type JobSpec struct {
	// Tenant is the submitting tenant's label, the unit of admission
	// control: queue-depth and concurrency budgets and fair-share weight
	// are per tenant (internal/quota). Empty normalizes to "default".
	// Deliberately excluded from Key(): results are deterministic in the
	// spec, so tenants share the result cache — a label must not split
	// identical work into duplicate runs.
	Tenant string `json:"tenant,omitempty"`
	// Protocol selects the algorithm; see Protocols().
	Protocol string `json:"protocol"`
	// N is the network size (core protocols and baselines).
	N int `json:"n,omitempty"`
	// Alpha is the guaranteed non-faulty fraction; 0 means 0.5.
	Alpha float64 `json:"alpha,omitempty"`
	// F is the faulty-node count; nil derives (1-alpha)*n, 0 is
	// fault-free.
	F *int `json:"f,omitempty"`
	// POne is P[input bit = 1] for agreement workloads; 0 means 0.5.
	POne float64 `json:"pone,omitempty"`
	// Policy is the crash-round delivery policy (all|none|half|random);
	// empty means half.
	Policy string `json:"policy,omitempty"`
	// Engine selects the execution engine (seq|concurrent); empty means
	// seq. Both engines are deterministic per seed. For topology
	// protocols the engine maps onto the pipeline's worker count
	// (1, GOMAXPROCS) — digests are identical across both.
	Engine string `json:"engine,omitempty"`
	// Topology names the graph family a topology protocol runs on (see
	// topo.TopologyNames); empty resolves the protocol's native family
	// (cluster-d2 for d2election, wellconnected for wcelection). Only
	// valid for topology protocols.
	Topology string `json:"topology,omitempty"`
	// Explicit runs the explicit extension of election/agreement.
	Explicit bool `json:"explicit,omitempty"`
	// Hunter uses the adaptive committee-hunting adversary (election).
	Hunter bool `json:"hunter,omitempty"`
	// Late crashes all faulty nodes after the election (footnote 3).
	Late bool `json:"late,omitempty"`
	// Seed is the base seed; repetition r runs with Seed + r*7919.
	Seed uint64 `json:"seed"`
	// Reps is the repetition count; 0 means 1.
	Reps int `json:"reps,omitempty"`
	// Experiment is the registered experiment ID (protocol "experiment").
	Experiment string `json:"experiment,omitempty"`
	// System names the dst-registered system a model-checking job
	// explores (protocol "mc").
	System string `json:"system,omitempty"`
	// Horizon bounds the crash rounds a model-checking job enumerates;
	// 0 resolves the system's own horizon.
	Horizon int `json:"horizon,omitempty"`
	// Policies is the comma-separated drop-policy palette of a
	// model-checking job (e.g. "all,half,none"); empty means the
	// deterministic palette.
	Policies string `json:"policies,omitempty"`
	// Lo and Hi delimit the schedule-index range [Lo, Hi) a
	// model-checking job scans; Hi 0 means the whole universe. Disjoint
	// ranges over the same universe are shards of one exhaustive run.
	Lo int64 `json:"lo,omitempty"`
	Hi int64 `json:"hi,omitempty"`
	// Quick shrinks experiment sweeps to CI scale.
	Quick bool `json:"quick,omitempty"`
	// Raw asks for the per-repetition series (messages, bits, rounds,
	// outcome per rep) alongside the aggregates, so a distributed caller
	// (internal/fleet) can merge shards into statistics bit-identical to
	// a single-process run. Core protocols and baselines only.
	Raw bool `json:"raw,omitempty"`
	// Trace records one repetition's execution trace (internal/trace)
	// alongside the result: the first failed repetition if any failed,
	// the first repetition otherwise. The trace is deposited in the
	// daemon's content-addressed trace store and referenced by the
	// result's TraceID for GET /v1/traces/{id}. Core protocols and
	// baselines only; costs one extra (deterministic) repetition when
	// the traced rep is not rep 0.
	Trace bool `json:"trace,omitempty"`
}

// Limits bound what a single job may ask for, so one request cannot pin a
// worker for hours. They are service configuration, not protocol limits.
type Limits struct {
	MaxN    int
	MaxReps int
}

// DefaultLimits are the daemon defaults.
var DefaultLimits = Limits{MaxN: 1 << 16, MaxReps: 1000}

// Normalize validates the spec against the limits and resolves every
// default to its concrete value. The returned spec is canonical: two
// specs describing the same job normalize identically, which is what the
// cache key hashes.
// DefaultTenant is the tenant label of unlabelled submissions.
const DefaultTenant = "default"

func (s JobSpec) Normalize(lim Limits) (JobSpec, error) {
	out := s
	out.Tenant = strings.ToLower(strings.TrimSpace(s.Tenant))
	if out.Tenant == "" {
		out.Tenant = DefaultTenant
	}
	out.Protocol = strings.ToLower(strings.TrimSpace(s.Protocol))
	core := out.Protocol == ProtoElection || out.Protocol == ProtoAgreement || out.Protocol == ProtoMinAgree
	switch {
	case core, baselineProtocols[out.Protocol], defaultTopology[out.Protocol] != "":
	case out.Protocol == ProtoDST:
		// The campaign picks its own sizes and adversaries; only the seed
		// and the case budget (Reps) matter. Zero the rest so irrelevant
		// fields cannot split the cache.
		out.N, out.Alpha, out.F, out.POne = 0, 0, nil, 0
		out.Policy, out.Engine = "", ""
		out.Explicit, out.Hunter, out.Late = false, false, false
		out.Experiment, out.Quick = "", false
		out.Raw, out.Trace = false, false
		out.Topology = ""
		out.System, out.Horizon, out.Policies, out.Lo, out.Hi = "", 0, "", 0, 0
		if out.Reps == 0 {
			out.Reps = 25
		}
		if out.Reps < 1 || out.Reps > lim.MaxReps {
			return out, fmt.Errorf("reps %d out of range [1, %d]", out.Reps, lim.MaxReps)
		}
		return out, nil
	case out.Protocol == ProtoMC:
		// Exhaustive model checking: the universe is (System, N, Alpha,
		// Horizon, Policies, Seed) and the work is the index range
		// [Lo, Hi). MaxF rides in F. Everything else is zeroed so
		// irrelevant fields cannot split the cache; mc.Config.Resolve
		// validates the semantic fields at run time against the system's
		// registration.
		out.Policy, out.Engine = "", ""
		out.Explicit, out.Hunter, out.Late = false, false, false
		out.Experiment, out.Quick = "", false
		out.Raw, out.Trace = false, false
		out.Topology = ""
		out.Reps = 1
		if out.System == "" {
			return out, fmt.Errorf("mc jobs need a system name")
		}
		if out.N < 2 || out.N > lim.MaxN {
			return out, fmt.Errorf("n %d out of range [2, %d]", out.N, lim.MaxN)
		}
		if out.Alpha < 0 || out.Alpha > 1 {
			return out, fmt.Errorf("alpha %v out of range [0, 1] (0 = system default)", out.Alpha)
		}
		if out.POne < 0 || out.POne > 1 {
			return out, fmt.Errorf("pone %v out of range [0, 1]", out.POne)
		}
		if out.F == nil {
			derive := -1 // mc derives the system's crash budget
			out.F = &derive
		}
		if out.Policies != "" {
			for _, p := range strings.Split(out.Policies, ",") {
				if _, err := fault.ParsePolicy(strings.TrimSpace(p)); err != nil {
					return out, err
				}
			}
		}
		if out.Lo < 0 || (out.Hi != 0 && out.Hi <= out.Lo) {
			return out, fmt.Errorf("index range [%d, %d) is empty or negative", out.Lo, out.Hi)
		}
		return out, nil
	case out.Protocol == ProtoExperiment:
		if out.Experiment == "" {
			return out, fmt.Errorf("experiment jobs need an experiment ID")
		}
		// N, faults, engine are the experiment's business; zero them so
		// irrelevant fields cannot split the cache.
		out.N, out.Alpha, out.F, out.POne = 0, 0, nil, 0
		out.Policy, out.Engine = "", ""
		out.Explicit, out.Hunter, out.Late = false, false, false
		out.Raw, out.Trace = false, false
		out.Topology = ""
		out.System, out.Horizon, out.Policies, out.Lo, out.Hi = "", 0, "", 0, 0
		out.Reps = 1
		return out, nil
	default:
		return out, fmt.Errorf("unknown protocol %q (want one of %s)",
			s.Protocol, strings.Join(Protocols(), "|"))
	}
	out.Experiment, out.Quick = "", false
	out.System, out.Horizon, out.Policies, out.Lo, out.Hi = "", 0, "", 0, 0
	if out.Reps == 0 {
		out.Reps = 1
	}
	if out.Reps < 1 || out.Reps > lim.MaxReps {
		return out, fmt.Errorf("reps %d out of range [1, %d]", out.Reps, lim.MaxReps)
	}
	if out.N < 2 || out.N > lim.MaxN {
		return out, fmt.Errorf("n %d out of range [2, %d]", out.N, lim.MaxN)
	}
	if out.Alpha == 0 {
		out.Alpha = 0.5
	}
	if out.Alpha < 0 || out.Alpha > 1 {
		return out, fmt.Errorf("alpha %v out of range (0, 1]", out.Alpha)
	}
	if out.F == nil {
		f := int((1 - out.Alpha) * float64(out.N))
		out.F = &f
	}
	if *out.F < 0 || *out.F >= out.N {
		return out, fmt.Errorf("f %d out of range [0, n)", *out.F)
	}
	if out.POne == 0 {
		out.POne = 0.5
	}
	if out.POne < 0 || out.POne > 1 {
		return out, fmt.Errorf("pone %v out of range [0, 1]", out.POne)
	}
	if out.Policy == "" {
		out.Policy = "half"
	}
	switch out.Policy {
	case "all", "none", "half", "random":
	default:
		return out, fmt.Errorf("unknown policy %q (want all|none|half|random)", out.Policy)
	}
	if out.Engine == "" {
		out.Engine = "seq"
	}
	switch out.Engine {
	case "seq", "concurrent":
	default:
		return out, fmt.Errorf("unknown engine %q (want seq|concurrent)", out.Engine)
	}
	if native := defaultTopology[out.Protocol]; native != "" {
		if out.Topology == "" {
			out.Topology = native
		}
		if !knownTopology(out.Topology) {
			return out, fmt.Errorf("unknown topology %q (want one of %s)",
				out.Topology, strings.Join(topo.TopologyNames(), "|"))
		}
	} else if out.Topology != "" {
		return out, fmt.Errorf("protocol %q does not take a topology", out.Protocol)
	}
	return out, nil
}

// knownTopology reports whether name is a ResolveTopology family.
func knownTopology(name string) bool {
	for _, t := range topo.TopologyNames() {
		if t == name {
			return true
		}
	}
	return false
}

// Key returns the content address of a normalized spec: the hex SHA-256
// of its canonical encoding. Identical jobs — same protocol, parameters,
// engine, and seed — share a key, and deterministic engines make the
// cached result under that key exact. Tenant is not part of the
// encoding: it labels who asked, not what runs.
func (s JobSpec) Key() string {
	f := -1
	if s.F != nil {
		f = *s.F
	}
	canon := fmt.Sprintf("v5|%s|n=%d|alpha=%g|f=%d|pone=%g|policy=%s|engine=%s|topo=%s|x=%t|h=%t|l=%t|seed=%d|reps=%d|exp=%s|quick=%t|raw=%t|trace=%t|sys=%s|hor=%d|pols=%s|lo=%d|hi=%d",
		s.Protocol, s.N, s.Alpha, f, s.POne, s.Policy, s.Engine, s.Topology,
		s.Explicit, s.Hunter, s.Late, s.Seed, s.Reps, s.Experiment, s.Quick, s.Raw, s.Trace,
		s.System, s.Horizon, s.Policies, s.Lo, s.Hi)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}
