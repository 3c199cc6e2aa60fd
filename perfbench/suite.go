package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sublinear"
	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/dst"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/topo"
)

// The engine workloads' shapes; README.md gives the reason for each.
const (
	paperN     = 1 << 16
	paperAlpha = 0.5
	paperF     = paperN / 2
	paperOps   = 8 // elections and agreements, alternating
	paperBlock = 2 // one election and one agreement per timing block

	floodN   = 2048
	floodF   = 1023
	wcN      = 1 << 16
	d2N      = 1 << 14
	denseOps = 6 // floodset, wcelection, d2election, twice each

	dstCases = 512
	dstBlock = 32  // cases per timing block
	dstWarm  = 128 // warm-up cases: enough that the heavy ones a seed draws average out
)

// dstSizes is the network-size menu a dst campaign draws from.
var dstSizes = []int{32, 48, 64}

// op is one timed unit of an engine workload: a protocol run or a checked
// dst case. run executes it untraced when p is nil.
type op struct {
	kind string
	run  func(p *layerProbe) (opResult, error)
}

// opResult is what one op contributes to the output checks.
type opResult struct {
	digest  uint64
	msgs    int64
	success bool
	// untimed is time spent inside run on a traced-only replay, which is
	// not part of the op and is left out of its latency.
	untimed time.Duration
}

// suite is an engine workload after set-up: its op list plus the set-up
// measurements the traced run reports.
type suite struct {
	ops []op
	// block is the op count of one timing block: throughput is reduced
	// over blocks by steadyRate. It divides len(ops).
	block int
	// warm is how many leading ops the untimed warm-up runs.
	warm        int
	compile     map[string]time.Duration // topology compile time by family
	scheduleGen time.Duration            // dst schedule generation, all cases
	cases       int
}

// passResult is what one closed loop over the op list observed.
type passResult struct {
	first     []opResult // the first pass, in list order
	firstTime time.Duration
	ops       int64
	// opRates and msgRates are each whole block's ops and simulated
	// messages per second.
	opRates, msgRates []float64
	latency           []float64 // per op, ms
}

// runSuite runs an engine workload: set-up setupReps times, an untimed
// warm-up, then closed-loop passes over the op list for the configured
// time — untraced, or with --trace 1 an untraced half followed by a
// traced half over the same ops.
func runSuite(cfg runConfig, build func(seed uint64) (*suite, error)) (*outcome, error) {
	var s *suite
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = build(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	warm := make([]opResult, s.warm)
	for i := range warm {
		var err error
		if warm[i], err = s.ops[i].run(nil); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	setup := median(setups) + time.Since(t0).Seconds()

	o := newOutcome()
	if !cfg.traced {
		r := runPass(s, nil, cfg.seconds, o)
		checkFirstPass(cfg, o, warm, r.first)
		lat := summarize(r.latency)
		fmt.Fprintf(cfg.log, "op latency ms: %s\n", lat)
		fmt.Fprintf(cfg.log, "ops/s over %d blocks of %d ops: %s\n", len(r.opRates), s.block, summarize(r.opRates))
		o.values["setup_s"] = setup
		o.values["ops_per_s"] = steadyRate(r.opRates)
		o.values["sim_msgs_per_s"] = steadyRate(r.msgRates)
		o.values["latency_p50_ms"] = lat.P50
		o.values["latency_p99_ms"] = lat.Tail
		o.values["peak_rss_mb"] = peakRSSMB()
		return o, nil
	}

	// Allocation is read over the untraced half, which makes exactly the
	// program's calls: the traced half adds the tracer's and, on
	// dst-verify, a replay's.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := runPass(s, nil, cfg.seconds/2, o)
	runtime.ReadMemStats(&after)
	checkFirstPass(cfg, o, warm, plain.first)
	p := newLayerProbe()
	traced := runPass(s, p, cfg.seconds/2, o)
	for i := range plain.first {
		if plain.first[i].digest != traced.first[i].digest {
			o.fail("%s op %d: traced digest %#x, untraced %#x",
				s.ops[i].kind, i, traced.first[i].digest, plain.first[i].digest)
		}
	}
	p.report(o.values, traced.ops, cfg.log)
	o.values["core.success_runs"] = float64(successes(traced.first))
	o.values["fault.schedule_gen_us_per_case"] = perOp(us(s.scheduleGen), int64(s.cases))
	for family, d := range s.compile {
		o.values["topo.compile_s."+family] = d.Seconds()
	}
	o.values["go.alloc_bytes_per_op"] = perOp(float64(after.TotalAlloc-before.TotalAlloc), plain.ops)
	o.values["trace.overhead_frac"] = traced.firstTime.Seconds()/plain.firstTime.Seconds() - 1
	return o, nil
}

// runPass runs the op list in a closed loop, one op at a time, until
// budget has passed and at least one whole pass is done. An op fails when
// it errors, when its run fails its own success evaluation, or when it
// does not reproduce its first-pass digest.
func runPass(s *suite, p *layerProbe, budget time.Duration, o *outcome) passResult {
	r := passResult{first: make([]opResult, len(s.ops))}
	var untimed, blockTime time.Duration
	var blockMsgs int64
	start := time.Now()
	for i := 0; i < len(s.ops) || i%s.block != 0 || time.Since(start)-untimed < budget; i++ {
		idx := i % len(s.ops)
		if i%s.block == 0 {
			// Each block starts from a collected heap, so where the
			// previous block left the collector does not move this one.
			tg := time.Now()
			runtime.GC()
			untimed += time.Since(tg)
		}
		t0 := time.Now()
		res, err := s.ops[idx].run(p)
		dt := time.Since(t0) - res.untimed
		untimed += res.untimed
		r.ops++
		r.latency = append(r.latency, ms(dt))
		if i < len(s.ops) {
			r.first[idx] = res
			r.firstTime += dt
		}
		blockTime += dt
		blockMsgs += res.msgs
		if (i+1)%s.block == 0 {
			r.opRates = append(r.opRates, float64(s.block)/blockTime.Seconds())
			r.msgRates = append(r.msgRates, float64(blockMsgs)/blockTime.Seconds())
			blockTime, blockMsgs = 0, 0
		}
		switch {
		case err != nil:
			o.fail("%s op %d: %v", s.ops[idx].kind, idx, err)
		case !res.success:
			o.fail("%s op %d: the run failed its own success evaluation", s.ops[idx].kind, idx)
		case i >= len(s.ops) && res.digest != r.first[idx].digest:
			o.fail("%s op %d: digest %#x, first pass %#x", s.ops[idx].kind, idx, res.digest, r.first[idx].digest)
		}
	}
	o.attempted += r.ops
	return r
}

// checkFirstPass checks that the warm-up reproduced the ops it ran and,
// at the default seed, that the first pass matches its pin.
func checkFirstPass(cfg runConfig, o *outcome, warm, first []opResult) {
	for i, w := range warm {
		if w.digest != first[i].digest {
			o.fail("op %d: warm-up digest %#x, timed %#x", i, w.digest, first[i].digest)
		}
	}
	fold, ok := foldDigests(first), successes(first)
	fmt.Fprintf(cfg.log, "first pass: digest fold %#x, %d of %d runs succeeded\n", fold, ok, len(first))
	want, pinned := pins[cfg.workload]
	if pinned && cfg.seed == defaultSeed && (fold != want.fold || ok != want.successes) {
		o.fail("default seed: digest fold %#x with %d successes, pinned %#x with %d", fold, ok, want.fold, want.successes)
	}
}

// foldDigests folds execution digests in order.
func foldDigests(rs []opResult) uint64 {
	var h uint64
	for _, r := range rs {
		h = mix64(h ^ r.digest)
	}
	return h
}

func successes(rs []opResult) int {
	n := 0
	for _, r := range rs {
		if r.success {
			n++
		}
	}
	return n
}

// buildPaperSparse lists the paper's own workload: election and agreement
// alternately at n = 65536, alpha = 0.5, f = n/2 DropHalf crashes, on the
// default sequential engine.
func buildPaperSparse(seed uint64) (*suite, error) {
	s := &suite{block: paperBlock, warm: 1}
	for i := 0; i < paperOps; i++ {
		opSeed := deriveSeed(seed, i)
		if i%2 == 0 {
			s.ops = append(s.ops, electOp(opSeed))
		} else {
			s.ops = append(s.ops, agreeOp(opSeed, sublinear.RandomInputs(paperN, 0.5, opSeed^0xbeef)))
		}
	}
	return s, nil
}

// paperConfig is the core.RunConfig that sublinear.Elect and
// sublinear.Agree derive for the workload's options (n, alpha, f = n/2
// DropHalf crashes), built here so that the traced pass can wrap the
// adversary in the counting decorator. The default-seed pin checks that
// it stays the same execution.
func paperConfig(seed uint64, p *layerProbe, tr netsim.Tracer) (core.RunConfig, error) {
	d, err := core.DeriveParams(core.Params{}, paperN, paperAlpha)
	if err != nil {
		return core.RunConfig{}, err
	}
	horizon := max(d.ElectionRounds, d.AgreementRounds)
	plan, err := fault.NewRandomPlan(paperN, paperF, horizon, fault.DropHalf, rng.New(seed^0x5eedfa17))
	if err != nil {
		return core.RunConfig{}, err
	}
	return core.RunConfig{N: paperN, Alpha: paperAlpha, Seed: seed, Adversary: p.wrap(plan), Tracer: tr}, nil
}

func electOp(seed uint64) op {
	return op{kind: "election", run: func(p *layerProbe) (opResult, error) {
		return p.engineCall("netsim", "election", paperN, func(tr netsim.Tracer) (opResult, error) {
			cfg, err := paperConfig(seed, p, tr)
			if err != nil {
				return opResult{}, err
			}
			res, err := core.RunElection(cfg)
			if err != nil {
				return opResult{}, err
			}
			return opResult{digest: res.Digest, msgs: res.Counters.Messages(), success: res.Eval.Success}, nil
		})
	}}
}

func agreeOp(seed uint64, inputs []int) op {
	return op{kind: "agreement", run: func(p *layerProbe) (opResult, error) {
		return p.engineCall("netsim", "agreement", paperN, func(tr netsim.Tracer) (opResult, error) {
			cfg, err := paperConfig(seed, p, tr)
			if err != nil {
				return opResult{}, err
			}
			res, err := core.RunAgreement(cfg, inputs)
			if err != nil {
				return opResult{}, err
			}
			return opResult{digest: res.Digest, msgs: res.Counters.Messages(), success: res.Eval.Success}, nil
		})
	}}
}

// buildTable1Dense compiles the two topologies and lists message-bound
// Table I runs on the parallel engine: FloodSet on the clique,
// wcelection on wellconnected, d2election on cluster-d2.
func buildTable1Dense(seed uint64) (*suite, error) {
	s := &suite{block: 3, warm: 1, compile: map[string]time.Duration{}}
	compile := func(family string, n int) (*topo.Topology, error) {
		t0 := time.Now()
		tp, err := topo.ResolveTopology(family, n, seed)
		s.compile[family] = time.Since(t0)
		return tp, err
	}
	d2, err := compile("cluster-d2", d2N)
	if err != nil {
		return nil, err
	}
	wc, err := compile("wellconnected", wcN)
	if err != nil {
		return nil, err
	}
	// Twice one node's eccentricity bounds the diameter, so the flood
	// reaches every node without the O(n*m) all-pairs Diameter().
	horizon := 2 * eccentricity(wc, 0)
	for i := 0; i < denseOps; i++ {
		opSeed := deriveSeed(seed, i)
		switch i % 3 {
		case 0:
			s.ops = append(s.ops, floodSetOp(opSeed))
		case 1:
			s.ops = append(s.ops, wcOp(opSeed, wc, horizon))
		default:
			s.ops = append(s.ops, d2Op(opSeed, d2))
		}
	}
	return s, nil
}

// eccentricity is the largest hop distance from src, by breadth-first
// search.
func eccentricity(tp *topo.Topology, src int) int {
	dist := make([]int32, tp.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	ecc := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for p := 1; p <= tp.Degree(u); p++ {
			if v, _ := tp.Edge(u, p); dist[v] < 0 {
				dist[v] = dist[u] + 1
				ecc = max(ecc, int(dist[v]))
				queue = append(queue, v)
			}
		}
	}
	return ecc
}

func baselineResult(res *baseline.Result) opResult {
	return opResult{digest: res.Digest, msgs: res.Counters.Messages(), success: res.Success}
}

func floodSetOp(seed uint64) op {
	inputs := sublinear.RandomInputs(floodN, 0.5, seed^0xbeef)
	return op{kind: "floodset", run: func(p *layerProbe) (opResult, error) {
		return p.engineCall("netsim", "floodset", floodN, func(tr netsim.Tracer) (opResult, error) {
			plan, err := fault.NewRandomPlan(floodN, floodF, floodF+1, fault.DropHalf, rng.New(seed^0xadd5))
			if err != nil {
				return opResult{}, err
			}
			res, err := baseline.RunFloodSet(baseline.FloodSetConfig{
				N: floodN, Seed: seed, F: floodF, Mode: netsim.Parallel, Tracer: tr,
			}, inputs, p.wrap(plan))
			if err != nil {
				return opResult{}, err
			}
			return baselineResult(res), nil
		})
	}}
}

func wcOp(seed uint64, tp *topo.Topology, horizon int) op {
	return op{kind: "wcelection", run: func(p *layerProbe) (opResult, error) {
		return p.engineCall("topo", "wcelection", wcN, func(tr netsim.Tracer) (opResult, error) {
			res, err := baseline.RunWCElection(baseline.WCConfig{
				N: wcN, Seed: seed, Topology: tp, Rounds: horizon, Tracer: tr,
			}, nil)
			if err != nil {
				return opResult{}, err
			}
			return baselineResult(res), nil
		})
	}}
}

func d2Op(seed uint64, tp *topo.Topology) op {
	return op{kind: "d2election", run: func(p *layerProbe) (opResult, error) {
		return p.engineCall("topo", "d2election", d2N, func(tr netsim.Tracer) (opResult, error) {
			res, err := baseline.RunD2Election(baseline.D2Config{
				N: d2N, Seed: seed, Topology: tp, Tracer: tr,
			}, nil)
			if err != nil {
				return opResult{}, err
			}
			return baselineResult(res), nil
		})
	}}
}

// buildDSTVerify draws cases the way dst.RunCampaign does — round-robin
// over the default systems, n from the campaign sizes, alpha at
// max(log^2 n / n, 0.7), a generated crash schedule — and times the
// schedule generation.
func buildDSTVerify(seed uint64) (*suite, error) {
	s := &suite{block: dstBlock, warm: dstWarm, cases: dstCases}
	names := dst.DefaultSystems()
	src := rng.New(seed)
	for i := 0; i < dstCases; i++ {
		sys, err := dst.Lookup(names[i%len(names)])
		if err != nil {
			return nil, err
		}
		n := dstSizes[src.Intn(len(dstSizes))]
		alpha := math.Max(core.MinimumAlpha(n), 0.7)
		c := dst.Case{System: sys.Name, N: n, Alpha: alpha, Seed: src.Uint64()}
		t0 := time.Now()
		c.Schedule = fault.GenerateSchedule(n, sys.MaxF(n, alpha), sys.Horizon, src)
		s.scheduleGen += time.Since(t0)
		s.ops = append(s.ops, dstOp(sys, c))
	}
	return s, nil
}

// topoSystems are the dst systems that run on internal/topo.
var topoSystems = map[string]bool{"d2election": true, "wcelection": true}

// dstOp checks one case exactly as dst.Check does, split into its
// reference and differential halves so the traced pass can time each.
// dst.Check takes no tracer, so the traced pass gets its engine-layer
// figures from a traced replay of the reference lane, which must
// reproduce the reference digest and is kept out of the op's time.
func dstOp(sys *dst.System, c dst.Case) op {
	layer := "netsim"
	if topoSystems[sys.Name] {
		layer = "topo"
	}
	return op{kind: "dst/" + sys.Name, run: func(p *layerProbe) (opResult, error) {
		t0 := time.Now()
		ref, failure, err := dst.CheckSequential(c)
		t1 := time.Now()
		if err == nil && failure == nil {
			failure, err = dst.CheckRemaining(c, ref)
		}
		t2 := time.Now()
		if err != nil {
			return opResult{}, err
		}
		r := opResult{success: failure == nil}
		if ref != nil {
			r.digest, r.msgs = ref.Digest, ref.Messages
		}
		if p != nil {
			p.dstRef += t1.Sub(t0)
			p.dstDiff += t2.Sub(t1)
			p.dstCases++
			if failure != nil {
				p.dstFailures++
			}
			t3 := time.Now()
			replay, err := p.engineCall(layer, "dst", c.N, func(tr netsim.Tracer) (opResult, error) {
				run, err := sys.Run(c, netsim.Sequential, tr)
				if err != nil {
					return opResult{}, err
				}
				return opResult{digest: run.Digest}, nil
			})
			r.untimed = time.Since(t3)
			switch {
			case err != nil:
				return r, fmt.Errorf("traced replay: %w", err)
			case ref != nil && replay.digest != ref.Digest:
				return r, fmt.Errorf("traced replay digest %#x, reference %#x", replay.digest, ref.Digest)
			}
		}
		if failure != nil {
			return r, fmt.Errorf("dst %s", failure)
		}
		return r, nil
	}}
}
