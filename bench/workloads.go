package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chipletnet"
	"chipletnet/internal/dse"
	"chipletnet/internal/experiments"
	"chipletnet/internal/rng"
	"chipletnet/internal/verify"
)

// sizes fixes every workload's inputs at one scale. The shapes (which
// call path, which regime) are the same at both scales; only chiplet and
// cycle counts shrink for -smoke.
type sizes struct {
	idle, loaded chipletnet.Config
	compiled     []chipletnet.Topology
	compiledWarm int64
	compiledMeas int64
	fig11        experiments.Scale
	dseSpace     dse.Space
	dseParams    dse.Params
	job          chipletnet.Config
	jobs         int
	clients      int
	ckptEvery    int64
}

func simCfg(topo chipletnet.Topology, rate float64, warm, meas int64) chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = topo
	cfg.InjectionRate = rate
	cfg.WarmupCycles = warm
	cfg.MeasureCycles = meas
	return cfg
}

// fullSizes are the committed workload sizes. Cycle counts are scaled so
// one op takes about a second on the 2-CPU reference container: a run of
// --seconds 10 then times at least seven ops.
func fullSizes() sizes {
	return sizes{
		idle:   simCfg(chipletnet.HypercubeTopology(6), 0.05, 4000, 36000),
		loaded: simCfg(chipletnet.HypercubeTopology(8), 0.30, 100, 500),
		// 64 chiplets each, except dragonfly: a 4x4 chiplet has 12
		// interface nodes, which caps a fully connected network at 12.
		compiled: []chipletnet.Topology{
			chipletnet.MeshTopology(8, 8),
			chipletnet.NDMeshTopology(4, 4, 4),
			chipletnet.HypercubeTopology(6),
			chipletnet.DragonflyTopology(12),
			chipletnet.TreeTopology(64, 4),
		},
		compiledWarm: 100, compiledMeas: 200,
		fig11: experiments.Scale{
			Name: "bench", WarmupCycles: 100, MeasureCycles: 400,
			Rates: []float64{0.1, 0.3, 0.6, 1.0}, MaxChiplets: 64,
		},
		dseSpace: dse.Space{
			Chiplets:      16,
			Topologies:    []string{"mesh", "ndmesh", "hypercube", "tree", "dragonfly"},
			Routings:      []string{dse.RoutingMFR, dse.RoutingAdaptive},
			Interleavings: []string{"none", "packet"},
		},
		dseParams: dse.Params{WarmupCycles: 100, MeasureCycles: 300, Rates: []float64{0.1, 0.3, 0.5}},
		job:       simCfg(chipletnet.HypercubeTopology(4), 0.2, 500, 2000),
		jobs:      30, clients: 2, ckptEvery: 2000,
	}
}

// smokeSizes run every workload in well under a second each, for the
// tests that ride tier-1.
func smokeSizes() sizes {
	return sizes{
		idle:   simCfg(chipletnet.HypercubeTopology(3), 0.05, 300, 1700),
		loaded: simCfg(chipletnet.HypercubeTopology(4), 0.30, 50, 150),
		compiled: []chipletnet.Topology{
			chipletnet.MeshTopology(2, 2),
			chipletnet.NDMeshTopology(2, 2),
			chipletnet.HypercubeTopology(3),
			chipletnet.DragonflyTopology(4),
			chipletnet.TreeTopology(4, 2),
		},
		compiledWarm: 50, compiledMeas: 100,
		// Fig11's three systems are 64 chiplets whatever the scale, so
		// smoke only shortens them.
		fig11: experiments.Scale{
			Name: "bench-smoke", WarmupCycles: 20, MeasureCycles: 60,
			Rates: []float64{0.1, 0.6}, MaxChiplets: 64,
		},
		dseSpace: dse.Space{
			Chiplets:      4,
			Topologies:    []string{"mesh", "hypercube"},
			Routings:      []string{dse.RoutingMFR, dse.RoutingAdaptive},
			Interleavings: []string{"none"},
		},
		dseParams: dse.Params{WarmupCycles: 50, MeasureCycles: 150, Rates: []float64{0.1, 0.3}},
		job:       simCfg(chipletnet.HypercubeTopology(2), 0.2, 100, 300),
		jobs:      6, clients: 2, ckptEvery: 200,
	}
}

// env is what one benchmark invocation hands every op: the seed all
// inputs derive from, the sizes, and a scratch directory inside the
// checkout.
type env struct {
	seed uint64
	sz   sizes
	tmp  string
	// warmStore is the populated evaluation store dse-warm reads.
	warmStore string
}

func (e *env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// seeded returns cfg with the invocation's seed: the program under test
// only ever sees generated inputs.
func (e *env) seeded(cfg chipletnet.Config) chipletnet.Config {
	cfg.Seed = e.seed
	return cfg
}

// opResult is one closed-loop op as its caller saw it.
type opResult struct {
	wallS float64 // the whole op, set-up included
	// setupS are samples of the host time before useful work can start:
	// the op's own set-up, plus repeats beside the op where set-up is
	// too short for one sample per op to give a steady median.
	setupS []float64
	// simS is the host time routerCycles were simulated in; 0 means the
	// whole op (workloads that cannot separate stepping from set-up).
	simS         float64
	routerCycles float64
	// jobLatS are the per-result waits inside the op; nil means the op
	// is the only result its caller waits for.
	jobLatS []float64
	digest  string
	err     error
}

// tracedResult is one traced op: the digest the mirror produced (it must
// equal the untraced op's), the traced wall time and the per-layer
// numbers by metric name.
type tracedResult struct {
	digest string
	wallS  float64
	values map[string]float64
	layers map[string]*layerTotals
}

type workload struct {
	name, why string
	minOps    int
	// prepare is untimed state the ops need (dse-warm's populated store).
	prepare func(e *env) error
	op      func(e *env) opResult
	traced  func(e *env, tr *tracer) (tracedResult, error)
}

func workloads() []workload {
	return []workload{
		{
			name: "single-idle", minOps: 7,
			why: "one Build+Simulate, 64 chiplets at 0.05 load: almost every router idles, so active-set scheduling, traffic draws and packet pooling dominate",
			op:  func(e *env) opResult { return singleOp(e.seeded(e.sz.idle)) },
			traced: func(e *env, tr *tracer) (tracedResult, error) {
				return singleTraced(tr, e.seeded(e.sz.idle))
			},
		},
		{
			name: "single-loaded", minOps: 7,
			why: "same call path, 256 chiplets at 0.30 load: most routers busy and the working set outgrows the caches, so link delivery, VA and SA dominate",
			op:  func(e *env) opResult { return singleOp(e.seeded(e.sz.loaded)) },
			traced: func(e *env, tr *tracer) (tracedResult, error) {
				return singleTraced(tr, e.seeded(e.sz.loaded))
			},
		},
		{
			name: "build-compiled", minOps: 7,
			why:    "Build with compiled routing on five topologies then 300 cycles: construction, compile and certification dominate; bypasses every stepping optimisation",
			op:     compiledOp,
			traced: compiledTraced,
		},
		{
			name: "sweep-fig11", minOps: 7,
			why:    "experiments.Fig11 uniform, 12 points through RunMany, several saturated: pool scaling, GC contention between workers and the saturated regime",
			op:     fig11Op,
			traced: fig11Traced,
		},
		{
			name: "dse-cold", minOps: 7,
			why:    "dse.Explore of a 16-chiplet space into a fresh store: enumeration, certification, simulation of every candidate and sharded-cache writes",
			op:     dseColdOp,
			traced: func(e *env, tr *tracer) (tracedResult, error) { return dseTraced(e, tr, false) },
		},
		{
			name: "dse-warm", minOps: 15,
			why:     "the same exploration against the populated store, re-opened per op, 0 simulated: cache reads, enumeration and certification only",
			prepare: dseWarmPrepare,
			op:      dseWarmOp,
			traced:  func(e *env, tr *tracer) (tracedResult, error) { return dseTraced(e, tr, true) },
		},
		{
			name: "daemon-jobs", minOps: 7,
			why:    "2 closed-loop HTTP clients push small simulate jobs through service.Open behind httptest: JSON, journal fsync, queue wait and checkpoint writes show",
			op:     func(e *env) opResult { r, _ := daemonOp(e, nil, -1); return r },
			traced: daemonTraced,
		},
	}
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// repeatSetup adds samples of a set-up that takes milliseconds (one
// Build, one service.Open) beside the op, so the op's set-up value is a
// median of several: up to 15 samples or 60 ms, whichever comes first.
// What setup returns is undone outside the timed region.
func repeatSetup(samples []float64, setup func() (undo func() error, err error)) ([]float64, error) {
	for start := time.Now(); len(samples) < 15 && since(start) < 0.060; {
		t0 := time.Now()
		undo, err := setup()
		samples = append(samples, since(t0))
		if err == nil && undo != nil {
			err = undo()
		}
		if err != nil {
			return samples, err
		}
	}
	return samples, nil
}

// ---- single-idle, single-loaded ----

func singleOp(cfg chipletnet.Config) opResult {
	t0 := time.Now()
	sys, err := chipletnet.Build(cfg)
	if err != nil {
		return opResult{err: err}
	}
	setup := since(t0)
	res, err := sys.Simulate()
	wall := since(t0)
	if err == nil && res.Deadlocked {
		err = fmt.Errorf("deadlocked")
	}
	setups := []float64{setup}
	if err == nil {
		setups, err = repeatSetup(setups, func() (func() error, error) {
			_, err := chipletnet.Build(cfg)
			return nil, err
		})
	}
	return opResult{
		wallS: wall, setupS: setups, simS: wall - setup,
		routerCycles: routerCycles(cfg),
		digest:       digestStats([]simStats{statsOfResult(res)}),
		err:          err,
	}
}

// engineVariants are the cycle engines the traced pass steps once each,
// by metric suffix: the numbers the variants/islands decisions rest on.
// The default-engine rows are what is gated. On a 2-CPU machine
// islands-max is islands-2 measured a second time.
func engineVariants() [][2]string {
	return [][2]string{
		{"reference", "reference"},
		{"active", "active"},
		{"islands-2", "islands:2"},
		{"islands-max", fmt.Sprintf("islands:%d", gomaxprocs())},
	}
}

func singleTraced(tr *tracer, cfg chipletnet.Config) (tracedResult, error) {
	op, root := tr.newOp()
	st, err := mirrorRun(tr, root, cfg)
	tr.end(root)
	if err != nil {
		return tracedResult{}, err
	}
	out := tr.result(op, root, digestStats([]simStats{st}))
	out.values["router.step_ns_per_router_cycle"] = out.values["router.step_s"] * 1e9 / routerCycles(cfg)

	defer chipletnet.SetEngine(string(chipletnet.EngineActive))
	for _, v := range engineVariants() {
		label, eng := v[0], v[1]
		if err := chipletnet.SetEngine(eng); err != nil {
			return out, err
		}
		vop, vroot := tr.newOp()
		vst, err := mirrorRun(tr, vroot, cfg)
		tr.end(vroot)
		if err != nil {
			return out, fmt.Errorf("engine %s: %w", eng, err)
		}
		if vst.String() != st.String() {
			return out, fmt.Errorf("engine %s: statistics differ from the default engine", eng)
		}
		out.values["router.step_s."+label] = tr.layers(vop)["router.step"].SelfS
	}
	return out, nil
}

// ---- build-compiled ----

func (e *env) compiledCfgs() []chipletnet.Config {
	cfgs := make([]chipletnet.Config, len(e.sz.compiled))
	for i, topo := range e.sz.compiled {
		cfgs[i] = e.seeded(simCfg(topo, 0.1, e.sz.compiledWarm, e.sz.compiledMeas))
		cfgs[i].CompiledRouting = true
	}
	return cfgs
}

func compiledOp(e *env) opResult {
	var r opResult
	var sts []simStats
	var setup float64
	t0 := time.Now()
	for _, cfg := range e.compiledCfgs() {
		t1 := time.Now()
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			return opResult{err: fmt.Errorf("%v: %w", cfg.Topology, err)}
		}
		setup += since(t1)
		res, err := sys.Simulate()
		if err != nil || res.Deadlocked {
			return opResult{err: fmt.Errorf("%v: deadlocked=%t: %v", cfg.Topology, res.Deadlocked, err)}
		}
		sts = append(sts, statsOfResult(res))
		r.routerCycles += routerCycles(cfg)
	}
	r.wallS = since(t0)
	r.setupS = []float64{setup}
	r.digest = digestStats(sts)
	return r
}

func compiledTraced(e *env, tr *tracer) (tracedResult, error) {
	cfgs := e.compiledCfgs()
	op, root := tr.newOp()
	var sts []simStats
	for _, cfg := range cfgs {
		st, err := mirrorRun(tr, root, cfg)
		if err != nil {
			tr.end(root)
			return tracedResult{}, fmt.Errorf("%v: %w", cfg.Topology, err)
		}
		sts = append(sts, st)
	}
	tr.end(root)
	out := tr.result(op, root, digestStats(sts))

	// Beside the op: the same runs under interpreted routing (what the
	// compile buys in stepping time) and the certification alone (how
	// much of the compile it is).
	bop, broot := tr.newOp()
	for i, cfg := range cfgs {
		cfg.CompiledRouting = false
		st, err := mirrorRun(tr, broot, cfg)
		if err != nil {
			return out, err
		}
		if st.String() != sts[i].String() {
			return out, fmt.Errorf("%v: compiled and interpreted routing disagree", cfg.Topology)
		}
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			return out, err
		}
		id := tr.begin("verify.certify", broot, 0)
		_, rep := sys.Certify(verify.Options{})
		tr.end(id)
		if err := rep.Err(); err != nil {
			return out, err
		}
	}
	tr.end(broot)
	beside := tr.layers(bop)
	out.values["router.step_interpreted_s"] = beside["router.step"].SelfS
	out.values["verify.certify_s"] = beside["verify.certify"].SelfS
	out.layers["verify.certify"] = beside["verify.certify"]
	return out, nil
}

// ---- sweep-fig11 ----

// fig11Scale jitters the rate ladder from the seed: Fig11 takes no seed
// (its configs use DefaultConfig's), so the rates are the generated
// input. The jitter is too small to move a point across saturation.
func (e *env) fig11Scale() experiments.Scale {
	s := e.sz.fig11
	r := rng.New(e.seed)
	rates := make([]float64, len(s.Rates))
	for i, v := range s.Rates {
		rates[i] = v + (r.Float64()-0.5)*0.01
	}
	s.Rates = rates
	return s
}

// fig11Configs lists the configurations experiments.Fig11(s, "uniform")
// simulates, in its point order; the traced pass proves the list by
// digest equality with Fig11's own points.
func fig11Configs(s experiments.Scale) []chipletnet.Config {
	var cfgs []chipletnet.Config
	for _, topo := range []chipletnet.Topology{
		chipletnet.MeshTopology(8, 8), chipletnet.NDMeshTopology(4, 4, 4), chipletnet.HypercubeTopology(6),
	} {
		for _, rate := range s.Rates {
			cfgs = append(cfgs, simCfg(topo, rate, s.WarmupCycles, s.MeasureCycles))
		}
	}
	return cfgs
}

// pointLine is the canonical projection of one figure point.
func pointLine(x, avg, p99, accepted, offChip float64, deadlock bool) string {
	return fmt.Sprintf("x%s a%s p99%s t%s off%s dl%t", bits(x), bits(avg), bits(p99), bits(accepted), bits(offChip), deadlock)
}

func digestPoints(pts []experiments.Point) (string, error) {
	lines := make([]string, len(pts))
	for i, p := range pts {
		if p.Deadlock {
			return "", fmt.Errorf("%s at %g deadlocked", p.Series, p.X)
		}
		lines[i] = pointLine(p.X, p.AvgLatency, p.P99Latency, p.Accepted, p.OffChip, p.Deadlock)
	}
	return digest(lines...), nil
}

func fig11Op(e *env) opResult {
	s := e.fig11Scale()
	cfgs := fig11Configs(s)
	var r opResult
	t0 := time.Now()
	pts, err := experiments.Fig11(s, "uniform")
	r.wallS = since(t0)
	if err != nil {
		return opResult{err: err}
	}
	if len(pts) != len(cfgs) {
		return opResult{err: fmt.Errorf("%d points for %d configs", len(pts), len(cfgs))}
	}
	// RunMany hides each point's Build, so set-up is timed beside the
	// op: the same configs built one after another.
	t1 := time.Now()
	for _, cfg := range cfgs {
		if _, err := chipletnet.Build(cfg); err != nil {
			return opResult{err: err}
		}
		r.routerCycles += routerCycles(cfg)
	}
	r.setupS = []float64{since(t1)}
	r.digest, r.err = digestPoints(pts)
	return r
}

func fig11Traced(e *env, tr *tracer) (tracedResult, error) {
	s := e.fig11Scale()
	op, root := tr.newOp()
	id := tr.beginMem("experiments.fig11", root, 0)
	pts, err := experiments.Fig11(s, "uniform")
	tr.end(id)
	tr.end(root)
	if err != nil {
		return tracedResult{}, err
	}
	d, err := digestPoints(pts)
	if err != nil {
		return tracedResult{}, err
	}
	out := tr.result(op, root, d)

	// Beside the op: the 12 points again, one after another through the
	// mirror, for busy seconds per layer (not shares of the parallel
	// op's wall time).
	bop, broot := tr.newOp()
	var lines []string
	for _, cfg := range fig11Configs(s) {
		st, err := mirrorRun(tr, broot, cfg)
		if err != nil {
			return out, err
		}
		lines = append(lines, pointLine(cfg.InjectionRate, st.Avg, st.P99, st.Accepted, st.OffChip, st.Deadlocked))
	}
	tr.end(broot)
	if digest(lines...) != d {
		return out, fmt.Errorf("serial mirror of the 12 points disagrees with experiments.Fig11")
	}
	out.addLayers(tr.layers(bop))
	return out, nil
}

// ---- dse-cold, dse-warm ----

func (e *env) dseParams() dse.Params {
	p := e.sz.dseParams
	p.Seed = e.seed
	return p
}

func digestOutcome(o *dse.Outcome) string {
	// Names, not Record.Key: the key hashes the whole Config, so it would
	// change whenever an unrelated Config field is added.
	lines := []string{fmt.Sprintf("simulated%d hits%d", o.Simulated, o.CacheHits)}
	var front []string
	for _, r := range o.Frontier {
		front = append(front, fmt.Sprintf("%s sat%s lat%s", r.Name, bits(r.SatRate), bits(r.ZeroLoadLatency)))
	}
	sort.Strings(front)
	return digest(append(lines, front...)...)
}

// dseRouterCycles is the simulated work an exploration's records stand
// for, whether simulated now or served from the store.
func dseRouterCycles(o *dse.Outcome) float64 {
	var sum float64
	for _, r := range o.Records {
		cfg := r.Cfg
		cfg.WarmupCycles, cfg.MeasureCycles = o.Plan.Params.WarmupCycles, o.Plan.Params.MeasureCycles
		sum += routerCycles(cfg) * float64(1+len(r.Ladder))
	}
	return sum
}

// dseSetup times what an exploration needs before it can simulate or
// serve anything: opening the store and planning against it.
func dseSetup(e *env, dir string) ([]float64, error) {
	t0 := time.Now()
	st, err := dse.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	_, err = dse.NewPlan(e.sz.dseSpace, e.dseParams(), st)
	d := since(t0)
	st.Close()
	return []float64{d}, err
}

// storeDir returns path in the form OpenStore takes for a sharded store.
func storeDir(path string) string { return path + string(filepath.Separator) }

func dseExplore(e *env, dir string, wantWarm bool) opResult {
	var r opResult
	t0 := time.Now()
	st, err := dse.OpenStore(dir)
	if err != nil {
		return opResult{err: err}
	}
	o, err := dse.Explore(e.sz.dseSpace, e.dseParams(), st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	r.wallS = since(t0)
	if err != nil {
		return opResult{err: err}
	}
	switch {
	case wantWarm && o.Simulated > 0:
		r.err = fmt.Errorf("warm exploration simulated %d candidates", o.Simulated)
	case !wantWarm && o.CacheHits > 0:
		r.err = fmt.Errorf("cold exploration hit the cache %d times", o.CacheHits)
	}
	for _, rec := range o.Records {
		if rec.Deadlocked {
			r.err = fmt.Errorf("%s deadlocked", rec.Name)
		}
	}
	r.routerCycles = dseRouterCycles(o)
	r.digest = digestOutcome(o)
	return r
}

func dseColdOp(e *env) opResult {
	dir, err := e.mkdir("dse-cold-")
	if err != nil {
		return opResult{err: err}
	}
	defer os.RemoveAll(dir)
	r := dseExplore(e, storeDir(filepath.Join(dir, "op")), false)
	if r.err != nil {
		return r
	}
	r.setupS, r.err = dseSetup(e, storeDir(filepath.Join(dir, "setup")))
	return r
}

func dseWarmPrepare(e *env) error {
	dir, err := e.mkdir("dse-warm-")
	if err != nil {
		return err
	}
	e.warmStore = storeDir(dir)
	return dseExplore(e, e.warmStore, false).err
}

func dseWarmOp(e *env) opResult {
	r := dseExplore(e, e.warmStore, true)
	if r.err != nil {
		return r
	}
	r.setupS, r.err = dseSetup(e, e.warmStore)
	return r
}

// routingStructure identifies what the certifier looks at, so the
// beside-the-op certification pass verifies each structure once, as
// NewPlan does.
func routingStructure(cfg chipletnet.Config) string {
	return fmt.Sprintf("%s%v|%dx%d|vc%d|%s|%t|%t", cfg.Topology.Kind, cfg.Topology.Dims,
		cfg.ChipletW, cfg.ChipletH, cfg.VCs, cfg.Routing, cfg.DisableNDMeshVCSeparation, cfg.AllowUnsafeRouting)
}

func dseTraced(e *env, tr *tracer, warm bool) (tracedResult, error) {
	dir := e.warmStore
	if !warm {
		tmp, err := e.mkdir("dse-traced-")
		if err != nil {
			return tracedResult{}, err
		}
		defer os.RemoveAll(tmp)
		dir = storeDir(filepath.Join(tmp, "op"))
	}
	space, params := e.sz.dseSpace, e.dseParams()

	// The op: dse.Explore assembled from its public steps.
	op, root := tr.newOp()
	fail := func(err error) (tracedResult, error) { tr.end(root); return tracedResult{}, err }
	id := tr.beginMem("dse.cache_open", root, 0)
	st, err := dse.OpenStore(dir)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	id = tr.beginMem("dse.plan", root, 0)
	plan, err := dse.NewPlan(space, params, st)
	tr.end(id)
	if err != nil {
		st.Close()
		return fail(err)
	}
	recs := append([]dse.Record(nil), plan.Hits...)
	for _, ev := range plan.Pending {
		id = tr.beginMem("dse.eval", root, 0)
		rec, err := ev.Run()
		tr.end(id)
		if err == nil {
			id = tr.beginMem("dse.cache_put", root, 0)
			err = st.Put(rec)
			tr.end(id)
		}
		if err != nil {
			st.Close()
			return fail(err)
		}
		recs = append(recs, rec)
	}
	id = tr.beginMem("dse.collect", root, 0)
	o, err := dse.Collect(plan, recs)
	tr.end(id)
	id = tr.begin("dse.cache_close", root, 0)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	tr.end(root)
	if err != nil {
		return tracedResult{}, err
	}
	if warm && o.Simulated > 0 {
		return tracedResult{}, fmt.Errorf("warm exploration simulated %d candidates", o.Simulated)
	}
	out := tr.result(op, root, digestOutcome(o))
	out.values["dse.cache_hits"] = float64(len(plan.Hits))
	out.values["dse.cache_lookups"] = float64(len(plan.Candidates))

	// Beside the op: the steps NewPlan hides, called on their own, and
	// for the cold run the simulations Eval.Run hides behind RunMany,
	// one after another through the mirror.
	bop, broot := tr.newOp()
	id = tr.beginMem("dse.enumerate", broot, 0)
	cands, _, err := space.Enumerate(params)
	tr.end(id)
	if err != nil {
		return out, err
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if k := routingStructure(c.Cfg); !seen[k] {
			seen[k] = true
			id = tr.beginMem("verify.certify", broot, 0)
			_, err := chipletnet.VerifyConfig(c.Cfg, verify.Options{MaxDests: 16, MaxSources: 8})
			tr.end(id)
			if err != nil {
				return out, err
			}
		}
	}
	st, err = dse.OpenStore(dir)
	if err != nil {
		return out, err
	}
	defer st.Close()
	id = tr.begin("dse.cache_lookup", broot, 0)
	hits := 0
	for _, c := range plan.Candidates {
		if _, ok := st.Lookup(dse.Key(c.Cfg, plan.Params)); ok {
			hits++
		}
	}
	tr.end(id)
	if hits != len(plan.Candidates) {
		return out, fmt.Errorf("%d of %d candidates in the store after the op", hits, len(plan.Candidates))
	}
	if !warm {
		for _, ev := range plan.Pending {
			rec, _ := st.Lookup(ev.Key)
			if err := mirrorEval(tr, broot, ev, rec); err != nil {
				return out, err
			}
		}
	}
	tr.end(broot)
	beside := tr.layers(bop)
	out.addLayers(beside)
	out.values["dse.cache_lookup_us"] = beside["dse.cache_lookup"].SelfS * 1e6 / float64(len(plan.Candidates))
	return out, nil
}

// mirrorEval re-simulates one evaluation's rate ladder through the
// mirror and checks it against the record Eval.Run produced.
func mirrorEval(tr *tracer, parent int, ev dse.Eval, rec dse.Record) error {
	if len(rec.Ladder) != len(ev.Params.Rates) {
		return fmt.Errorf("%s: %d ladder points for %d rates", ev.Candidate.Name, len(rec.Ladder), len(ev.Params.Rates))
	}
	for i, rate := range append([]float64{ev.Params.ZeroLoadRate}, ev.Params.Rates...) {
		cfg := ev.Candidate.Cfg
		cfg.InjectionRate = rate
		st, err := mirrorRun(tr, parent, cfg)
		if err != nil {
			return fmt.Errorf("%s at %g: %w", ev.Candidate.Name, rate, err)
		}
		if i == 0 {
			continue // the probe's figures fold into several record fields
		}
		avg := st.Avg
		if math.IsNaN(avg) {
			avg = 0
		}
		if lp := rec.Ladder[i-1]; lp.AvgLatency != avg || lp.Accepted != st.Accepted {
			return fmt.Errorf("%s at %g: mirror disagrees with the evaluation record", ev.Candidate.Name, rate)
		}
	}
	return nil
}
