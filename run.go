package chipletnet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"chipletnet/internal/chiplet"
	"chipletnet/internal/fault"
	"chipletnet/internal/router"
	"chipletnet/internal/routing"
	"chipletnet/internal/stats"
	"chipletnet/internal/topology"
)

// System is a built but not-yet-run network: the topology, fabric and
// routing, ready for simulation or inspection (diameters, link counts).
type System struct {
	Cfg  Config
	Topo *topology.System

	// auto marks a system the default engine partitioned into islands:
	// run sets its IslandGrain every cycle (see islandGrain).
	auto bool
}

// Engine names a cycle-engine implementation for Fabric.Step. All
// engines are observationally identical — bit-identical results, fault
// logs and checkpoints (enforced three-ways by engine_equiv_test.go) —
// and differ only in speed.
type Engine string

const (
	// EngineActive is the default active-set engine. Build partitions a
	// fabric of at least islandGrain routers into one island per CPU (at
	// most one per chiplet), and a cycle steps its islands on all CPUs
	// when it has at least islandGrain active routers and its run is the
	// only one stepping in the process; every other cycle, and every
	// cycle of a smaller fabric, is a serial active-set cycle.
	EngineActive Engine = "active"
	// EngineReference is the naive reference stepper: the oracle for
	// the differential-equivalence suite and for bisecting engine bugs.
	EngineReference Engine = "reference"
	// EngineIslands is the parallel-islands engine: the fabric is
	// partitioned into contiguous-chiplet islands stepped on worker
	// goroutines with a deterministic boundary exchange per cycle.
	// IslandCount sets the partition size, and every cycle runs in
	// parallel whatever its load or the other runs in the process.
	EngineIslands Engine = "islands"
)

// islandGrain is G, the default engine's parallel grain: a cycle of a
// lone run steps its islands on all CPUs only when at least G routers
// are active at its start. Measured on a 2-CPU container (go1.24.0):
// see DESIGN.md, "The default engine on every CPU".
const islandGrain = 320

// grainAt returns the default engine's grain for cycle cy of a lone
// run. A variable so the equivalence tests can force G = 0, G = ∞ and a
// G that flips mid-run.
var grainAt = func(cy int64) int { return islandGrain }

// islandsFrom is the router count from which the default engine
// partitions a fabric: a smaller one can never have islandGrain routers
// active, so it keeps the plain serial engine and pays nothing for
// islands. A variable so the equivalence tests can partition every
// fabric (0, with a forced grain) or none (math.MaxInt).
var islandsFrom = islandGrain

// stepping counts the runs inside System.run in this process. A default
// engine cycle runs in parallel only while it is 1: a RunMany batch
// already puts one run on each CPU, so its runs step inline until the
// last one is left alone.
var stepping atomic.Int32

// UseEngine selects the cycle engine for every subsequently built
// System. This is deliberately a package variable rather than a Config
// field: Config is embedded verbatim in checkpoint files, and the
// engine choice must not leak into them (snapshots are
// engine-independent — a checkpoint taken under one engine resumes
// under any other).
var UseEngine = EngineActive

// IslandCount is the island count K for EngineIslands; <= 0 means one
// island per available CPU (GOMAXPROCS). K is clamped to the chiplet
// count at Build. RunMany divides its campaign worker budget by the
// effective K so intra-run and campaign-level parallelism share one
// CPU budget instead of oversubscribing.
var IslandCount int

// ParseEngine parses an -engine flag value: "active", "reference",
// "islands", or "islands:K" for an explicit island count.
func ParseEngine(s string) (Engine, int, error) {
	switch {
	case s == string(EngineActive):
		return EngineActive, 0, nil
	case s == string(EngineReference):
		return EngineReference, 0, nil
	case s == string(EngineIslands):
		return EngineIslands, 0, nil
	case len(s) > len("islands:") && s[:len("islands:")] == "islands:":
		var k int
		if _, err := fmt.Sscanf(s[len("islands:"):], "%d", &k); err != nil || k < 1 {
			return "", 0, fmt.Errorf("chipletnet: bad island count in -engine %q: want islands:K with K >= 1", s)
		}
		return EngineIslands, k, nil
	default:
		return "", 0, fmt.Errorf("chipletnet: bad engine %q: want active, reference, islands or islands:K", s)
	}
}

// SetEngine parses an -engine flag value and installs it as the
// process-wide engine selection (UseEngine, IslandCount).
func SetEngine(s string) error {
	e, k, err := ParseEngine(s)
	if err != nil {
		return err
	}
	UseEngine = e
	IslandCount = k
	return nil
}

// effectiveIslands returns the island count EngineIslands requests at
// Build: IslandCount, or GOMAXPROCS when it is not set.
func effectiveIslands() int {
	if k := IslandCount; k > 0 {
		return k
	}
	return runtime.GOMAXPROCS(0)
}

// Build constructs the system described by cfg: routers, links, labels,
// groups, chiplet interconnection and routing algorithm.
func Build(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, err := chiplet.New(cfg.ChipletW, cfg.ChipletH)
	if err != nil {
		return nil, err
	}
	lp := topology.LinkParams{
		VCs:               cfg.VCs,
		InternalBufFlits:  cfg.InternalBufFlits,
		InterfaceBufFlits: cfg.InterfaceBufFlits,
		OnChipBW:          cfg.OnChipBW,
		OffChipBW:         cfg.OffChipBW,
		OnChipLatency:     cfg.OnChipLatency,
		OffChipLatency:    cfg.OffChipLatency,
		EjectBW:           cfg.EjectBW,
	}
	var sys *topology.System
	switch cfg.Topology.Kind {
	case "mesh":
		sys, err = topology.BuildFlatMesh(geo, cfg.Topology.Dims[0], cfg.Topology.Dims[1], lp)
	case "ndmesh":
		sys, err = topology.BuildNDMesh(geo, cfg.Topology.Dims, lp)
	case "ndtorus":
		sys, err = topology.BuildNDTorus(geo, cfg.Topology.Dims, lp)
	case "hypercube":
		sys, err = topology.BuildHypercube(geo, cfg.Topology.Dims[0], lp)
	case "dragonfly":
		sys, err = topology.BuildDragonfly(geo, cfg.Topology.Dims[0], lp)
	case "tree":
		sys, err = topology.BuildTree(geo, cfg.Topology.Dims[0], cfg.Topology.Dims[1], lp)
	case "custom":
		var n int
		var edges [][2]int
		if n, edges, err = cfg.Topology.customEdges(); err == nil {
			sys, err = topology.BuildCustom(geo, n, edges, lp)
		}
	default:
		return nil, fmt.Errorf("chipletnet: unknown topology kind %q", cfg.Topology.Kind)
	}
	if err != nil {
		return nil, err
	}
	if cfg.CrossLinkFaultFraction > 0 {
		if cfg.Topology.Kind == "mesh" {
			return nil, fmt.Errorf("chipletnet: the flat mesh baseline has no grouped link redundancy to absorb faults")
		}
		if _, err := sys.FailRandomCrossLinks(cfg.CrossLinkFaultFraction, cfg.Seed); err != nil {
			return nil, err
		}
	}
	rt, err := routing.New(sys, cfg.routingOptions())
	if err != nil {
		return nil, err
	}
	sys.Fabric.Routing = rt
	if cfg.CompiledRouting {
		comp, _, cerr := routing.Compile(sys)
		if cerr != nil {
			return nil, fmt.Errorf("chipletnet: %w", cerr)
		}
		sys.Fabric.Routing = comp
	}
	sys.Fabric.SafeUnsafe = cfg.Routing == RoutingSafeUnsafe
	sys.Fabric.OffChipVAExtra = cfg.OffChipVAExtra
	sys.Fabric.DeadlockThreshold = cfg.DeadlockThreshold
	sys.Fabric.UseReference = UseEngine == EngineReference
	s := &System{Cfg: cfg, Topo: sys}
	k := runtime.GOMAXPROCS(0)
	if UseEngine == EngineIslands {
		k = effectiveIslands()
	}
	if chiplets := sys.Nodes[len(sys.Nodes)-1].Chiplet + 1; k > chiplets {
		k = chiplets
	}
	s.auto = UseEngine == EngineActive && k > 1 && len(sys.Fabric.Routers) >= islandsFrom
	if UseEngine == EngineIslands || s.auto {
		chipletOf := make([]int, len(sys.Nodes))
		for i, n := range sys.Nodes {
			chipletOf[i] = n.Chiplet
		}
		sys.Fabric.EnableIslands(k, chipletOf)
	}
	return s, nil
}

// Result is the outcome of one simulation run.
type Result struct {
	Cfg Config
	stats.Summary
	// OfferedPackets counts packets created during measurement.
	OfferedPackets int
	// OfferedRate echoes the configured injection rate (flits/node/cycle).
	OfferedRate float64
	// EnergyPJPerBit is the §VII-A transport energy estimate from the
	// measured average hop counts.
	EnergyPJPerBit float64
	// Deadlocked reports that the progress watchdog fired; all other
	// figures are then meaningless. DeadlockReport is the watchdog's
	// diagnostic snapshot (blocked routers and VCs, oldest waiting
	// packet), nil when the run was live.
	Deadlocked     bool
	DeadlockReport *router.DeadlockReport
	// Endpoints is the number of traffic endpoints (core nodes).
	Endpoints int
	// AvgOffChipUtilization / PeakOffChipUtilization summarize how loaded
	// the chiplet-to-chiplet links were over the whole run (fraction of
	// link capacity; the bottleneck indicator of §VII-B).
	AvgOffChipUtilization  float64
	PeakOffChipUtilization float64
	// AvgOnChipUtilization is the same for on-chip links.
	AvgOnChipUtilization float64

	// Drained reports that the post-run drain phase (Config.DrainCycles)
	// emptied the network; InFlightAtEnd is the number of packets still in
	// the network when the simulation stopped.
	Drained       bool
	InFlightAtEnd int
	// TimedOut reports that the run was aborted by RunControl.Deadline;
	// DeadlockReport then holds the diagnostic snapshot of where traffic
	// was at the abort.
	TimedOut bool `json:",omitempty"`
	// FaultEvents is the fault event log and FaultStats the injection and
	// recovery summary; both nil unless fault injection was configured.
	FaultEvents []fault.Record `json:",omitempty"`
	FaultStats  *fault.Stats   `json:",omitempty"`
}

// Saturated reports whether the run shows saturation: accepted throughput
// falling more than 10% below the offered load (the slack absorbs
// end-of-window packets still in flight), or a deadlock report. The
// comparison uses the traffic the generator actually produced — at low
// rates and short windows the Bernoulli process can fall visibly short of
// the configured rate, which is not congestion.
func (r Result) Saturated() bool {
	if r.Deadlocked {
		return true
	}
	offered := r.OfferedRate
	if r.Cfg.MeasureCycles > 0 && r.Endpoints > 0 {
		actual := float64(r.OfferedPackets*r.Cfg.PacketFlits) /
			float64(r.Cfg.MeasureCycles) / float64(r.Endpoints)
		if actual < offered {
			offered = actual
		}
	}
	return r.AcceptedFlitsPerNodeCycle < 0.90*offered
}

// Run builds and simulates cfg and returns the measured statistics.
func Run(cfg Config) (Result, error) {
	sys, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return sys.Simulate()
}

// Simulate runs the configured workload on a built system. A System must
// not be simulated twice; rebuild for fresh runs.
func (s *System) Simulate() (Result, error) {
	return s.SimulateControlled(RunControl{})
}

// ErrCanceled: the run was aborted because its context was canceled.
// Configurations not yet started when the cancellation arrived are
// skipped; a running one stops at the next cycle boundary (its partial
// Result carries the usual diagnostic snapshot). Test with errors.Is.
var ErrCanceled = errors.New("chipletnet: run canceled")

// RunMany builds and simulates every configuration, in parallel across
// CPUs, and returns per-configuration results and errors in input order:
// results[i] and errs[i] belong to cfgs[i] regardless of scheduling, and
// results[i] is valid exactly when errs[i] is nil (a panic in one run is
// recovered into that run's error). Each configuration gets its own
// Build, so no mutable state is shared between workers.
//
// Canceling ctx aborts the batch cleanly: runs not yet started are
// skipped, running ones stop at their next cycle boundary, and every
// affected configuration reports an error wrapping ErrCanceled — this is
// how the campaign daemon's per-job deadlines and graceful drain reach
// into a batch without losing the completed results. A context that is
// never canceled leaves every result bit-identical to Run's.
//
// This is the parallelism entry point for experiment campaigns: internal
// packages must not spawn goroutines (see cmd/chipletlint), so they hand
// their job lists here. The pool is island-aware: under EngineIslands
// each run brings its own K worker goroutines, so the campaign budget
// shrinks to GOMAXPROCS / K concurrent runs. Under the default engine
// the batch keeps one run per CPU, and a run steps in parallel only
// once it is the last one left (see stepping).
func RunMany(ctx context.Context, cfgs []Config) ([]Result, []error) {
	results := make([]Result, len(cfgs))
	workers := runtime.GOMAXPROCS(0)
	if UseEngine == EngineIslands {
		if workers /= effectiveIslands(); workers < 1 {
			workers = 1
		}
	}
	errs := forEach(len(cfgs), workers, func(i int) (err error) {
		results[i], err = runOne(ctx, cfgs[i])
		return err
	})
	return results, errs
}

// forEach calls fn(i) for every i in [0, n) on at most workers concurrent
// goroutines and returns the errors by index. A panic in fn(i) is
// recovered into errs[i]; the other items still run. This is the module
// root's one worker pool: internal packages spawn no goroutines (see
// cmd/chipletlint) and hand their batches to RunMany or VerifyEach.
func forEach(n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("panic: %v", p)
				}
			}()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// runOne executes one configuration under ctx. Cancellation is observed
// at cycle boundaries only (through RunControl.Deadline), so it never
// perturbs simulated state: a run that completes before the cancel is
// indistinguishable from an uncontrolled one.
func runOne(ctx context.Context, cfg Config) (Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return Run(cfg)
	}
	if ctx.Err() != nil {
		return Result{}, fmt.Errorf("%w: not started: %v", ErrCanceled, ctx.Err())
	}
	sys, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := sys.SimulateControlled(RunControl{Deadline: ctx.Done()})
	if errors.Is(err, ErrTimeout) && ctx.Err() != nil {
		// The deadline channel was the context's: report the abort as a
		// cancellation, keeping the diagnostic partial Result.
		err = fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
	return res, err
}
