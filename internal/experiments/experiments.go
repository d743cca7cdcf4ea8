// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI–§VII): the Fig. 11 traffic-pattern study, the Fig. 12
// scale study, the Fig. 13 energy estimation, the Fig. 14 link-bandwidth
// study, the Fig. 15 link-latency/buffer study, the Fig. 16 interleaving
// study, and the Table I diameter check. cmd/chipletfig drives it from the
// command line and bench_test.go wraps each experiment in a testing.B.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"chipletnet"
	"chipletnet/internal/verify"
)

// Scale controls experiment cost: Quick for benchmarks and CI, Full for
// the paper-fidelity numbers recorded in EXPERIMENTS.md.
type Scale struct {
	Name          string
	WarmupCycles  int64
	MeasureCycles int64
	// Rates is the injection sweep (flits/node/cycle).
	Rates []float64
	// MaxChiplets caps system size (0 = no cap); Quick skips the
	// 256-chiplet points.
	MaxChiplets int
	// CollectiveSizes are the payload sizes (flits) of the collective
	// study; nil uses the default {64, 512, 2048}.
	CollectiveSizes []int
}

// Quick is sized for single-digit-minute regeneration of every figure.
var Quick = Scale{
	Name:            "quick",
	WarmupCycles:    300,
	MeasureCycles:   1500,
	Rates:           []float64{0.1, 0.3, 0.6, 1.0},
	MaxChiplets:     64,
	CollectiveSizes: []int{64, 512},
}

// Full matches the paper's Table II simulation length (1000 warm-up +
// 5000 measured cycles) with a denser rate sweep.
var Full = Scale{
	Name:          "full",
	WarmupCycles:  1000,
	MeasureCycles: 5000,
	Rates:         []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.2},
}

// Point is one measured point of one series of one figure.
type Point struct {
	Experiment string  // e.g. "fig11-uniform"
	Series     string  // e.g. "hypercube"
	X          float64 // the swept quantity
	XName      string  // what X is ("injection rate", "chiplets", ...)

	AvgLatency  float64
	P99Latency  float64
	P999Latency float64
	Accepted    float64 // flits/node/cycle
	EnergyPJ    float64 // pJ/bit
	OffChip     float64 // mean off-chip hops
	Routers     float64 // mean routers traversed
	Saturated   bool
	Deadlock    bool
}

// baseConfig returns the Table II configuration at the given scale.
func baseConfig(s Scale) chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.WarmupCycles = s.WarmupCycles
	cfg.MeasureCycles = s.MeasureCycles
	return cfg
}

// preflightCache memoizes pre-flight verdicts per routing structure
// (chipletnet.RoutingStructureKey), so a rate sweep over one design
// point pays for one analysis.
var preflightCache sync.Map // key string -> error (possibly nil)

// preflightAll statically verifies each design point's routing before any
// cycle is simulated: a sampled channel-dependency-graph analysis
// (internal/verify) must find no deadlock cycle, unreachable pair or VC
// inconsistency. It returns one error per configuration, in input order.
// The batch's distinct uncached design points are analyzed together, in
// parallel, through chipletnet.VerifyEach.
func preflightAll(cfgs []chipletnet.Config) []error {
	keys := make([]string, len(cfgs))
	var todo []chipletnet.Config
	var todoKeys []string
	queued := map[string]bool{}
	for i, cfg := range cfgs {
		keys[i] = chipletnet.RoutingStructureKey(cfg)
		if _, ok := preflightCache.Load(keys[i]); !ok && !queued[keys[i]] {
			queued[keys[i]] = true
			todo = append(todo, cfg)
			todoKeys = append(todoKeys, keys[i])
		}
	}
	if len(todo) > 0 {
		reps, errs := chipletnet.VerifyEach(todo, verify.Options{MaxDests: 16, MaxSources: 8})
		for i, err := range errs {
			if err == nil {
				err = reps[i].Err()
			}
			if err != nil {
				err = fmt.Errorf("pre-flight verification failed: %w", err)
			}
			preflightCache.Store(todoKeys[i], err)
		}
	}
	out := make([]error, len(cfgs))
	for i, key := range keys {
		if v, _ := preflightCache.Load(key); v != nil {
			out[i] = v.(error)
		}
	}
	return out
}

// job is one pending simulation of an experiment: the configuration plus
// the labels of the Point it will become.
type job struct {
	cfg    chipletnet.Config
	exp    string
	series string
	x      float64
	xname  string
}

// runJobs verifies and simulates a batch of jobs and converts the
// results to points in job order. All jobs of a batch run concurrently
// through chipletnet.RunMany — the parallelism lives at the module root
// (internal packages spawn no goroutines; see cmd/chipletlint), and the
// output ordering is positional, so it is schedule-independent. Figures
// hand their complete series × rate cross product here, which keeps
// GOMAXPROCS saturated across series boundaries instead of only within
// one rate sweep.
func runJobs(jobs []job) ([]Point, error) {
	cfgs := make([]chipletnet.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.cfg
	}
	for i, err := range preflightAll(cfgs) {
		if err != nil {
			j := jobs[i]
			return nil, fmt.Errorf("%s/%s at %s=%g: %w", j.exp, j.series, j.xname, j.x, err)
		}
	}
	results, errs := chipletnet.RunMany(context.TODO(), cfgs)
	pts := make([]Point, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s/%s at %s=%g: %w", j.exp, j.series, j.xname, j.x, errs[i])
		}
		pts[i] = pointFrom(results[i], j)
	}
	return pts, nil
}

func pointFrom(res chipletnet.Result, j job) Point {
	return Point{
		Experiment: j.exp, Series: j.series, X: j.x, XName: j.xname,
		AvgLatency:  res.AvgLatency,
		P99Latency:  res.P99Latency,
		P999Latency: res.P999Latency,
		Accepted:    res.AcceptedFlitsPerNodeCycle,
		EnergyPJ:    res.EnergyPJPerBit,
		OffChip:     res.AvgOffChipHops,
		Routers:     res.AvgRouters,
		Saturated:   res.Saturated(),
		Deadlock:    res.Deadlocked,
	}
}

// sweepJobs enqueues cfg over the scale's rates for one series.
func sweepJobs(s Scale, cfg chipletnet.Config, exp, series string) []job {
	jobs := make([]job, 0, len(s.Rates))
	for _, r := range s.Rates {
		c := cfg
		c.InjectionRate = r
		jobs = append(jobs, job{cfg: c, exp: exp, series: series, x: r, xname: "injection-rate"})
	}
	return jobs
}

// sweep runs cfg over the scale's rates for one series (the granularity
// campaign tasks use).
func sweep(s Scale, cfg chipletnet.Config, exp, series string) ([]Point, error) {
	return runJobs(sweepJobs(s, cfg, exp, series))
}

// fig11Topologies returns the three §VI-B systems on 64 4×4 chiplets:
// the 8×8 flat mesh baseline, the 4×4×4 3D-mesh and the 2^6 hypercube.
func fig11Topologies() []chipletnet.Topology {
	return []chipletnet.Topology{
		chipletnet.MeshTopology(8, 8),
		chipletnet.NDMeshTopology(4, 4, 4),
		chipletnet.HypercubeTopology(6),
	}
}

func seriesName(t chipletnet.Topology) string {
	switch t.Kind {
	case "mesh":
		return "2D-mesh"
	case "ndmesh":
		return fmt.Sprintf("%dD-mesh", len(t.Dims))
	case "hypercube":
		return "hypercube"
	default:
		return t.Kind
	}
}

// Fig11 reproduces Fig. 11: latency vs. injection rate for one traffic
// pattern over the three topologies (64 4×4 chiplets).
func Fig11(s Scale, pattern string) ([]Point, error) {
	var jobs []job
	for _, topo := range fig11Topologies() {
		cfg := baseConfig(s)
		cfg.Topology = topo
		cfg.Pattern = pattern
		jobs = append(jobs, sweepJobs(s, cfg, "fig11-"+pattern, seriesName(topo))...)
	}
	return runJobs(jobs)
}

// Fig11Patterns lists the six Fig. 11 traffic patterns.
func Fig11Patterns() []string {
	return []string{"uniform", "hotspot", "bit-complement", "bit-reverse", "bit-shuffle", "bit-transpose"}
}

// fig12Variant is one subfigure of Fig. 12.
type fig12Variant struct {
	Label    string
	NoCW     int
	Chiplets int
	Topos    []chipletnet.Topology
}

func fig12Variants(s Scale) []fig12Variant {
	vs := []fig12Variant{
		{
			Label: "a-16chiplets-4x4NoC", NoCW: 4, Chiplets: 16,
			Topos: []chipletnet.Topology{
				chipletnet.MeshTopology(4, 4),
				chipletnet.NDMeshTopology(4, 2, 2),
				chipletnet.HypercubeTopology(4),
			},
		},
		{
			Label: "b-16chiplets-8x8NoC", NoCW: 8, Chiplets: 16,
			Topos: []chipletnet.Topology{
				chipletnet.MeshTopology(4, 4),
				chipletnet.NDMeshTopology(4, 2, 2),
				chipletnet.HypercubeTopology(4),
			},
		},
		{
			Label: "c-64chiplets-4x4NoC", NoCW: 4, Chiplets: 64,
			Topos: []chipletnet.Topology{
				chipletnet.MeshTopology(8, 8),
				chipletnet.NDMeshTopology(4, 4, 4),
				chipletnet.HypercubeTopology(6),
			},
		},
		{
			Label: "d-256chiplets-4x4NoC", NoCW: 4, Chiplets: 256,
			Topos: []chipletnet.Topology{
				chipletnet.MeshTopology(16, 16),
				chipletnet.NDMeshTopology(4, 4, 4, 4),
				chipletnet.HypercubeTopology(8),
			},
		},
	}
	var out []fig12Variant
	for _, v := range vs {
		if s.MaxChiplets > 0 && v.Chiplets > s.MaxChiplets {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Fig12 reproduces Fig. 12: latency vs. injection rate across system
// scales (16/64/256 chiplets; 4×4 and 8×8 NoCs) under uniform traffic.
func Fig12(s Scale) ([]Point, error) {
	var jobs []job
	for _, v := range fig12Variants(s) {
		for _, topo := range v.Topos {
			cfg := baseConfig(s)
			cfg.ChipletW, cfg.ChipletH = v.NoCW, v.NoCW
			cfg.Topology = topo
			jobs = append(jobs, sweepJobs(s, cfg, "fig12"+v.Label, seriesName(topo))...)
		}
	}
	return runJobs(jobs)
}

// Fig13 reproduces Fig. 13: average transport energy (pJ/bit) of 2D-mesh
// vs hypercube across chiplet counts and NoC scales, measured from
// simulated hop counts at light load.
func Fig13(s Scale) ([]Point, error) {
	type sys struct {
		chiplets int
		nocW     int
		topo     chipletnet.Topology
		series   string
	}
	var systems []sys
	for _, n := range []int{16, 64, 256} {
		if s.MaxChiplets > 0 && n > s.MaxChiplets {
			continue
		}
		for _, w := range []int{4, 8} {
			var meshDims [2]int
			var cubeN int
			switch n {
			case 16:
				meshDims, cubeN = [2]int{4, 4}, 4
			case 64:
				meshDims, cubeN = [2]int{8, 8}, 6
			case 256:
				meshDims, cubeN = [2]int{16, 16}, 8
			}
			systems = append(systems,
				sys{n, w, chipletnet.MeshTopology(meshDims[0], meshDims[1]), fmt.Sprintf("2D-mesh-%dx%dNoC", w, w)},
				sys{n, w, chipletnet.HypercubeTopology(cubeN), fmt.Sprintf("hypercube-%dx%dNoC", w, w)})
		}
	}
	var jobs []job
	for _, y := range systems {
		cfg := baseConfig(s)
		cfg.ChipletW, cfg.ChipletH = y.nocW, y.nocW
		cfg.Topology = y.topo
		cfg.InjectionRate = 0.05 // energy is a hop-count property; light load
		jobs = append(jobs, job{cfg: cfg, exp: "fig13-energy", series: y.series, x: float64(y.chiplets), xname: "chiplets"})
	}
	return runJobs(jobs)
}

// Fig14 reproduces Fig. 14: latency vs. injection rate for chiplet-to-
// chiplet bandwidths of 1/4x, 1/2x, 1x and 2x the on-chip bandwidth
// (32/64/128/256 bits/cycle) on 64 4×4 chiplets.
func Fig14(s Scale, offChipBWFlits int) ([]Point, error) {
	var jobs []job
	for _, topo := range fig11Topologies() {
		cfg := baseConfig(s)
		cfg.Topology = topo
		cfg.OffChipBW = offChipBWFlits
		exp := fmt.Sprintf("fig14-bw%dbits", offChipBWFlits*cfg.FlitBits)
		jobs = append(jobs, sweepJobs(s, cfg, exp, seriesName(topo))...)
	}
	return runJobs(jobs)
}

// Fig14Bandwidths lists the swept off-chip bandwidths in flits/cycle.
func Fig14Bandwidths() []int { return []int{1, 2, 4, 8} }

// Fig15 reproduces Fig. 15: hypercube with chiplet-to-chiplet link delays
// of 5/10/15 cycles and interface buffers of 1024/2048/4096 bits, against
// the 2D-mesh baseline at 5 cycles / 2048 bits.
func Fig15(s Scale) ([]Point, error) {
	// Baseline series.
	base := baseConfig(s)
	base.Topology = chipletnet.MeshTopology(8, 8)
	jobs := sweepJobs(s, base, "fig15", "2D-mesh-delay5-buf2048")
	for _, delay := range []int{5, 10, 15} {
		for _, bufBits := range []int{1024, 2048, 4096} {
			if delay != 5 && bufBits != 2048 {
				continue // the paper sweeps one knob at a time
			}
			cfg := baseConfig(s)
			cfg.Topology = chipletnet.HypercubeTopology(6)
			cfg.OffChipLatency = delay
			cfg.InterfaceBufFlits = bufBits / cfg.FlitBits
			series := fmt.Sprintf("hypercube-delay%d-buf%d", delay, bufBits)
			jobs = append(jobs, sweepJobs(s, cfg, "fig15", series)...)
		}
	}
	return runJobs(jobs)
}

// Fig16 reproduces Fig. 16: interleaving granularity (none, message-level,
// packet-level) on the 64-chiplet hypercube at 64 and 128 bits/cycle
// chiplet-to-chiplet bandwidth.
func Fig16(s Scale) ([]Point, error) {
	var jobs []job
	for _, bw := range []int{2, 4} { // 64 and 128 bits/cycle
		for _, il := range []string{"none", "message", "packet"} {
			cfg := baseConfig(s)
			cfg.Topology = chipletnet.HypercubeTopology(6)
			cfg.OffChipBW = bw
			cfg.Interleave = il
			exp := fmt.Sprintf("fig16-bw%dbits", bw*cfg.FlitBits)
			jobs = append(jobs, sweepJobs(s, cfg, exp, "interleave-"+il)...)
		}
	}
	return runJobs(jobs)
}

// AblationRouting compares Duato-escape routing against safe/unsafe flow
// control on the 64-chiplet hypercube and the irregular tree — the two
// deadlock-avoidance schemes of §IV (a design-choice ablation flagged in
// DESIGN.md; no figure in the paper).
func AblationRouting(s Scale) ([]Point, error) {
	var jobs []job
	for _, topo := range []chipletnet.Topology{
		chipletnet.HypercubeTopology(6),
		chipletnet.TreeTopology(15, 2),
	} {
		for _, mode := range []chipletnet.RoutingMode{chipletnet.RoutingDuato, chipletnet.RoutingSafeUnsafe} {
			cfg := baseConfig(s)
			cfg.Topology = topo
			cfg.Routing = mode
			jobs = append(jobs, sweepJobs(s, cfg, "ablation-routing-"+seriesName(topo), string(mode))...)
		}
	}
	return runJobs(jobs)
}

// FaultTolerance measures graceful degradation on the 64-chiplet
// hypercube: latency and saturation as 0%/10%/20% of the
// chiplet-to-chiplet channels are disabled and routing steers around them
// using the interface groups' link redundancy — the fault-tolerance
// capability the paper's introduction calls for (an extension experiment;
// no figure in the paper).
func FaultTolerance(s Scale) ([]Point, error) {
	var jobs []job
	for _, frac := range []float64{0, 0.1, 0.2} {
		cfg := baseConfig(s)
		cfg.Topology = chipletnet.HypercubeTopology(6)
		cfg.CrossLinkFaultFraction = frac
		series := fmt.Sprintf("faults-%d%%", int(frac*100))
		jobs = append(jobs, sweepJobs(s, cfg, "ext-fault-tolerance", series)...)
	}
	return runJobs(jobs)
}

// CollectiveStudy measures collective-operation completion time across
// topologies and payload sizes on 16 chiplets (extension experiment;
// collective traffic motivates the paper's §II-B). Point reuse:
// AvgLatency holds the completion time in cycles and Accepted the bus
// bandwidth (flits/cycle/participant).
func CollectiveStudy(s Scale) ([]Point, error) {
	var pts []Point
	for _, topo := range []chipletnet.Topology{
		chipletnet.MeshTopology(4, 4),
		chipletnet.HypercubeTopology(4),
	} {
		sizes := s.CollectiveSizes
		if sizes == nil {
			sizes = []int{64, 512, 2048}
		}
		for _, kind := range chipletnet.CollectiveKinds() {
			for _, data := range sizes {
				cfg := baseConfig(s)
				cfg.Topology = topo
				res, err := chipletnet.RunCollective(cfg, chipletnet.Collective{Kind: kind, DataFlits: data})
				if err != nil {
					return nil, fmt.Errorf("collective %s on %v: %w", kind, topo, err)
				}
				pts = append(pts, Point{
					Experiment: "ext-collective-" + kind,
					Series:     seriesName(topo),
					X:          float64(data),
					XName:      "data-flits",
					AvgLatency: float64(res.CompletionCycles),
					Accepted:   res.BusBandwidth,
				})
			}
		}
	}
	return pts, nil
}

// WorkloadStudy measures QoS interference under the AI-scale-out
// workload: collective phases (latency-critical gradient exchange) over
// rising bulk memory-traffic backgrounds, on 16-chiplet systems
// (extension experiment; the figure family behind the trace/QoS
// subsystem of internal/workload). One point per (topology, class,
// background rate): latency fields carry the class's own percentiles
// and Accepted its per-class throughput, so the figure shows how the
// bulk background erodes collective and request tail latency.
func WorkloadStudy(s Scale) ([]Point, error) {
	memRates := []float64{0.01, 0.05, 0.1}
	topos := []chipletnet.Topology{
		chipletnet.MeshTopology(4, 4),
		chipletnet.HypercubeTopology(4),
	}
	var cfgs []chipletnet.Config
	var labels []string
	for _, topo := range topos {
		for _, mr := range memRates {
			cfg := baseConfig(s)
			cfg.Topology = topo
			cfg.Workload = fmt.Sprintf(
				"aiscaleout:allreduce-ring,data=256,compute=200,memrate=%g,reqrate=0.01", mr)
			cfgs = append(cfgs, cfg)
			labels = append(labels, seriesName(topo))
		}
	}
	for i, err := range preflightAll(cfgs) {
		if err != nil {
			return nil, fmt.Errorf("ext-workload-qos/%s at mem-rate=%g: %w", labels[i], memRates[i%len(memRates)], err)
		}
	}
	results, errs := chipletnet.RunMany(context.TODO(), cfgs)
	var pts []Point
	for i, res := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("ext-workload-qos/%s: %w", labels[i], errs[i])
		}
		mr := memRates[i%len(memRates)]
		for _, cs := range res.Classes {
			pts = append(pts, Point{
				Experiment:  "ext-workload-qos",
				Series:      labels[i] + "/" + cs.Class,
				X:           mr,
				XName:       "mem-rate",
				AvgLatency:  cs.AvgLatency,
				P99Latency:  cs.P99Latency,
				P999Latency: cs.P999Latency,
				Accepted:    cs.AcceptedFlitsPerNodeCycle,
				Deadlock:    res.Deadlocked,
			})
		}
	}
	return pts, nil
}

// DiameterRow is one row of the Table I reproduction.
type DiameterRow struct {
	Topology string
	Chiplets int
	// Formula is the paper's closed-form chiplet-level diameter.
	Formula int
	// Measured is the BFS chiplet-level diameter of the built system.
	Measured int
	// NodeDiameter is the node-level diameter including on-chip hops.
	NodeDiameter int
}

// Table1 reproduces Table I for 64-chiplet systems built from 4×4
// chiplets: the closed-form diameters against BFS-measured diameters of
// the actual constructions (plus dragonfly, which the paper lists at
// diameter 1).
func Table1() ([]DiameterRow, error) {
	type entry struct {
		name    string
		topo    chipletnet.Topology
		formula int
	}
	entries := []entry{
		{"2D-mesh", chipletnet.MeshTopology(8, 8), 2 * (8 - 1)},       // 2(sqrt(N)-1)
		{"2D-torus", chipletnet.NDTorusTopology(8, 8), 2 * (8 / 2)},   // sqrt(N)
		{"3D-mesh", chipletnet.NDMeshTopology(4, 4, 4), 3 * (4 - 1)},  // n(N^(1/n)-1)
		{"4D-mesh", chipletnet.NDMeshTopology(4, 4, 2, 2), 2*3 + 2*1}, // sum(d_i-1)
		{"hypercube", chipletnet.HypercubeTopology(6), 6},             // log2 N
		{"dragonfly", chipletnet.DragonflyTopology(12), 1},            // fully connected
	}
	var rows []DiameterRow
	for _, e := range entries {
		cfg := chipletnet.DefaultConfig()
		cfg.Topology = e.topo
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", e.name, err)
		}
		nd, _ := sys.Topo.Diameter()
		rows = append(rows, DiameterRow{
			Topology:     e.name,
			Chiplets:     sys.Topo.NumChiplets(),
			Formula:      e.formula,
			Measured:     sys.Topo.ChipletDiameter(),
			NodeDiameter: nd,
		})
	}
	return rows, nil
}

// SaturationPoint estimates the saturation injection rate of a series from
// its sweep points: the largest rate whose run stayed unsaturated.
func SaturationPoint(pts []Point, series string) float64 {
	best := 0.0
	for _, p := range pts {
		if p.Series == series && !p.Saturated && p.X > best {
			best = p.X
		}
	}
	return best
}

// Series returns the sorted distinct series names of a point set.
func Series(pts []Point) []string {
	set := map[string]bool{}
	for _, p := range pts {
		set[p.Series] = true
	}
	var out []string
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
