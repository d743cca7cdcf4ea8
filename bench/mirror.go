package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"

	"chipletnet"
	"chipletnet/internal/chiplet"
	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/routing"
	"chipletnet/internal/stats"
	"chipletnet/internal/topology"
	"chipletnet/internal/traffic"
)

// simStats is the canonical projection of one simulation's statistics
// that the goldens digest. It names the fields it covers, so adding an
// unrelated field to chipletnet.Result or stats.Summary leaves every
// digest unchanged (gob(Result) would not).
type simStats struct {
	Measured, Delivered int
	Avg, P50, P99       float64
	Max                 int64
	Accepted            float64
	OnChip, OffChip     float64
	InFlight            int
	Deadlocked          bool
	ClassP99            []float64
}

func statsOf(sum stats.Summary, inFlight int, deadlocked bool) simStats {
	p := simStats{
		Measured: sum.MeasuredPackets, Delivered: sum.DeliveredPackets,
		Avg: sum.AvgLatency, P50: sum.P50Latency, P99: sum.P99Latency, Max: sum.MaxLatency,
		Accepted: sum.AcceptedFlitsPerNodeCycle,
		OnChip:   sum.AvgOnChipHops, OffChip: sum.AvgOffChipHops,
		InFlight: inFlight, Deadlocked: deadlocked,
	}
	for _, c := range sum.Classes {
		p.ClassP99 = append(p.ClassP99, c.P99Latency)
	}
	return p
}

func statsOfResult(r chipletnet.Result) simStats {
	return statsOf(r.Summary, r.InFlightAtEnd, r.Deadlocked)
}

// bits renders a float by its IEEE-754 bits: exact, and NaN-safe.
func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func (p simStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m%d d%d a%s p50%s p99%s x%d t%s on%s off%s f%d dl%t",
		p.Measured, p.Delivered, bits(p.Avg), bits(p.P50), bits(p.P99), p.Max,
		bits(p.Accepted), bits(p.OnChip), bits(p.OffChip), p.InFlight, p.Deadlocked)
	for _, c := range p.ClassP99 {
		b.WriteString(" c" + bits(c))
	}
	return b.String()
}

// digest hashes the canonical lines of one op.
func digest(lines ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:12])
}

func digestStats(ps []simStats) string {
	lines := make([]string, len(ps))
	for i, p := range ps {
		lines[i] = p.String()
	}
	return digest(lines...)
}

// routerCycles is the simulated work one run of cfg covers: routers ×
// cycles.
func routerCycles(cfg chipletnet.Config) float64 {
	n, _ := cfg.Topology.NumChiplets()
	return float64(n*cfg.ChipletW*cfg.ChipletH) * float64(cfg.WarmupCycles+cfg.MeasureCycles)
}

// mirrorBuild is chipletnet.Build assembled from the public constructors
// of each layer, one span per layer. It covers the configurations the
// benchmark generates (no pre-failed links, no custom graphs); every
// traced op proves it by comparing digests with the real entry point.
func mirrorBuild(tr *tracer, parent int, cfg chipletnet.Config) (*chipletnet.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CrossLinkFaultFraction > 0 || cfg.Fault.Enabled() || cfg.Workload != "" || cfg.DrainCycles > 0 {
		return nil, fmt.Errorf("bench: mirror does not cover faults, workloads or drain")
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
	id := tr.beginMem("topology.build", parent, 0)
	var sys *topology.System
	dims := cfg.Topology.Dims
	switch cfg.Topology.Kind {
	case "mesh":
		sys, err = topology.BuildFlatMesh(geo, dims[0], dims[1], lp)
	case "ndmesh":
		sys, err = topology.BuildNDMesh(geo, dims, lp)
	case "ndtorus":
		sys, err = topology.BuildNDTorus(geo, dims, lp)
	case "hypercube":
		sys, err = topology.BuildHypercube(geo, dims[0], lp)
	case "dragonfly":
		sys, err = topology.BuildDragonfly(geo, dims[0], lp)
	case "tree":
		sys, err = topology.BuildTree(geo, dims[0], dims[1], lp)
	default:
		err = fmt.Errorf("bench: mirror does not cover topology kind %q", cfg.Topology.Kind)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	opt := routing.Options{
		DisableNDMeshVCSeparation: cfg.DisableNDMeshVCSeparation,
		AllowUnsafe:               cfg.AllowUnsafeRouting,
	}
	if cfg.Routing == chipletnet.RoutingSafeUnsafe {
		opt.Mode = routing.SafeUnsafe
	}
	id = tr.beginMem("routing.new", parent, 0)
	rt, err := routing.New(sys, opt)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	sys.Fabric.Routing = rt
	if cfg.CompiledRouting {
		id = tr.beginMem("routing.compile", parent, 0)
		comp, _, cerr := routing.Compile(sys)
		tr.end(id)
		if cerr != nil {
			return nil, cerr
		}
		sys.Fabric.Routing = comp
	}
	f := sys.Fabric
	f.SafeUnsafe = cfg.Routing == chipletnet.RoutingSafeUnsafe
	f.OffChipVAExtra = cfg.OffChipVAExtra
	f.DeadlockThreshold = cfg.DeadlockThreshold
	f.UseReference = chipletnet.UseEngine == chipletnet.EngineReference
	if chipletnet.UseEngine == chipletnet.EngineIslands {
		k := chipletnet.IslandCount
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
		chipletOf := make([]int, len(sys.Nodes))
		for i, n := range sys.Nodes {
			chipletOf[i] = n.Chiplet
		}
		f.EnableIslands(k, chipletOf)
	}
	return &chipletnet.System{Cfg: cfg, Topo: sys}, nil
}

// mirrorRun is chipletnet.Run with the cycle loop driven from here: the
// same source, collector, packet pool and fabric calls System.run makes
// for a synthetic fault-free run, each wrapped in a span.
func mirrorRun(tr *tracer, parent int, cfg chipletnet.Config) (simStats, error) {
	s, err := mirrorBuild(tr, parent, cfg)
	if err != nil {
		return simStats{}, err
	}
	id := tr.beginMem("traffic.new", parent, 0)
	gran, err := interleave.ParseGranularity(cfg.Interleave)
	if err != nil {
		return simStats{}, err
	}
	pat, err := traffic.NewPattern(cfg.Pattern, len(s.Topo.Cores), cfg.Seed)
	if err != nil {
		return simStats{}, err
	}
	src, err := traffic.NewGenerator(s.Topo.Cores, pat, cfg.InjectionRate,
		cfg.PacketFlits, cfg.MsgPackets, interleave.Policy{G: gran}, cfg.Seed)
	tr.end(id)
	if err != nil {
		return simStats{}, err
	}

	col := &stats.Collector{MeasureFrom: cfg.WarmupCycles + 1}
	pool := &packet.Pool{}
	src.SetPool(pool)
	f := s.Topo.Fabric
	f.CreditAudit = cfg.CheckCredits
	step := -1
	f.Sink = func(p *packet.Packet, now int64) {
		d := tr.begin("stats.deliver", step, 0)
		col.OnDeliver(p, now)
		tr.end(d)
		src.OnDeliver(p, now)
		pool.Put(p)
	}

	loop := tr.beginMem("sim.loop", parent, 0)
	total := cfg.WarmupCycles + cfg.MeasureCycles
	for cy := int64(1); cy <= total; cy++ {
		src.SetMeasured(cy > cfg.WarmupCycles)
		id = tr.begin("traffic.tick", loop, 0)
		src.Tick(f, cy)
		tr.end(id)
		step = tr.begin("router.step", loop, 0)
		f.Step()
		tr.end(step)
		if f.Deadlocked {
			break
		}
	}
	tr.end(loop)

	id = tr.beginMem("stats.summarize", parent, 0)
	sum := col.Summarize(cfg.MeasureCycles, len(s.Topo.Cores))
	tr.end(id)
	return statsOf(sum, f.InFlight(), f.Deadlocked), nil
}
