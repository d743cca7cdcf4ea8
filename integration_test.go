package chipletnet

import (
	"math"
	"testing"
)

// Timing audit (parallel-islands PR): every assertion in this file is a
// cycle-count or deterministic-metric bound — no wall-clock waits,
// sleeps or timeouts — so a slower run (e.g. -race with the islands
// engine's per-cycle barriers) cannot flake it. Keep it that way: new
// assertions must be phrased in simulated cycles, never real time.

// fastCfg returns a configuration sized for quick integration tests.
func fastCfg(topo Topology) Config {
	cfg := DefaultConfig()
	cfg.Topology = topo
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 2700
	cfg.InjectionRate = 0.1
	return cfg
}

func smallTopologies() []Topology {
	return []Topology{
		MeshTopology(2, 2),
		MeshTopology(4, 4),
		HypercubeTopology(2),
		HypercubeTopology(4),
		NDMeshTopology(2, 2),
		NDMeshTopology(4, 2, 2),
		NDTorusTopology(4, 3),
		DragonflyTopology(4),
		DragonflyTopology(6),
		TreeTopology(7, 2),
	}
}

// TestAllTopologiesDeliver runs light load on every topology and checks
// that traffic flows, nothing deadlocks, and accepted throughput tracks
// the offered load.
func TestAllTopologiesDeliver(t *testing.T) {
	for _, topo := range smallTopologies() {
		cfg := fastCfg(topo)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if res.Deadlocked {
			t.Errorf("%v: deadlocked at light load", topo)
		}
		if res.MeasuredPackets == 0 {
			t.Errorf("%v: no measured packets", topo)
		}
		// Compare against the traffic actually offered (small systems see
		// few messages, so the configured rate itself is noisy); allow
		// slack for messages still in flight at the window end.
		offeredRate := float64(res.OfferedPackets*cfg.PacketFlits) /
			float64(cfg.MeasureCycles) / float64(res.Endpoints)
		if res.AcceptedFlitsPerNodeCycle < 0.7*offeredRate {
			t.Errorf("%v: accepted %.3f of actually-offered %.3f at light load",
				topo, res.AcceptedFlitsPerNodeCycle, offeredRate)
		}
		if math.IsNaN(res.AvgLatency) || res.AvgLatency <= 0 {
			t.Errorf("%v: bad latency %v", topo, res.AvgLatency)
		}
		if res.EnergyPJPerBit <= 0 {
			t.Errorf("%v: bad energy %v", topo, res.EnergyPJPerBit)
		}
	}
}

// TestSaturationLoadNoDeadlock floods every topology in both routing
// modes; the watchdog must stay quiet (deadlock freedom under stress).
func TestSaturationLoadNoDeadlock(t *testing.T) {
	cycles := int64(3000)
	if testing.Short() {
		cycles = 1200
	}
	for _, mode := range []RoutingMode{RoutingDuato, RoutingSafeUnsafe} {
		for _, topo := range smallTopologies() {
			cfg := fastCfg(topo)
			cfg.Routing = mode
			cfg.InjectionRate = 1.0
			cfg.MeasureCycles = cycles
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", topo, mode, err)
			}
			if res.Deadlocked {
				t.Errorf("%v/%v: deadlock at saturation load", topo, mode)
			}
			if res.MeasuredPackets == 0 {
				t.Errorf("%v/%v: network fully stalled", topo, mode)
			}
		}
	}
}

// TestSafeUnsafeOversaturated drives safe/unsafe routing far past
// saturation on the paper-scale systems. This regression-guards the
// multi-packet-buffer generalization of Algorithm 5: phase-blind safety or
// head-blind safe counting both deadlock here.
func TestSafeUnsafeOversaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("64-chiplet oversaturation skipped in -short mode")
	}
	for _, topo := range []Topology{HypercubeTopology(6), MeshTopology(8, 8), NDMeshTopology(4, 4, 4)} {
		cfg := DefaultConfig()
		cfg.Topology = topo
		cfg.Routing = RoutingSafeUnsafe
		cfg.InjectionRate = 1.2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Errorf("%v: safe/unsafe deadlocked at 1.2 flits/node/cycle", topo)
		}
		if res.MeasuredPackets == 0 {
			t.Errorf("%v: network stalled", topo)
		}
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	cfg := fastCfg(HypercubeTopology(4))
	cfg.InjectionRate = 0.4
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.DeliveredPackets != b.DeliveredPackets ||
		a.AcceptedFlitsPerNodeCycle != b.AcceptedFlitsPerNodeCycle {
		t.Errorf("same seed diverged: %+v vs %+v", a.Summary, b.Summary)
	}
	cfg.Seed = 999
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.DeliveredPackets == a.DeliveredPackets && c.AvgLatency == a.AvgLatency {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// TestHypercubeBeatsBaseline is the paper's headline claim at the paper's
// scale (64 4x4 chiplets, Fig. 11/12): at moderate load the hypercube must
// show lower latency, fewer off-chip hops and lower transport energy than
// the flat 8x8 chiplet mesh.
func TestHypercubeBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("64-chiplet comparison skipped in -short mode")
	}
	mesh := fastCfg(MeshTopology(8, 8))
	cube := fastCfg(HypercubeTopology(6))
	mesh.InjectionRate, cube.InjectionRate = 0.3, 0.3
	rm, err := Run(mesh)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(cube)
	if err != nil {
		t.Fatal(err)
	}
	if rc.AvgLatency >= rm.AvgLatency {
		t.Errorf("hypercube latency %.1f not below mesh %.1f", rc.AvgLatency, rm.AvgLatency)
	}
	if rc.AvgOffChipHops >= rm.AvgOffChipHops {
		t.Errorf("hypercube off-chip hops %.2f not below mesh %.2f", rc.AvgOffChipHops, rm.AvgOffChipHops)
	}
	if rc.EnergyPJPerBit >= rm.EnergyPJPerBit {
		t.Errorf("hypercube energy %.2f not below mesh %.2f", rc.EnergyPJPerBit, rm.EnergyPJPerBit)
	}
}

// TestInterleavingImproves reproduces the §VII-C effect in miniature:
// enabling interleaving must not hurt, and at high load must help
// throughput on a bandwidth-constrained hypercube.
func TestInterleavingImproves(t *testing.T) {
	base := fastCfg(HypercubeTopology(4))
	base.InjectionRate = 0.8
	base.MeasureCycles = 3000

	run := func(il string) Result {
		c := base
		c.Interleave = il
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	none := run("none")
	msg := run("message")
	pkt := run("packet")
	if msg.AcceptedFlitsPerNodeCycle < none.AcceptedFlitsPerNodeCycle*0.98 {
		t.Errorf("message interleaving hurt throughput: %.3f vs %.3f",
			msg.AcceptedFlitsPerNodeCycle, none.AcceptedFlitsPerNodeCycle)
	}
	if pkt.AcceptedFlitsPerNodeCycle < none.AcceptedFlitsPerNodeCycle {
		t.Errorf("packet interleaving hurt throughput: %.3f vs %.3f",
			pkt.AcceptedFlitsPerNodeCycle, none.AcceptedFlitsPerNodeCycle)
	}
}

// TestAllPatternsRun exercises the six §VI-B traffic patterns end to end.
func TestAllPatternsRun(t *testing.T) {
	for _, pat := range []string{"uniform", "hotspot", "bit-complement", "bit-reverse", "bit-shuffle", "bit-transpose"} {
		cfg := fastCfg(HypercubeTopology(4))
		cfg.Pattern = pat
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if res.Deadlocked || res.MeasuredPackets == 0 {
			t.Errorf("%s: deadlock=%v measured=%d", pat, res.Deadlocked, res.MeasuredPackets)
		}
	}
}

// TestThroughputTracksOffered: at a clearly stable operating point on a
// 64-core system with a long window, accepted throughput must track the
// offered load within 10%.
func TestThroughputTracksOffered(t *testing.T) {
	cfg := fastCfg(HypercubeTopology(4))
	cfg.InjectionRate = 0.3
	cfg.MeasureCycles = 6000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedFlitsPerNodeCycle < 0.9*cfg.InjectionRate {
		t.Errorf("accepted %.3f of offered %.3f", res.AcceptedFlitsPerNodeCycle, cfg.InjectionRate)
	}
}

// TestMeasurementWindowMatters: doubling measurement time should not
// change the latency estimate wildly at stable load (stationarity check).
func TestMeasurementWindowMatters(t *testing.T) {
	cfg := fastCfg(HypercubeTopology(4))
	cfg.InjectionRate = 0.2
	short, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MeasureCycles *= 3
	long, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := long.AvgLatency / short.AvgLatency; ratio > 1.5 || ratio < 0.67 {
		t.Errorf("latency unstable across windows: %.1f vs %.1f", short.AvgLatency, long.AvgLatency)
	}
}

// TestNDMeshSeparationAblation: the config knob must build and run; with
// separation disabled the system is Theorem-1-unsafe but must still run at
// light load.
func TestNDMeshSeparationAblation(t *testing.T) {
	cfg := fastCfg(NDMeshTopology(2, 2))
	cfg.DisableNDMeshVCSeparation = true
	cfg.InjectionRate = 0.05
	if _, err := Run(cfg); err == nil {
		t.Fatal("equal-channel mode accepted without AllowUnsafeRouting")
	}
	cfg.AllowUnsafeRouting = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredPackets == 0 {
		t.Error("no traffic with separation disabled")
	}
}

// TestCustomIrregularTopology runs an irregular chiplet graph (the Fig. 6
// capability) under safe/unsafe routing, from light load to saturation.
func TestCustomIrregularTopology(t *testing.T) {
	topo := CustomTopology(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 5}, {2, 5}})
	cfg := fastCfg(topo)
	cfg.Routing = RoutingSafeUnsafe
	for _, rate := range []float64{0.1, 1.0} {
		cfg.InjectionRate = rate
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Errorf("rate %.1f: deadlock on irregular graph", rate)
		}
		if res.MeasuredPackets == 0 {
			t.Errorf("rate %.1f: no traffic", rate)
		}
	}
	// Irregular graphs have no MFR label structure; Duato mode must be
	// rejected with a helpful error.
	cfg.Routing = RoutingDuato
	if _, err := Run(cfg); err == nil {
		t.Error("custom topology accepted without safe/unsafe routing")
	}
}

// TestTorusWrapChannelsHelp: the adaptive-only wrap channels must reduce
// average chiplet-to-chiplet hops and not hurt latency under load,
// compared to the same-size mesh.
func TestTorusWrapChannelsHelp(t *testing.T) {
	mesh := fastCfg(NDMeshTopology(4, 4))
	torus := fastCfg(NDTorusTopology(4, 4))
	mesh.InjectionRate, torus.InjectionRate = 0.4, 0.4
	rm, err := Run(mesh)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(torus)
	if err != nil {
		t.Fatal(err)
	}
	if rt.AvgOffChipHops >= rm.AvgOffChipHops {
		t.Errorf("torus off-chip hops %.2f not below mesh %.2f", rt.AvgOffChipHops, rm.AvgOffChipHops)
	}
	if rt.AvgLatency > rm.AvgLatency*1.05 {
		t.Errorf("torus latency %.1f worse than mesh %.1f", rt.AvgLatency, rm.AvgLatency)
	}
}

// TestFaultToleranceGracefulDegradation: with 15% of cross links failed,
// the hypercube must keep routing (no deadlock) at a modest latency cost.
func TestFaultToleranceGracefulDegradation(t *testing.T) {
	base := fastCfg(HypercubeTopology(4))
	base.InjectionRate = 0.2
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.CrossLinkFaultFraction = 0.15
	degraded, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Deadlocked {
		t.Fatal("deadlock under link faults")
	}
	if degraded.MeasuredPackets == 0 {
		t.Fatal("no traffic under link faults")
	}
	if degraded.AvgLatency > 3*healthy.AvgLatency {
		t.Errorf("degradation not graceful: %.1f -> %.1f cycles", healthy.AvgLatency, degraded.AvgLatency)
	}
	// Faults on the baseline are rejected (no redundancy to exploit).
	bad := fastCfg(MeshTopology(4, 4))
	bad.CrossLinkFaultFraction = 0.1
	if _, err := Run(bad); err == nil {
		t.Error("flat-mesh faults accepted")
	}
}

// TestSystemInspection exercises the Build-without-Run path.
func TestSystemInspection(t *testing.T) {
	sys, err := Build(fastCfg(HypercubeTopology(3)))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Topo.NumChiplets() != 8 {
		t.Errorf("chiplets = %d", sys.Topo.NumChiplets())
	}
	if d := sys.Topo.ChipletDiameter(); d != 3 {
		t.Errorf("chiplet diameter = %d, want 3", d)
	}
	if n := len(sys.Topo.Cores); n != 8*4 {
		t.Errorf("cores = %d", n)
	}
}
