// Benchmarks that regenerate every table and figure of the paper's
// evaluation at reduced (Quick) scale. Each benchmark reports, besides
// ns/op, the headline metric of its figure as custom units so that
// `go test -bench=. -benchmem` produces a one-screen summary of the
// reproduction:
//
//	latency-cycles   mean packet latency of the series' reference point
//	saturation-rate  estimated saturation injection rate
//	pj-per-bit       transport energy
//
// The full-fidelity regeneration (Table II simulation lengths, denser
// sweeps, 256-chiplet points) is `go run ./cmd/chipletfig -scale full all`;
// its output is recorded in EXPERIMENTS.md.
package chipletnet_test

import (
	"fmt"
	"testing"

	"chipletnet"
	"chipletnet/internal/experiments"
	"chipletnet/internal/verify"
)

// scale for benchmarks.
var benchScale = experiments.Quick

// reportSeries attaches per-series latency at the lowest rate and the
// saturation estimate to the benchmark output.
func reportSeries(b *testing.B, pts []experiments.Point, series string) {
	b.Helper()
	low := 0.0
	var lowLat float64
	for _, p := range pts {
		if p.Series != series {
			continue
		}
		if low == 0 || p.X < low {
			low, lowLat = p.X, p.AvgLatency
		}
		if p.Deadlock {
			b.Fatalf("series %s deadlocked at %g", series, p.X)
		}
	}
	b.ReportMetric(lowLat, series+"-latency-cycles")
	b.ReportMetric(experiments.SaturationPoint(pts, series), series+"-saturation")
}

// BenchmarkTable1Diameter regenerates Table I (network diameters).
func BenchmarkTable1Diameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Measured != r.Formula {
				b.Fatalf("%s: measured %d != formula %d", r.Topology, r.Measured, r.Formula)
			}
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Measured), r.Topology+"-diameter")
			}
		}
	}
}

// benchFig11 runs one Fig. 11 subfigure (one traffic pattern).
func benchFig11(b *testing.B, pattern string) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig11(benchScale, pattern)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

func BenchmarkFig11aUniform(b *testing.B)       { benchFig11(b, "uniform") }
func BenchmarkFig11bHotspot(b *testing.B)       { benchFig11(b, "hotspot") }
func BenchmarkFig11cBitComplement(b *testing.B) { benchFig11(b, "bit-complement") }
func BenchmarkFig11dBitReverse(b *testing.B)    { benchFig11(b, "bit-reverse") }
func BenchmarkFig11eBitShuffle(b *testing.B)    { benchFig11(b, "bit-shuffle") }
func BenchmarkFig11fBitTranspose(b *testing.B)  { benchFig11(b, "bit-transpose") }

// BenchmarkFig12Scales regenerates Fig. 12 (topologies across scales).
func BenchmarkFig12Scales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

// BenchmarkFig13Energy regenerates Fig. 13 (energy across scales).
func BenchmarkFig13Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig13(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.ReportMetric(p.EnergyPJ, p.Series+"-pj-per-bit")
			}
		}
	}
}

// benchFig14 runs one Fig. 14 subfigure (one off-chip bandwidth).
func benchFig14(b *testing.B, bwFlits int) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig14(benchScale, bwFlits)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

func BenchmarkFig14aBW32(b *testing.B)  { benchFig14(b, 1) }
func BenchmarkFig14bBW64(b *testing.B)  { benchFig14(b, 2) }
func BenchmarkFig14cBW128(b *testing.B) { benchFig14(b, 4) }
func BenchmarkFig14dBW256(b *testing.B) { benchFig14(b, 8) }

// BenchmarkFig15LinkConfig regenerates Fig. 15 (chiplet-to-chiplet link
// latency and buffer size).
func BenchmarkFig15LinkConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig15(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

// BenchmarkFig16Interleaving regenerates Fig. 16 (interleaving styles).
func BenchmarkFig16Interleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig16(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

// BenchmarkAblationRouting compares the two deadlock-avoidance schemes
// (design-choice ablation from DESIGN.md).
func BenchmarkAblationRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationRouting(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

// BenchmarkExtFaultTolerance measures graceful degradation under
// chiplet-to-chiplet link faults (extension experiment).
func BenchmarkExtFaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.FaultTolerance(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range experiments.Series(pts) {
				reportSeries(b, pts, s)
			}
		}
	}
}

// BenchmarkExtCollectives measures all-reduce/all-gather/all-to-all
// completion times across topologies (extension experiment).
func BenchmarkExtCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CollectiveStudy(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the largest payload the scale ran.
			maxX := 0.0
			for _, p := range pts {
				if p.X > maxX {
					maxX = p.X
				}
			}
			for _, p := range pts {
				if p.X == maxX {
					b.ReportMetric(p.AvgLatency, p.Experiment[len("ext-collective-"):]+"-"+p.Series+"-cycles")
				}
			}
		}
	}
}

// BenchmarkSimulatorCyclesPerSecond is a micro-benchmark of the engine
// itself: router-cycles per second on the 64-chiplet hypercube at
// moderate load.
func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(6)
	cfg.InjectionRate = 0.3
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 900
	routers := 64 * 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chipletnet.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	total := float64(b.N) * float64(cfg.WarmupCycles+cfg.MeasureCycles) * float64(routers)
	b.ReportMetric(total/b.Elapsed().Seconds(), "router-cycles/s")
}

// benchSimulate times Simulate alone (Build runs with the timer stopped)
// on one configuration and reports the cycle loop's throughput in
// router-cycles per second plus its allocations, so that
//
//	go test -run '^$' -bench SimulateSingle -benchmem -cpuprofile cpu.out
//
// profiles the loop directly. The two shapes are the single-idle and
// single-loaded workloads of bench/ (see bench/README.md).
func benchSimulate(b *testing.B, topo chipletnet.Topology, rate float64, warm, meas int64) {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = topo
	cfg.InjectionRate = rate
	cfg.WarmupCycles = warm
	cfg.MeasureCycles = meas
	chiplets, err := topo.NumChiplets()
	if err != nil {
		b.Fatal(err)
	}
	routers := chiplets * cfg.ChipletW * cfg.ChipletH
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := sys.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("deadlocked")
		}
	}
	total := float64(b.N) * float64(warm+meas) * float64(routers)
	b.ReportMetric(total/b.Elapsed().Seconds(), "router-cycles/s")
}

// BenchmarkSimulateSingleIdle is the single-idle shape: 64 chiplets at
// 0.05 load, where almost every router idles.
func BenchmarkSimulateSingleIdle(b *testing.B) {
	benchSimulate(b, chipletnet.HypercubeTopology(6), 0.05, 4000, 36000)
}

// BenchmarkSimulateSingleLoaded is the single-loaded shape: 256 chiplets
// at 0.30 load, where most routers are busy.
func BenchmarkSimulateSingleLoaded(b *testing.B) {
	benchSimulate(b, chipletnet.HypercubeTopology(8), 0.30, 100, 500)
}

// BenchmarkBuild times Build alone on the single-idle (hypercube(6)) and
// single-loaded (hypercube(8)) shapes and a small hypercube(4), so that
//
//	go test -run '^$' -bench Build/ -benchmem -cpuprofile cpu.out
//
// profiles construction apart from stepping.
func BenchmarkBuild(b *testing.B) {
	for _, dims := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("hypercube-%d", dims), func(b *testing.B) {
			cfg := chipletnet.DefaultConfig()
			cfg.Topology = chipletnet.HypercubeTopology(dims)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := chipletnet.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sys.Topo.Fabric.Close()
			}
		})
	}
}

// compiledShapes are the five 64-chiplet systems of bench/'s
// build-compiled workload (dragonfly is capped at 12 chiplets by the
// 4x4 chiplet's interface count).
func compiledShapes() []chipletnet.Topology {
	return []chipletnet.Topology{
		chipletnet.MeshTopology(8, 8),
		chipletnet.NDMeshTopology(4, 4, 4),
		chipletnet.HypercubeTopology(6),
		chipletnet.DragonflyTopology(12),
		chipletnet.TreeTopology(64, 4),
	}
}

// BenchmarkCertify times System.Certify under full analysis on each
// build-compiled shape and on hypercube(6) with a quarter of its cross
// links failed (Build runs with the timer stopped), so that
//
//	go test -run '^$' -bench Certify -benchmem -cpuprofile cpu.out
//
// profiles the routing certifier alone.
func BenchmarkCertify(b *testing.B) {
	type shape struct {
		topo   chipletnet.Topology
		faults float64
	}
	var shapes []shape
	for _, topo := range compiledShapes() {
		shapes = append(shapes, shape{topo, 0})
	}
	shapes = append(shapes, shape{chipletnet.HypercubeTopology(6), 0.25})
	for _, sh := range shapes {
		name := sh.topo.String()
		if sh.faults > 0 {
			name += fmt.Sprintf("/faults_%g", sh.faults)
		}
		b.Run(name, func(b *testing.B) {
			cfg := chipletnet.DefaultConfig()
			cfg.Topology = sh.topo
			cfg.CrossLinkFaultFraction = sh.faults
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := chipletnet.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, rep := sys.Certify(verify.Options{}); rep.Err() != nil {
					b.Fatal(rep.Err())
				}
			}
		})
	}
}

// BenchmarkBuildCompiled times Build with compiled routing on each
// build-compiled shape: construction, certification and the table
// compile, the set-up half of that workload's op.
func BenchmarkBuildCompiled(b *testing.B) {
	for _, topo := range compiledShapes() {
		b.Run(topo.String(), func(b *testing.B) {
			cfg := chipletnet.DefaultConfig()
			cfg.Topology = topo
			cfg.CompiledRouting = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chipletnet.Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
