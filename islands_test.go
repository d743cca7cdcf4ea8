package chipletnet

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/traffic"
)

// fuzzTopology maps fuzz bytes onto every topology kind at small,
// buildable-ish dimensions (combinations the builders reject are
// skipped by the fuzz body, not crashed on).
func fuzzTopology(kind, d1, d2 uint8) Topology {
	switch kind % 6 {
	case 0:
		return MeshTopology(2+int(d1%3), 2+int(d2%3))
	case 1:
		return HypercubeTopology(1 + int(d1%4))
	case 2:
		return NDTorusTopology(2+int(d1%7), 2+int(d2%3))
	case 3:
		return DragonflyTopology(2 + int(d1%4))
	case 4:
		return TreeTopology(2+int(d1%5), 2+int(d2%2))
	default:
		n := 4 + int(d1%5)
		edges := make([][2]int, 0, n+1)
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
		edges = append(edges, [2]int{0, n / 2})
		return CustomTopology(n, edges)
	}
}

// FuzzIslandPartition checks the parallel-islands partition invariants
// on random topology/seed/K combinations:
//
//   - every router belongs to exactly one island, islands are contiguous
//     non-empty router-index ranges, and the partition cuts only on
//     chiplet boundaries;
//   - every cut edge is exchanged through a serial mailbox (the link is
//     classified serial exactly when its endpoints live in different
//     islands or it carries a reliability protocol);
//   - the union of the per-island active sets is preserved: stepped in
//     lockstep with an identically-seeded run under the serial
//     active-set engine, the islands engine's merged router/link
//     bitmaps match the serial engine's bit-for-bit every cycle, while
//     its grain flips so that its sets are split and merged again and
//     again.
//
// The seed corpus pins the historically tricky topologies: the tree
// whose escape channel once formed a dependency cycle (PR 1) and the
// asymmetric ndtorus-8x2.
func FuzzIslandPartition(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(0), uint8(2), uint64(1))  // tree(5,2): the escape-cycle topology
	f.Add(uint8(2), uint8(6), uint8(0), uint8(4), uint64(7))  // ndtorus 8x2: asymmetric dims
	f.Add(uint8(1), uint8(2), uint8(0), uint8(3), uint64(42)) // hypercube(3)
	f.Add(uint8(3), uint8(2), uint8(0), uint8(64), uint64(9)) // dragonfly(4), K far above the chiplet count
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint64(5))  // mesh 2x2, single island
	f.Fuzz(func(t *testing.T, kind, d1, d2, k uint8, seed uint64) {
		cfg := DefaultConfig()
		cfg.Topology = fuzzTopology(kind, d1, d2)
		cfg.Seed = seed
		cfg.InjectionRate = 0.1 + float64(seed%25)/100
		cfg.WarmupCycles = 40
		cfg.MeasureCycles = 80

		var plain, isl *System
		var plainErr, islErr error
		withEngine(engineSetup{"active-serial", EngineActive, 0, nil, true}, func() {
			plain, plainErr = Build(cfg)
		})
		withEngine(engineSetup{"islands", EngineIslands, 1 + int(k%8), nil, false}, func() {
			isl, islErr = Build(cfg)
		})
		if (plainErr == nil) != (islErr == nil) {
			t.Fatalf("Build disagrees across engines: active %v, islands %v", plainErr, islErr)
		}
		if plainErr != nil {
			t.Skip() // invalid combinations may be rejected, not crash
		}

		fab := isl.Topo.Fabric
		assign, serial := fab.IslandLayout()
		K := fab.Islands()
		if K < 1 || K > 1+int(k%8) {
			t.Fatalf("island count %d outside [1, %d]", K, 1+int(k%8))
		}
		if len(assign) != len(fab.Routers) {
			t.Fatalf("partition covers %d of %d routers", len(assign), len(fab.Routers))
		}
		perIsland := make([]int, K)
		for i, w := range assign {
			if w < 0 || w >= K {
				t.Fatalf("router %d assigned to island %d of %d", i, w, K)
			}
			perIsland[w]++
			if i == 0 {
				continue
			}
			if w < assign[i-1] {
				t.Fatalf("islands not contiguous: router %d on island %d after island %d", i, w, assign[i-1])
			}
			if w != assign[i-1] && isl.Topo.Nodes[i].Chiplet == isl.Topo.Nodes[i-1].Chiplet {
				t.Fatalf("partition cuts inside chiplet %d at router %d", isl.Topo.Nodes[i].Chiplet, i)
			}
		}
		for w, n := range perIsland {
			if n == 0 {
				t.Fatalf("island %d is empty", w)
			}
		}
		if len(serial) != len(fab.Links) {
			t.Fatalf("classification covers %d of %d links", len(serial), len(fab.Links))
		}
		for _, l := range fab.Links {
			cut := assign[l.Src.Node] != assign[l.Dst.Node]
			if cut && !serial[l.ID] {
				t.Fatalf("cut link %d (%d->%d, islands %d->%d) has no serial mailbox",
					l.ID, l.Src.Node, l.Dst.Node, assign[l.Src.Node], assign[l.Dst.Node])
			}
			if !cut && serial[l.ID] && l.Rel == nil {
				t.Fatalf("internal link %d (%d->%d) classified serial without a reliability protocol",
					l.ID, l.Src.Node, l.Dst.Node)
			}
		}

		// Lockstep union check: identical generators drive both fabrics;
		// after every cycle the islands engine's merged active sets must
		// equal the serial active-set engine's bitmaps exactly. The
		// islands fabric's grain flips between 0 and infinity every
		// flip cycles, so its sets are scattered and merged again and
		// again between the checks.
		flip := 1 + int64(seed%5)
		newGen := func(s *System) *traffic.Generator {
			pat, err := traffic.NewPattern(cfg.Pattern, len(s.Topo.Cores), cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			gran, err := interleave.ParseGranularity(cfg.Interleave)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := traffic.NewGenerator(s.Topo.Cores, pat, cfg.InjectionRate,
				cfg.PacketFlits, cfg.MsgPackets, interleave.Policy{G: gran}, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			return gen
		}
		genPlain, genIsl := newGen(plain), newGen(isl)
		pf := plain.Topo.Fabric
		for cy := int64(1); cy <= cfg.WarmupCycles+cfg.MeasureCycles; cy++ {
			genPlain.SetMeasured(cy > cfg.WarmupCycles)
			genIsl.SetMeasured(cy > cfg.WarmupCycles)
			genPlain.Tick(pf, cy)
			genIsl.Tick(fab, cy)
			fab.IslandGrain = 0
			if cy/flip%2 == 1 {
				fab.IslandGrain = math.MaxInt
			}
			pf.Step()
			fab.Step()
			if pf.InFlight() != fab.InFlight() {
				t.Fatalf("cycle %d: in-flight diverged: active %d, islands %d", cy, pf.InFlight(), fab.InFlight())
			}
			if pf.BufferedFlits() != fab.BufferedFlits() {
				t.Fatalf("cycle %d: buffered flits diverged: active %d, islands %d", cy, pf.BufferedFlits(), fab.BufferedFlits())
			}
			wantR, wantL := pf.ActiveSets()
			gotR, gotL := fab.ActiveSets()
			for i := range wantR {
				if gotR[i] != wantR[i] {
					t.Fatalf("cycle %d: router active-set word %d diverged: islands %x, active %x", cy, i, gotR[i], wantR[i])
				}
			}
			for i := range wantL {
				if gotL[i] != wantL[i] {
					t.Fatalf("cycle %d: link active-set word %d diverged: islands %x, active %x", cy, i, gotL[i], wantL[i])
				}
			}
		}
	})
}

// quietGoroutines collects the fabrics earlier tests left unclosed and
// returns the goroutine count once it holds still.
func quietGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// settleGoroutines waits up to two seconds for runtime.NumGoroutine to
// fall to want and reports the last count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// wedgeConfig is a custom 8-chiplet ring under unsafe Duato routing with
// packet-sized buffers at full load: at this seed it deadlocks near
// cycle 11000, and the watchdog fires 300 cycles later.
func wedgeConfig() Config {
	cfg := DefaultConfig()
	edges := make([][2]int, 8)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % 8}
	}
	cfg.Topology = CustomTopology(8, edges)
	cfg.Routing = RoutingDuato
	cfg.AllowUnsafeRouting = true
	cfg.VCs = 2
	cfg.InternalBufFlits = cfg.PacketFlits
	cfg.InterfaceBufFlits = cfg.PacketFlits
	cfg.InjectionRate = 1.0
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 30000
	cfg.Seed = 8
	cfg.DeadlockThreshold = 300
	return cfg
}

// panicRouting is a routing that panics at router node from cycle 120 on.
type panicRouting struct {
	router.Routing
	node int
}

func (p panicRouting) Candidates(r *router.Router, inPort int, pk *packet.Packet, buf []router.Candidate) []router.Candidate {
	if r.Node == p.node && r.Fabric.Now >= 120 {
		panic(fmt.Sprintf("routing panic at router %d", r.Node))
	}
	return p.Routing.Candidates(r, inPort, pk, buf)
}

// TestRunReleasesWorkers checks that every way a run can end leaves no
// island worker behind: once Simulate, SimulateControlled or RunMany
// returns, runtime.NumGoroutine is back at its count from before the
// run. Each case runs under the default engine with every cycle of the
// lone run forced parallel, and under islands:2.
func TestRunReleasesWorkers(t *testing.T) {
	small := equivConfig(HypercubeTopology(3))
	small.CheckCredits = false
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"completion", func(t *testing.T) {
			if _, err := Run(small); err != nil {
				t.Fatal(err)
			}
		}},
		{"deadlock", func(t *testing.T) {
			res, err := Run(wedgeConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Deadlocked {
				t.Fatal("the wedge configuration did not deadlock")
			}
		}},
		{"timeout", func(t *testing.T) {
			sys, err := Build(small)
			if err != nil {
				t.Fatal(err)
			}
			deadline := make(chan struct{})
			close(deadline)
			if _, err := sys.SimulateControlled(RunControl{Deadline: deadline}); !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %v, want ErrTimeout", err)
			}
		}},
		{"interrupt", func(t *testing.T) {
			sys, err := Build(small)
			if err != nil {
				t.Fatal(err)
			}
			ctrl := RunControl{CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"), InterruptAtCycle: 120}
			if _, err := sys.SimulateControlled(ctrl); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("got %v, want ErrInterrupted", err)
			}
		}},
		{"panic", func(t *testing.T) {
			// RunMany's pool with a routing that panics in the last
			// island's phase from cycle 120 on, i.e. on a worker.
			errs := forEach(1, 1, func(int) error {
				sys, err := Build(small)
				if err != nil {
					return err
				}
				f := sys.Topo.Fabric
				f.Routing = panicRouting{f.Routing, len(f.Routers) - 1}
				_, err = sys.Simulate()
				return err
			})
			if errs[0] == nil || !strings.Contains(errs[0].Error(), "panic: routing panic at router") {
				t.Fatalf("got %v, want the recovered panic", errs[0])
			}
		}},
	}
	for _, c := range cases {
		for _, eng := range []engineSetup{
			{"active-g0", EngineActive, 0, nil, false},
			{"islands-k2", EngineIslands, 2, nil, false},
		} {
			t.Run(c.name+"/"+eng.name, func(t *testing.T) {
				calls := 0
				eng.grain = func(int64) int {
					calls++
					return 0
				}
				base := quietGoroutines()
				withEngine(eng, func() { c.run(t) })
				if n := settleGoroutines(base); n != base {
					t.Fatalf("%d goroutines after the run returned, want %d", n, base)
				}
				if eng.eng == EngineActive && calls == 0 {
					t.Fatal("the default engine never consulted its grain: the run had no islands or was not alone")
				}
			})
		}
	}
}
