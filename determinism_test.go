package chipletnet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"testing"
)

// TestDeterminismAcrossGOMAXPROCS is the cross-scheduler golden test: the
// JSON-serialized Results of a topology-and-fault matrix, swept in
// parallel through RunMany, must hash identically under GOMAXPROCS=1 and
// GOMAXPROCS=N. RunMany is the only concurrency in the stack, so any
// divergence means shared mutable state leaked between simulations.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	var configs []Config
	for _, topo := range []Topology{
		MeshTopology(2, 2),
		HypercubeTopology(3),
		DragonflyTopology(4),
		TreeTopology(5, 2),
	} {
		for _, faults := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Topology = topo
			cfg.WarmupCycles = 50
			cfg.MeasureCycles = 200
			cfg.DrainCycles = 20000
			if faults {
				cfg.Fault.BER = 5e-4
			}
			configs = append(configs, cfg)
		}
	}
	// High enough that every topology delivers measured traffic at the
	// short window (an empty measurement window makes AvgLatency NaN,
	// which JSON cannot encode).
	rates := []float64{0.15, 0.3}

	digest := func() string {
		h := sha256.New()
		for i, cfg := range configs {
			results, errs := RunMany(context.Background(), rateLadder(cfg, rates))
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("config %d (%+v): %v", i, cfg.Topology, err)
			}
			b, err := json.Marshal(results)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := digest()

	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	parallel := digest()

	if serial != parallel {
		t.Errorf("results depend on scheduling: GOMAXPROCS=1 digest %s, GOMAXPROCS=%d digest %s", serial, n, parallel)
	}
}

// TestIslandsDeterminismAcrossGOMAXPROCS is the same golden test for
// the parallel-islands engine, which adds intra-run concurrency on top
// of RunMany's campaign-level concurrency: the per-cycle worker schedule
// must be unobservable, so the digest must be identical whether the K=4
// islands time-slice one processor (GOMAXPROCS=1) or run truly in
// parallel (GOMAXPROCS>=4) — and identical to the serial engines'
// digest, which the three-way equivalence matrix pins separately.
func TestIslandsDeterminismAcrossGOMAXPROCS(t *testing.T) {
	var configs []Config
	for _, topo := range []Topology{
		HypercubeTopology(3),
		NDTorusTopology(4, 4),
		TreeTopology(5, 2),
	} {
		for _, faults := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Topology = topo
			cfg.WarmupCycles = 50
			cfg.MeasureCycles = 200
			cfg.DrainCycles = 20000
			if faults {
				cfg.Fault.BER = 5e-4
			}
			configs = append(configs, cfg)
		}
	}
	rates := []float64{0.15, 0.3}

	digest := func() string {
		h := sha256.New()
		for i, cfg := range configs {
			results, errs := RunMany(context.Background(), rateLadder(cfg, rates))
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("config %d (%+v): %v", i, cfg.Topology, err)
			}
			b, err := json.Marshal(results)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}

	withEngine(engineSetup{"islands-k4", EngineIslands, 4, nil, false}, func() {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		serial := digest()

		n := runtime.NumCPU()
		if n < 4 {
			n = 4
		}
		runtime.GOMAXPROCS(n)
		parallel := digest()

		if serial != parallel {
			t.Errorf("islands results depend on scheduling: GOMAXPROCS=1 digest %s, GOMAXPROCS=%d digest %s", serial, n, parallel)
		}
	})
}

// TestLoneRunDeterminismAcrossGOMAXPROCS is the same golden test for one
// Build+Simulate under the default engine, outside RunMany: at
// GOMAXPROCS=1 the fabric has one island and steps serially, at
// GOMAXPROCS=N its busy cycles cross the grain and run on N islands in
// parallel. The two Results must hash identically.
func TestLoneRunDeterminismAcrossGOMAXPROCS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = HypercubeTopology(6)
	cfg.InjectionRate = 0.3
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 150
	cfg.DrainCycles = 20000

	digest := func() (string, int) {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		busiest := 0
		prev := grainAt
		defer func() { grainAt = prev }()
		grainAt = func(cy int64) int {
			routers, _ := sys.Topo.Fabric.ActiveSets()
			n := 0
			for _, w := range routers {
				n += bits.OnesCount64(w)
			}
			busiest = max(busiest, n)
			return prev(cy)
		}
		res, err := sys.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b)), busiest
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial, _ := digest()

	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	parallel, busiest := digest()
	if busiest < islandGrain {
		t.Fatalf("the busiest cycle had %d active routers, below the grain %d: no cycle ran in parallel", busiest, islandGrain)
	}
	if serial != parallel {
		t.Errorf("a lone run depends on scheduling: GOMAXPROCS=1 digest %s, GOMAXPROCS=%d digest %s", serial, n, parallel)
	}
}
