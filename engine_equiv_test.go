package chipletnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"chipletnet/internal/rng"
)

// gobHash canonically serializes v and returns its digest. gob rather
// than JSON because Result can legitimately carry NaN (AvgLatency of an
// empty measurement window), which JSON cannot encode.
func gobHash(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// engineSetup is one cell of the engine axis: a cycle engine plus, for
// the islands engine, its island count and, for the default engine, a
// forced grain.
type engineSetup struct {
	name string
	eng  Engine
	k    int
	// grain, when set, replaces the default engine's grain (grainAt);
	// the cell partitions every fabric of two or more chiplets and runs
	// at GOMAXPROCS >= 2 so the fabric has islands.
	grain func(cy int64) int
	// serial keeps the default engine from partitioning any fabric, so
	// every cycle is a plain stepActive cycle on any machine.
	serial bool
}

// Forced grains of the default engine: every cycle of a lone run in
// parallel, none, and alternating every five cycles, so one run mixes
// serial and parallel cycles in both orders.
var (
	grainZero  = func(int64) int { return 0 }
	grainNever = func(int64) int { return math.MaxInt }
	grainFlip  = func(cy int64) int {
		if cy/5%2 == 0 {
			return 0
		}
		return math.MaxInt
	}
)

// equivEngines is the engine axis of the three-way differential matrix:
// the reference oracle, the default active-set engine built with one
// island (the serial stepActive whatever the CPU count) and with its
// grain forced to G = 0 and to a G that flips mid-run, and the
// parallel-islands engine at K ∈ {2, 4, NumCPU} (deduplicated — K is
// clamped to the chiplet count at Build, so every cell is meaningful on
// any topology). The default engine as it runs leaves every fabric of
// the matrix (all below islandsFrom routers) unpartitioned, so there it
// is active-serial, which TestEngineEquivalence checks; G = ∞ and K = 1
// also step every cycle with stepActive. Those three run in the cheaper
// fuzz, checkpoint and workload matrices only.
func equivEngines() []engineSetup {
	setups := []engineSetup{
		{"reference", EngineReference, 0, nil, false},
		{"active-serial", EngineActive, 0, nil, true},
		{"active-g0", EngineActive, 0, grainZero, false},
		{"active-gflip", EngineActive, 0, grainFlip, false},
	}
	seen := map[int]bool{}
	for _, k := range []int{2, 4, runtime.NumCPU()} {
		if k < 2 || seen[k] {
			continue
		}
		seen[k] = true
		setups = append(setups, engineSetup{fmt.Sprintf("islands-k%d", k), EngineIslands, k, nil, false})
	}
	return setups
}

// withEngine installs s as the process-wide engine selection, runs fn,
// and restores the previous selection.
func withEngine(s engineSetup, fn func()) {
	prevE, prevK, prevG, prevFrom := UseEngine, IslandCount, grainAt, islandsFrom
	UseEngine, IslandCount = s.eng, s.k
	defer func() { UseEngine, IslandCount, grainAt, islandsFrom = prevE, prevK, prevG, prevFrom }()
	if s.serial {
		islandsFrom = math.MaxInt
	}
	if s.grain != nil {
		grainAt, islandsFrom = s.grain, 0
		if runtime.GOMAXPROCS(0) < 2 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
	}
	fn()
}

// runEngine runs cfg under the given cycle engine and restores the
// package knobs afterwards.
func runEngine(s engineSetup, cfg Config) (res Result, err error) {
	withEngine(s, func() { res, err = Run(cfg) })
	return res, err
}

// equivConfig is the shared small-but-complete workload shape for the
// equivalence matrix: long enough for credit backpressure, short enough
// that the full matrix stays fast.
func equivConfig(topo Topology) Config {
	cfg := DefaultConfig()
	cfg.Topology = topo
	cfg.InjectionRate = 0.2
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 250
	cfg.DrainCycles = 30000
	return cfg
}

// TestEngineEquivalence is the differential gate for the hot-path
// overhauls: across every topology kind, both routing modes interpreted
// AND compiled, every interleave granularity, and fault schedules up to
// permanent kills, the active-set engine (serial, which is the default
// engine as it runs on these fabrics, and at every forced grain) and
// the parallel-islands engine (at every K of the engine axis), with the
// credit-conservation audit on every cycle of one
// packet-interleaved fault cell per audited topology, must produce a Result —
// statistics, energy, fault log, deadlock report — hash-identical to
// the retained reference stepper's. Any divergence is an engine bug by
// definition. Combinations compiled routing rejects at Build (no
// certified tables) must be rejected identically by every engine.
func TestEngineEquivalence(t *testing.T) {
	engines := equivEngines()
	topos := []struct {
		name    string
		topo    Topology
		modes   []RoutingMode
		grouped bool // interface-group redundancy: kill events legal
		// audit runs the credit audit on one packet-interleaved fault
		// cell. The 256-router ndtorus is left out: its audited cell
		// took 12 s of the matrix's 43 s, 9 times its unaudited time.
		audit bool
	}{
		{"mesh", MeshTopology(2, 2), []RoutingMode{RoutingDuato}, false, true},
		{"hypercube", HypercubeTopology(3), []RoutingMode{RoutingDuato, RoutingSafeUnsafe}, true, true},
		{"ndtorus", NDTorusTopology(4, 4), []RoutingMode{RoutingDuato}, true, false},
		{"dragonfly", DragonflyTopology(4), []RoutingMode{RoutingDuato, RoutingSafeUnsafe}, true, true},
		{"tree", TreeTopology(5, 2), []RoutingMode{RoutingDuato}, true, true},
		{"custom", CustomTopology(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}),
			[]RoutingMode{RoutingSafeUnsafe}, true, true},
	}
	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range tc.modes {
				for _, compiled := range []bool{false, true} {
					for _, il := range []string{"none", "message", "packet"} {
						base := equivConfig(tc.topo)
						base.Routing = mode
						base.CompiledRouting = compiled
						base.Interleave = il

						// Fault schedule: BER everywhere plus a mid-run derating,
						// and on grouped topologies a permanent kill — so the
						// engines are also compared across retransmission, replay
						// and structural degradation. At packet interleaving, the
						// finest, the credit-conservation audit runs after every
						// cycle too (a leaked or double-returned credit panics,
						// and the panic must match): once per audited topology,
						// under its first routing mode interpreted, since
						// compiled tables and the second mode drive the same
						// credit machinery and the audit multiplies a cell's time.
						faulty := base
						faulty.Fault.BER = 5e-4
						faulty.CheckCredits = tc.audit && il == "packet" && mode == tc.modes[0] && !compiled
						if sys, err := Build(base); err == nil {
							if n := sys.Topo.Fabric.Islands(); n != 0 {
								t.Fatalf("the default engine split a %d-router fabric into %d islands; add it to the engine axis",
									len(sys.Topo.Fabric.Routers), n)
							}
							if pairs := sys.Topo.CrossPairs(); len(pairs) > 0 {
								faulty.Fault.Degrade = []FaultDegrade{
									{Cycle: 120, A: pairs[0].A, B: pairs[0].B, BandwidthDiv: 2, LatencyMult: 2},
								}
								if tc.grouped {
									p := pairs[len(pairs)-1]
									faulty.Fault.Kill = []FaultKill{{Cycle: 150, A: p.A, B: p.B}}
								}
							}
						}

						for _, cc := range []struct {
							name string
							cfg  Config
						}{{"no-faults", base}, {"faults", faulty}} {
							routing := string(mode)
							if compiled {
								routing += "-compiled"
							}
							name := fmt.Sprintf("%s/%s/%s", routing, il, cc.name)
							t.Run(name, func(t *testing.T) {
								refRes, refErr := runEngine(engines[0], cc.cfg)
								var want string
								if refErr == nil {
									want = gobHash(t, refRes)
								}
								for _, eng := range engines[1:] {
									res, err := runEngine(eng, cc.cfg)
									if errText(refErr) != errText(err) {
										t.Fatalf("errors differ: reference %q, %s %q",
											errText(refErr), eng.name, errText(err))
									}
									if refErr != nil {
										continue
									}
									if gobHash(t, res) != want {
										t.Errorf("Results differ between engines\nreference: %s\n%9s: %s",
											resultJSON(t, refRes), eng.name, resultJSON(t, res))
									}
								}
							})
						}
					}
				}
			}
		})
	}
}

// TestEngineCheckpointInterchangeable proves snapshots are
// engine-independent: a run interrupted under any engine — reference,
// active, or parallel islands — must write a byte-identical checkpoint,
// and a checkpoint taken under one engine must resume under any other
// (islands to active, active to islands, and both to/from the
// reference) bit-identical to an uninterrupted run.
func TestEngineCheckpointInterchangeable(t *testing.T) {
	cfg := equivConfig(HypercubeTopology(3))
	cfg.Fault.BER = 5e-4

	ref := engineSetup{"reference", EngineReference, 0, nil, false}
	act := engineSetup{"active", EngineActive, 0, nil, false}
	g0 := engineSetup{"active-g0", EngineActive, 0, grainZero, false}
	isl := engineSetup{"islands-k3", EngineIslands, 3, nil, false}

	snapshot := func(s engineSetup) []byte {
		var data []byte
		withEngine(s, func() {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.SimulateControlled(RunControl{CheckpointPath: path, InterruptAtCycle: 150}); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("got %v, want ErrInterrupted", err)
			}
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		})
		return data
	}
	refCkpt := snapshot(ref)
	actCkpt := snapshot(act)
	g0Ckpt := snapshot(g0)
	islCkpt := snapshot(isl)
	if !bytes.Equal(refCkpt, actCkpt) || !bytes.Equal(actCkpt, g0Ckpt) || !bytes.Equal(actCkpt, islCkpt) {
		t.Fatal("checkpoint files differ between engines; the engine choice leaked into the snapshot format")
	}

	refRes, err := runEngine(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, refRes)
	for _, cross := range []struct {
		name   string
		ckpt   []byte
		resume engineSetup
	}{
		{"reference-to-active", refCkpt, act},
		{"active-to-reference", actCkpt, ref},
		{"islands-to-active", islCkpt, act},
		{"active-to-islands", actCkpt, isl},
		{"islands-to-reference", islCkpt, ref},
		{"reference-to-islands", refCkpt, isl},
		{"active-to-active-g0", actCkpt, g0},
		{"active-g0-to-active", g0Ckpt, act},
		{"active-g0-to-islands", g0Ckpt, isl},
	} {
		t.Run(cross.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cross.ckpt")
			if err := os.WriteFile(path, cross.ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			withEngine(cross.resume, func() {
				res, err := ResumeRun(path, RunControl{})
				if err != nil {
					t.Fatal(err)
				}
				if got := resultJSON(t, res); got != want {
					t.Errorf("cross-engine resume differs\n got: %s\nwant: %s", got, want)
				}
			})
		})
	}
}

// FuzzEngineEquivalence extends the differential gate across the random
// configuration space: for any buildable configuration, all three
// engines must agree bit-for-bit — Result and error alike. The islands
// engine runs at a seed-derived K so the corpus explores partition
// sizes, plus K=2 always (the smallest partition with a real cut).
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(20260806))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := randomConfig(rng.New(seed))
		cfg.WarmupCycles = 60
		cfg.MeasureCycles = 240
		cfg.DrainCycles = 20000
		if seed%3 == 0 {
			cfg.Fault.BER = 5e-4
		}
		if _, err := Build(cfg); err != nil {
			t.Skip() // invalid combinations may be rejected, not crash
		}
		refRes, refErr := runEngine(engineSetup{"reference", EngineReference, 0, nil, false}, cfg)
		var want string
		if refErr == nil {
			want = gobHash(t, refRes)
		}
		for _, eng := range []engineSetup{
			{"active", EngineActive, 0, nil, false},
			{"active-serial", EngineActive, 0, nil, true},
			{"active-ginf", EngineActive, 0, grainNever, false},
			{"active-gflip", EngineActive, 0, grainFlip, false},
			{"islands-k2", EngineIslands, 2, nil, false},
			{fmt.Sprintf("islands-k%d", 1+seed%7), EngineIslands, int(1 + seed%7), nil, false},
		} {
			res, err := runEngine(eng, cfg)
			if errText(refErr) != errText(err) {
				t.Fatalf("seed %d: errors differ: reference %q, %s %q",
					seed, errText(refErr), eng.name, errText(err))
			}
			if refErr != nil {
				continue
			}
			if gobHash(t, res) != want {
				t.Errorf("seed %d (%+v): Results differ between engines\nreference: %s\n%9s: %s",
					seed, cfg.Topology, resultJSON(t, refRes), eng.name, resultJSON(t, res))
			}
		}
	})
}
