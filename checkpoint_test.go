package chipletnet

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chipletnet/internal/checkpoint"
	"chipletnet/internal/router"
)

// ckptTestConfig returns a small fast configuration for checkpoint tests:
// 100 warm-up + 500 measured cycles with a drain phase, so an interrupt
// can land in warm-up, measurement, or drain.
func ckptTestConfig(topo Topology) Config {
	cfg := DefaultConfig()
	cfg.Topology = topo
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 500
	cfg.DrainCycles = 30000
	return cfg
}

// errText renders an error for identity comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// resultJSON renders a Result for byte-identity comparison.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// runInterruptedAndResume runs cfg until stopCycle, checkpoints, resumes,
// and returns the resumed run's outcome.
func runInterruptedAndResume(t *testing.T, cfg Config, stopCycle int64) (Result, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	sys, err := Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, err = sys.SimulateControlled(RunControl{CheckpointPath: path, InterruptAtCycle: stopCycle})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupt at cycle %d: got error %v, want ErrInterrupted", stopCycle, err)
	}
	return ResumeRun(path, RunControl{})
}

// TestCheckpointResumeBitIdentical is the tentpole guarantee: for every
// topology kind, with and without fault injection, a run interrupted at a
// checkpoint and resumed finishes with a Result — statistics, fault log,
// energy — byte-identical to the uninterrupted run's.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	topos := []struct {
		name    string
		topo    Topology
		grouped bool // supports kill events (interface-group redundancy)
	}{
		{"mesh", MeshTopology(2, 2), false},
		{"hypercube", HypercubeTopology(3), true},
		{"dragonfly", DragonflyTopology(4), true},
		{"tree", TreeTopology(5, 2), true},
	}
	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			base := ckptTestConfig(tc.topo)

			// Fault schedule: BER everywhere, plus a derating on the first
			// chiplet-to-chiplet channel and (on grouped topologies) a
			// permanent kill — the scheduled events strike after the
			// cycle-300 interrupt point so their replay after resume is
			// exercised, and before the cycle-450 one so the restored
			// post-fault state is too. The flat mesh baseline has no
			// grouped channels to degrade or kill; BER still applies.
			sys, err := Build(base)
			if err != nil {
				t.Fatal(err)
			}
			pairs := sys.Topo.CrossPairs()
			faulty := base
			faulty.Fault.BER = 5e-4
			if len(pairs) > 0 {
				faulty.Fault.Degrade = []FaultDegrade{
					{Cycle: 350, A: pairs[0].A, B: pairs[0].B, BandwidthDiv: 2, LatencyMult: 2},
				}
			}
			if tc.grouped {
				p := pairs[len(pairs)-1]
				faulty.Fault.Kill = []FaultKill{{Cycle: 400, A: p.A, B: p.B}}
			}

			cases := []struct {
				name string
				cfg  Config
			}{
				{"no-faults", base},
				{"faults", faulty},
			}
			for _, cc := range cases {
				t.Run(cc.name, func(t *testing.T) {
					refRes, refErr := Run(cc.cfg)
					ref := resultJSON(t, refRes)
					for _, stop := range []int64{50, 300, 450} {
						res, err := runInterruptedAndResume(t, cc.cfg, stop)
						// Even the error must replay identically (e.g. a
						// typed partition refusal at the kill cycle).
						if errText(err) != errText(refErr) {
							t.Fatalf("stop %d: resumed error %q, uninterrupted error %q", stop, errText(err), errText(refErr))
						}
						if got := resultJSON(t, res); got != ref {
							t.Errorf("stop %d: resumed Result differs from uninterrupted run\n got: %s\nwant: %s", stop, got, ref)
						}
					}
				})
			}
		})
	}
}

// TestCheckpointResumeMidDrain interrupts during the drain phase (after
// injection has stopped) and requires the resumed run to finish
// identically — the drain-phase resume path has its own loop bounds.
func TestCheckpointResumeMidDrain(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	cfg.Fault.BER = 5e-4
	refRes, refErr := Run(cfg)
	if refErr != nil {
		t.Fatalf("uninterrupted run: %v", refErr)
	}
	ref := resultJSON(t, refRes)

	// Cycle 605 is 5 cycles into the drain phase; with off-chip latency 5
	// and packets injected through cycle 600, traffic is still in flight.
	res, err := runInterruptedAndResume(t, cfg, cfg.WarmupCycles+cfg.MeasureCycles+5)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resultJSON(t, res); got != ref {
		t.Errorf("mid-drain resume differs\n got: %s\nwant: %s", got, ref)
	}
}

// TestCheckpointPeriodicDoesNotPerturb: writing periodic checkpoints must
// not change the simulation at all, and resuming from the last periodic
// snapshot must reproduce the same final Result.
func TestCheckpointPeriodicDoesNotPerturb(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	cfg.Fault.BER = 5e-4
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := resultJSON(t, ref)

	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SimulateControlled(RunControl{CheckpointPath: path, CheckpointEvery: 97})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); got != refJSON {
		t.Errorf("periodic checkpointing perturbed the run\n got: %s\nwant: %s", got, refJSON)
	}

	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("reading last periodic checkpoint: %v", err)
	}
	if st.Cycle%97 != 0 {
		t.Errorf("last checkpoint at cycle %d, want a multiple of 97", st.Cycle)
	}
	resumed, err := ResumeRun(path, RunControl{})
	if err != nil {
		t.Fatalf("resume from last periodic checkpoint (cycle %d): %v", st.Cycle, err)
	}
	if got := resultJSON(t, resumed); got != refJSON {
		t.Errorf("resume from periodic checkpoint differs\n got: %s\nwant: %s", got, refJSON)
	}
}

// TestCheckpointTypedErrors: damaged or foreign files must be rejected
// with the matching typed error, never a panic.
func TestCheckpointTypedErrors(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	cfg.MeasureCycles = 100
	path := filepath.Join(t.TempDir(), "good.ckpt")
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SimulateControlled(RunControl{CheckpointPath: path, InterruptAtCycle: 50}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, want error) {
		t.Helper()
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeRun(p, RunControl{})
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}

	check("empty", nil, checkpoint.ErrNotCheckpoint)
	check("foreign", []byte("{\"not\": \"a checkpoint\"}"), checkpoint.ErrNotCheckpoint)

	skewed := append([]byte(nil), good...)
	skewed[8]++ // version field
	check("version-skew", skewed, checkpoint.ErrVersion)

	truncated := good[:len(good)/2]
	check("truncated", truncated, checkpoint.ErrCorrupt)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40 // payload byte
	check("bit-flip", flipped, checkpoint.ErrCorrupt)
}

// TestCheckpointConfigMismatch: a snapshot restored against a system whose
// structure differs (here: snapshot doctored to reference fault state a
// fault-free configuration lacks) fails with ErrMismatch.
func TestCheckpointConfigMismatch(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	cfg.Fault.BER = 5e-4
	path := filepath.Join(t.TempDir(), "faulty.ckpt")
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SimulateControlled(RunControl{CheckpointPath: path, InterruptAtCycle: 200}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Strip fault injection from the embedded config: the snapshot still
	// carries fault-engine and reliability-protocol state the rebuilt
	// system will not have.
	var embedded Config
	if err := json.Unmarshal(st.Config, &embedded); err != nil {
		t.Fatal(err)
	}
	embedded.Fault = FaultConfig{}
	if st.Config, err = json.Marshal(embedded); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeRun(path, RunControl{}); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("got %v, want ErrMismatch", err)
	}
}

// TestCheckpointWorkloadMismatch: a synthetic run's snapshot whose
// embedded configuration is rewritten to an AI-scale-out workload has no
// section for the source the rebuilt system constructs; the layer's plain
// refusal reaches the caller as ErrMismatch.
func TestCheckpointWorkloadMismatch(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	path := filepath.Join(t.TempDir(), "synthetic.ckpt")
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SimulateControlled(RunControl{CheckpointPath: path, InterruptAtCycle: 200}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = aiWorkloadSpec
	if st.Config, err = json.Marshal(cfg); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeRun(path, RunControl{}); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("got %v, want ErrMismatch", err)
	}
}

// TestRunControlDeadline: a closed Deadline aborts the run with ErrTimeout
// and a diagnostic snapshot of the in-flight traffic.
func TestRunControlDeadline(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dl := make(chan struct{})
	close(dl)
	res, err := sys.SimulateControlled(RunControl{Deadline: dl})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if !res.TimedOut {
		t.Error("Result.TimedOut not set")
	}
	if res.DeadlockReport == nil {
		t.Error("no diagnostic snapshot on timeout")
	}
}

// TestCheckpointFixturesResume: checkpoints written by an earlier build
// still decode and resume to the Result of a fresh, uninterrupted run of
// their embedded configuration. Each fixture carries state in the
// sections whose types are the layers' own live types (credits, acks,
// fault log and stats, pending replay releases, scheduled responses), so
// a field rename there that gob can no longer match shows up as an
// empty section or a diverging Result. From the repository root:
//
//	chipletsim -topology hypercube -dims 3 -noc 3x3 -warmup 100 -measure 500 -drain 30000 \
//	    -rate 0.4 -fault-ber 5e-4 -fault-kill 460:12-48 \
//	    -checkpoint testdata/checkpoint-v1-synthetic.ckpt -checkpoint-every 460
//	chipletsim -topology hypercube -dims 3 -noc 3x3 -warmup 100 -measure 500 -drain 30000 \
//	    -workload aiscaleout:allreduce-ring,data=64,compute=50,memrate=0.05,reqrate=0.05 \
//	    -checkpoint testdata/checkpoint-v1-aiscaleout.ckpt -checkpoint-every 444
//	chipletsim -topology hypercube -dims 3 -noc 3x3 -warmup 50 -measure 300 -drain 30000 \
//	    -workload 'aiscaleout:allreduce-ring,data=64,compute=50,memrate=0.05,reqrate=0.05;record:testdata/checkpoint-v1-replay.trace'
//	chipletsim -topology hypercube -dims 3 -noc 3x3 -warmup 50 -measure 300 -drain 30000 \
//	    -offchip-latency 12 -workload replay:testdata/checkpoint-v1-replay.trace \
//	    -checkpoint testdata/checkpoint-v1-replay.ckpt -checkpoint-every 239
//
// The checkpoint cycles are ones where the short-lived sections are
// occupied: the kill's condemned interfaces have not drained, a response
// is scheduled, and the slower replay fabric holds released entries.
func TestCheckpointFixturesResume(t *testing.T) {
	perLink := func(st *checkpoint.State, n func(l *router.LinkState) int) int {
		sum := 0
		for i := range st.Fabric.Links {
			sum += n(&st.Fabric.Links[i])
		}
		return sum
	}
	credits := func(st *checkpoint.State) int {
		return perLink(st, func(l *router.LinkState) int { return len(l.Credits) })
	}
	for _, tc := range []struct {
		file string
		// sections counts the entries of each section the fixture must
		// carry; a section that is absent counts zero.
		sections func(st *checkpoint.State) map[string]int
	}{
		{"checkpoint-v1-synthetic.ckpt", func(st *checkpoint.State) map[string]int {
			m := map[string]int{
				"credits": credits(st),
				"acks":    perLink(st, func(l *router.LinkState) int { return len(l.Acks) }),
				"replay window": perLink(st, func(l *router.LinkState) int {
					if l.Rel == nil {
						return 0
					}
					return len(l.Rel.Replay)
				}),
				"condemned":   len(st.Topo.Condemned),
				"fault log":   0,
				"fault stats": 0,
			}
			if st.Fault != nil {
				m["fault log"] = len(st.Fault.Log)
				m["fault stats"] = st.Fault.Stats.LinksKilled
			}
			return m
		}},
		{"checkpoint-v1-aiscaleout.ckpt", func(st *checkpoint.State) map[string]int {
			m := map[string]int{"credits": credits(st), "responses": 0}
			if ai := st.Gen.AIScaleOut; ai != nil {
				m["responses"] = len(ai.Responses)
			}
			return m
		}},
		{"checkpoint-v1-replay.ckpt", func(st *checkpoint.State) map[string]int {
			m := map[string]int{"credits": credits(st), "pending releases": 0}
			if rp := st.Gen.Replay; rp != nil {
				m["pending releases"] = len(rp.Pending)
			}
			return m
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			st, err := checkpoint.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for name, n := range tc.sections(st) {
				if n == 0 {
					t.Errorf("fixture section %q is empty", name)
				}
			}
			var cfg Config
			if err := json.Unmarshal(st.Config, &cfg); err != nil {
				t.Fatal(err)
			}
			// A field gob no longer matches decodes as zero, which the
			// Result may not show; this build's own snapshot at the same
			// cycle does.
			fresh := filepath.Join(t.TempDir(), "fresh.ckpt")
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.SimulateControlled(RunControl{CheckpointPath: fresh, InterruptAtCycle: st.Cycle}); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupt at cycle %d: got %v, want ErrInterrupted", st.Cycle, err)
			}
			if own, err := checkpoint.ReadFile(fresh); err != nil || !reflect.DeepEqual(st, own) {
				t.Errorf("fixture decodes to a different State than this build writes at cycle %d (%v)", st.Cycle, err)
			}
			want, wantErr := Run(cfg)
			got, err := ResumeRun(path, RunControl{})
			if errText(err) != errText(wantErr) {
				t.Fatalf("resumed error %q, fresh run error %q", errText(err), errText(wantErr))
			}
			if gobHash(t, got) != gobHash(t, want) {
				t.Errorf("resumed Result differs from the fresh run\n got: %s\nwant: %s",
					resultJSON(t, got), resultJSON(t, want))
			}
		})
	}
}
