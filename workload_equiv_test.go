package chipletnet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chipletnet/internal/packet"
)

// aiWorkloadSpec is the QoS-rich workload of the equivalence gates: a
// bounded collective phase train over bulk and latency background, so
// recorded traces carry all three classes and real dependencies.
const aiWorkloadSpec = "aiscaleout:allreduce-ring,data=64,compute=50,memrate=0.05,reqrate=0.02"

// recordTrace runs cfg under engine eng with trace recording and
// returns the recording run's Result.
func recordTrace(t *testing.T, eng engineSetup, cfg Config, path string) Result {
	t.Helper()
	var res Result
	withEngine(eng, func() {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = sys.SimulateControlled(RunControl{TracePath: path}); err != nil {
			t.Fatal(err)
		}
	})
	return res
}

// TestWorkloadReplayEngineEquivalence is the end-to-end acceptance gate
// for the workload subsystem: a trace recorded from a hypercube run
// replays to a bit-identical Result — per-class QoS statistics included —
// under every cycle engine (reference, active, parallel islands at K=4),
// and across a mid-replay checkpoint/restore.
func TestWorkloadReplayEngineEquivalence(t *testing.T) {
	cfg := equivConfig(HypercubeTopology(3))
	cfg.Workload = aiWorkloadSpec
	tracePath := filepath.Join(t.TempDir(), "hypercube.trace")

	recRes := recordTrace(t, engineSetup{"reference", EngineReference, 0, nil, false}, cfg, tracePath)
	if len(recRes.Classes) == 0 {
		t.Fatal("recording run produced no per-class statistics")
	}

	replay := cfg
	replay.Workload = "replay:" + tracePath
	ref := engineSetup{"reference", EngineReference, 0, nil, false}
	refRes, err := runEngine(ref, replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.Classes) == 0 {
		t.Fatal("replayed run lost the per-class statistics")
	}
	if refRes.OfferedRate != 0 {
		t.Errorf("replayed run reports offered rate %g, want 0 (no configured load)", refRes.OfferedRate)
	}
	want := gobHash(t, refRes)
	for _, eng := range []engineSetup{
		{"active", EngineActive, 0, nil, false},
		{"active-serial", EngineActive, 0, nil, true},
		{"active-gflip", EngineActive, 0, grainFlip, false},
		{"islands-k4", EngineIslands, 4, nil, false},
	} {
		res, err := runEngine(eng, replay)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if gobHash(t, res) != want {
			t.Errorf("replay under %s differs from the reference engine\nreference: %s\n%9s: %s",
				eng.name, resultJSON(t, refRes), eng.name, resultJSON(t, res))
		}
	}

	// Run-to-run determinism: the same replay twice is hash-identical.
	again, err := runEngine(ref, replay)
	if err != nil {
		t.Fatal(err)
	}
	if gobHash(t, again) != want {
		t.Error("two replays of the same trace differ")
	}

	// Mid-replay checkpoint under one engine, resume under another: the
	// finished Result must equal the uninterrupted replay's bit for bit.
	for _, cross := range []struct {
		name              string
		interrupt, resume engineSetup
	}{
		{"islands-to-active", engineSetup{"islands-k4", EngineIslands, 4, nil, false}, engineSetup{"active", EngineActive, 0, nil, false}},
		{"active-to-reference", engineSetup{"active", EngineActive, 0, nil, false}, ref},
	} {
		t.Run(cross.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "replay.ckpt")
			withEngine(cross.interrupt, func() {
				sys, err := Build(replay)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.SimulateControlled(RunControl{CheckpointPath: ckpt, InterruptAtCycle: 150}); !errors.Is(err, ErrInterrupted) {
					t.Fatalf("got %v, want ErrInterrupted", err)
				}
			})
			withEngine(cross.resume, func() {
				res, err := ResumeRun(ckpt, RunControl{})
				if err != nil {
					t.Fatal(err)
				}
				if gobHash(t, res) != want {
					t.Errorf("checkpointed replay differs from uninterrupted\n got: %s\nwant: %s",
						resultJSON(t, res), resultJSON(t, refRes))
				}
			})
		})
	}
}

// TestWorkloadRecordEngineEquivalence records the same QoS-rich hypercube
// run under every cycle engine — the islands engine at K=1 and with a
// Tracer attached at K=4, where every cycle is a serial active-set cycle —
// and requires byte-identical trace files: the recorder sees injections
// and deliveries in the same order and at the same cycles everywhere.
func TestWorkloadRecordEngineEquivalence(t *testing.T) {
	cfg := equivConfig(HypercubeTopology(3))
	cfg.Workload = aiWorkloadSpec
	dir := t.TempDir()
	var want []byte
	for _, eng := range []engineSetup{
		{"reference", EngineReference, 0, nil, false},
		{"active", EngineActive, 0, nil, false},
		{"islands-k1", EngineIslands, 1, nil, false},
		{"islands-k4", EngineIslands, 4, nil, false},
	} {
		path := filepath.Join(dir, eng.name+".trace")
		recordTrace(t, eng, cfg, path)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("trace recorded under %s differs from the reference engine's (%d vs %d bytes)",
				eng.name, len(got), len(want))
		}
	}
}

// TestWorkloadReplayReproducesRecording pins the strongest determinism
// property: a dependency-free trace recorded from a synthetic run and
// replayed under the recording configuration reproduces the original
// run's Summary exactly — same injection cycles, same deliveries, same
// latency distribution.
func TestWorkloadReplayReproducesRecording(t *testing.T) {
	cfg := equivConfig(HypercubeTopology(3))
	tracePath := filepath.Join(t.TempDir(), "synthetic.trace")
	recRes := recordTrace(t, engineSetup{"reference", EngineReference, 0, nil, false}, cfg, tracePath)

	replay := cfg
	replay.Workload = "replay:" + tracePath
	res, err := runEngine(engineSetup{"active", EngineActive, 0, nil, false}, replay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recRes.Summary, res.Summary) {
		t.Errorf("replay does not reproduce the recorded run\nrecorded: %s\n replay: %s",
			resultJSON(t, recRes), resultJSON(t, res))
	}
	if recRes.OfferedPackets != res.OfferedPackets {
		t.Errorf("offered packets %d recorded, %d replayed", recRes.OfferedPackets, res.OfferedPackets)
	}
}

// TestWorkloadAIScaleOutEngineEquivalence runs the generator itself (not
// a trace) under all three engines: the dependency-driven phase machine
// must be engine-invariant too, since deliveries gate injections.
func TestWorkloadAIScaleOutEngineEquivalence(t *testing.T) {
	cfg := equivConfig(HypercubeTopology(3))
	cfg.Workload = aiWorkloadSpec
	refRes, err := runEngine(engineSetup{"reference", EngineReference, 0, nil, false}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := gobHash(t, refRes)
	for _, eng := range []engineSetup{
		{"active", EngineActive, 0, nil, false},
		{"islands-k4", EngineIslands, 4, nil, false},
	} {
		res, err := runEngine(eng, cfg)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if gobHash(t, res) != want {
			t.Errorf("aiscaleout under %s differs from the reference engine", eng.name)
		}
	}
}

// nopTracer is a router.Tracer that records nothing.
type nopTracer struct{}

func (nopTracer) PacketInjected(*packet.Packet, int, int64)                  {}
func (nopTracer) FlitsMoved(*packet.Packet, int, int, int, int, bool, int64) {}
func (nopTracer) PacketDelivered(*packet.Packet, int64)                      {}

// TestWorkloadRecordControlRejections covers the recording guard rails:
// no recording on resume, and no recording under another tracer.
func TestWorkloadRecordControlRejections(t *testing.T) {
	cfg := equivConfig(HypercubeTopology(3))
	if _, err := ResumeRun(filepath.Join(t.TempDir(), "none.ckpt"), RunControl{TracePath: "x.trace"}); err == nil {
		t.Error("recording on resume accepted")
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Topo.Fabric.Tracer = nopTracer{}
	if _, err := sys.SimulateControlled(RunControl{TracePath: filepath.Join(t.TempDir(), "t.trace")}); err == nil {
		t.Error("recording under another tracer accepted")
	}
}

// TestWorkloadConfigValidation covers the Config-level workload checks.
func TestWorkloadConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = HypercubeTopology(3)
	cfg.Workload = "nonsense"
	if err := cfg.Validate(); err == nil {
		t.Error("bad workload spec accepted")
	}
	cfg.Workload = "aiscaleout:no-such-collective"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown collective kind accepted")
	}
	cfg.Workload = aiWorkloadSpec
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	big := cfg
	big.Workload = "aiscaleout:allreduce-ring,reqflits=100000"
	if err := big.Validate(); err == nil {
		t.Error("request packets larger than the buffers accepted")
	}
}
