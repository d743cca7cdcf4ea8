package chipletnet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"chipletnet/internal/stats"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = NDMeshTopology(4, 4, 4)
	cfg.Pattern = "bit-reverse"
	cfg.InjectionRate = 0.42
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pattern != "bit-reverse" || got.InjectionRate != 0.42 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.Topology.Kind != "ndmesh" || len(got.Topology.Dims) != 3 {
		t.Errorf("topology lost: %+v", got.Topology)
	}
}

func TestLoadConfigDefaultsAbsentFields(t *testing.T) {
	got, err := LoadConfig(strings.NewReader(`{"InjectionRate": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if got.InjectionRate != 0.5 {
		t.Errorf("explicit field lost")
	}
	if got.PacketFlits != def.PacketFlits || got.VCs != def.VCs {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestLoadConfigRejects(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"NoSuchKnob": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"InjectionRate": -3}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{bad json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestSingleChipletSystem: a one-chiplet "system" (dims [1]) reduces to a
// plain on-chip 2D-mesh NoC with MFR/NFR routing — the booksim-style
// degenerate case must work.
func TestSingleChipletSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = NDMeshTopology(1)
	cfg.ChipletW, cfg.ChipletH = 6, 6
	cfg.InjectionRate = 0.3
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.MeasuredPackets == 0 {
		t.Fatalf("single-chiplet run failed: %+v", res.Summary)
	}
	if res.AvgOffChipHops != 0 {
		t.Errorf("single chiplet reported %f off-chip hops", res.AvgOffChipHops)
	}
}

// TestResultJSONZeroesNonFinite: NaN and infinite floats encode as 0 at
// any depth, and encoding leaves the caller's Result untouched.
func TestResultJSONZeroesNonFinite(t *testing.T) {
	var r Result
	r.AvgLatency = math.NaN()
	r.P99Latency = math.Inf(1)
	r.Classes = []stats.ClassSummary{{AvgLatency: math.NaN()}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.AvgLatency != 0 || got.P99Latency != 0 || got.Classes[0].AvgLatency != 0 {
		t.Errorf("decoded latencies %v %v %v, want 0", got.AvgLatency, got.P99Latency, got.Classes[0].AvgLatency)
	}
	if !math.IsNaN(r.AvgLatency) || !math.IsNaN(r.Classes[0].AvgLatency) {
		t.Error("MarshalJSON wrote through to the caller's Result")
	}
}
