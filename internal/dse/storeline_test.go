package dse

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chipletnet/internal/stats"
)

// legacyFixture is a store directory written before records were stored
// as plain JSON: every shard line is {"K": key, "G": base64(gob)}, and
// verdicts.jsonl sits beside the shards. It was written by
//
//	chipletdse -chiplets 4 -noc 3x3 -topologies mesh -routing mfr \
//	    -interleave none -rates 0.1,0.4 -warmup 100 -measure 400 \
//	    -workloads ';aiscaleout:allreduce-ring,data=64,compute=50,memrate=0.05,reqrate=0.02' \
//	    -cache internal/dse/testdata/store-v1/
//
// at commit df852e0, the last one to write gob lines; legacySpace is the
// same exploration.
const legacyFixture = "testdata/store-v1"

func legacySpace() (Space, Params) {
	s := Space{
		Chiplets:      4,
		NoCs:          [][2]int{{3, 3}},
		Topologies:    []string{"mesh"},
		Routings:      []string{RoutingMFR},
		Interleavings: []string{"none"},
		Pattern:       "uniform",
		Workloads:     []string{"", "aiscaleout:allreduce-ring,data=64,compute=50,memrate=0.05,reqrate=0.02"},
	}
	p := Params{WarmupCycles: 100, MeasureCycles: 400, Rates: []float64{0.1, 0.4}, Seed: 1}
	return s, p
}

// copyFixture copies the legacy store into a fresh directory, so opening
// it (which may heal or append) never touches testdata.
func copyFixture(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "legacy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(legacyFixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// shardLines returns every line of every shard file in dir.
func shardLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	var lines [][]byte
	for i := 0; i < ShardN; i++ {
		data, err := os.ReadFile(filepath.Join(dir, shardFile(i)))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytesSplitLines(data)...)
	}
	return lines
}

// TestLegacyShardsOpenAndMergeRewrites: a store of legacy gob lines opens
// cleanly, serves the exploration that wrote it with records equal to
// freshly evaluated ones and its stored verdicts, and Merge rewrites it
// into a store of plain-JSON lines that re-opens to the same records.
func TestLegacyShardsOpenAndMergeRewrites(t *testing.T) {
	space, params := legacySpace()
	legacy, err := OpenStore(copyFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if q := legacy.Quarantined(); q != 0 {
		t.Fatalf("legacy store quarantined %d lines, want 0", q)
	}

	plan, err := NewPlan(space, params, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Certifications != 0 || len(plan.Pending) != 0 || len(plan.Hits) != legacy.Len() {
		t.Fatalf("plan on the legacy store: %d certified, %d pending, %d hits of %d records; want 0, 0, all",
			plan.Certifications, len(plan.Pending), len(plan.Hits), legacy.Len())
	}
	mem, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPlan(space, params, mem)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Evaluate(context.Background(), fresh.Pending, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != legacy.Len() {
		t.Fatalf("fresh exploration evaluated %d candidates, legacy store holds %d", len(recs), legacy.Len())
	}
	var classes, nilLadder, ladder bool
	for _, want := range recs {
		got, ok := legacy.Lookup(want.Key)
		if !ok {
			t.Errorf("legacy store lacks %s", want.Name)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("legacy record %s differs from a fresh evaluation:\n got %+v\nwant %+v", want.Name, got, want)
		}
		classes = classes || len(want.Classes) > 0
		nilLadder = nilLadder || want.Ladder == nil
		ladder = ladder || len(want.Ladder) > 0
	}
	if !classes || !nilLadder || !ladder {
		t.Errorf("fixture covers classes=%v nil-ladder=%v ladder=%v, want all three", classes, nilLadder, ladder)
	}

	dir := filepath.Join(t.TempDir(), "rewritten")
	dst, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if added, err := Merge(dst, legacy); err != nil || added != legacy.Len() {
		t.Fatalf("Merge added %d, %v; want %d", added, err, legacy.Len())
	}
	dst.Close()
	lines := shardLines(t, dir)
	if len(lines) != legacy.Len() {
		t.Errorf("rewritten store holds %d lines, want %d", len(lines), legacy.Len())
	}
	for _, line := range lines {
		if !bytes.Contains(line, []byte(`"R":{`)) || bytes.Contains(line, []byte(`"G":`)) {
			t.Errorf("rewritten line is not in the plain-JSON form: %.80s", line)
		}
	}

	back, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Quarantined() != 0 || !reflect.DeepEqual(back.Records(), legacy.Records()) {
		t.Error("re-opened rewritten store differs from the legacy store")
	}
	if added, err := Merge(back, legacy); err != nil || added != 0 {
		t.Errorf("merging the legacy store again: added %d, %v; want 0 and no ErrConflict", added, err)
	}
}

// recordShapes are the Record shapes a store must hold exactly.
func recordShapes() map[string]Record {
	synthetic := testRecord("a001", "synthetic")
	synthetic.P99Latency = 131.5

	workload := testRecord("b002", "workload")
	workload.Cfg.Workload = "aiscaleout:allreduce-ring,data=64"
	workload.Ladder = nil
	workload.SatRate = 0
	workload.P99Latency = 97
	workload.Classes = []stats.ClassSummary{
		{Class: "best-effort", MeasuredPackets: 12, AvgLatency: 40.25, P50Latency: 38, P95Latency: 61, P99Latency: 64, P999Latency: 64, MaxLatency: 64, AcceptedFlitsPerNodeCycle: 0.0123},
		{Class: "memory", MeasuredPackets: 3, AvgLatency: 1.0 / 3, MaxLatency: 2, AcceptedFlitsPerNodeCycle: 5e-324},
	}

	deadlocked := testRecord("c003", "deadlocked")
	deadlocked.Deadlocked = true
	deadlocked.Diag = "blocked VCs:\n  r3.p1.vc0 -> r4 \"held\" <&>\n"
	deadlocked.Cert = "083add5bb442adfc03adefc7fb5b4721a4a490e038f1b66cceb7ab44f0261c1d"

	noP99 := testRecord("d004", "no-p99")
	noP99.P99Latency = 0
	noP99.Cfg.Seed = math.MaxUint64
	noP99.EnergyPJPerBit = math.SmallestNonzeroFloat64
	noP99.ZeroLoadOffChipHops = math.MaxFloat64
	noP99.Ladder[0].AvgLatency = math.Copysign(0, -1)

	return map[string]Record{"synthetic": synthetic, "workload": workload, "deadlocked": deadlocked, "no-p99": noP99}
}

func TestCacheRoundTripRecordShapes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	shapes := recordShapes()
	for _, rec := range shapes {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for name, want := range shapes {
		got, ok := s2.Lookup(want.Key)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s record after reopen (found %v):\n got %+v\nwant %+v", name, ok, got, want)
		}
	}
	if neg := shapes["no-p99"]; !math.Signbit(neg.Ladder[0].AvgLatency) {
		t.Fatal("test record lost its negative zero")
	}
	got, _ := s2.Lookup(shapes["no-p99"].Key)
	if !math.Signbit(got.Ladder[0].AvgLatency) {
		t.Error("negative zero read back as positive zero")
	}
}

// TestCachePutRefusesUnstorableRecord: a record holding NaN or an
// infinity has no JSON form, and JSON would replace a string's bytes that
// are not UTF-8. Put must fail and leave the shard file and the stored
// record as they were.
func TestCachePutRefusesUnstorableRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := testRecord("a001", "good")
	if err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, shardFile(10))
	before, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*Record){
		"NaN sat rate":     func(r *Record) { r.SatRate = math.NaN() },
		"+Inf ladder":      func(r *Record) { r.Ladder[1].AvgLatency = math.Inf(1) },
		"-Inf class":       func(r *Record) { r.Classes = []stats.ClassSummary{{Class: "x", P99Latency: math.Inf(-1)}} },
		"NaN config BER":   func(r *Record) { r.Cfg.Fault.BER = math.NaN() },
		"NaN in a new key": func(r *Record) { r.Key = "a0ff"; r.EnergyPJPerBit = math.NaN() },
		"non-UTF-8 name":   func(r *Record) { r.Name = "cand-\xff" },
		"non-UTF-8 config": func(r *Record) { r.Cfg.Workload = "replay:/traces/\xfe.trace" },
	}
	for name, spoil := range bad {
		rec := testRecord("a001", "spoilt")
		spoil(&rec)
		if err := s.Put(rec); err == nil {
			t.Errorf("%s: Put accepted a record its line cannot hold", name)
		}
	}
	if got, _ := s.Lookup("a001"); !reflect.DeepEqual(got, good) {
		t.Error("a refused Put replaced the stored record")
	}
	if _, ok := s.Lookup("a0ff"); ok {
		t.Error("a refused Put stored its record")
	}
	after, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a refused Put wrote to the shard file")
	}
}

// FuzzStoreLine: for any bytes the line decoder returns an error or a
// record whose line decodes back to the same record, and never panics.
func FuzzStoreLine(f *testing.F) {
	legacy, err := os.ReadFile(filepath.Join(legacyFixture, shardFile(5)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytesSplitLines(legacy)[0])
	for _, rec := range recordShapes() {
		line, err := encodeLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"K":"a1","R":{"Key":"a1","Classes":[],"Ladder":[],"Cfg":{"Topology":{"Dims":[]}}}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := decodeLine(line)
		if err != nil {
			return
		}
		again, err := encodeLine(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		back, err := decodeLine(again)
		if err != nil {
			t.Fatalf("re-encoded line does not decode: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("record changed across re-encoding:\n got %+v\nwant %+v", back, rec)
		}
		if strings.Contains(string(again), `"G":`) {
			t.Fatalf("re-encoded line is in the legacy form: %s", again)
		}
	})
}
