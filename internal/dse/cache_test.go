package dse

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chipletnet"
)

func testRecord(key, name string) Record {
	cfg := chipletnet.DefaultConfig()
	return Record{
		Key:             key,
		Name:            name,
		Cfg:             cfg,
		Routing:         RoutingAdaptive,
		Groups:          4,
		GroupWidth:      3,
		Ports:           12,
		PinBits:         768,
		SatRate:         0.3,
		ZeroLoadLatency: 83.19047619047619, // exercise exact float round-trips
		EnergyPJPerBit:  20.034582384,
		Ladder: []LadderPoint{
			{Rate: 0.05, AvgLatency: 84.2, Accepted: 0.05},
			{Rate: 0.5, AvgLatency: 412.8, Accepted: 0.31, Saturated: true},
		},
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecord("a001", "cand-1")
	if err := c.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, ok := c2.Lookup("a001")
	if !ok {
		t.Fatal("record not found after reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if c2.Len() != 1 {
		t.Errorf("Len = %d, want 1", c2.Len())
	}
}

func TestCacheMemoryOnly(t *testing.T) {
	c, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testRecord("0b", "n")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("0b"); !ok {
		t.Error("memory-only store lost its record")
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close on memory-only store: %v", err)
	}
}

func TestCacheRejectsKeylessRecord(t *testing.T) {
	c, _ := OpenStore("")
	if err := c.Put(Record{Name: "keyless"}); err == nil {
		t.Error("Put accepted a record with no key")
	}
}

func TestCacheToleratesTruncatedFinalLine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testRecord("a001", "cand-1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testRecord("a002", "cand-2")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate a crash mid-append: chop the tail of the shard's final
	// line.
	path := filepath.Join(dir, shardFile(10))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore on a truncated shard: %v", err)
	}
	if _, ok := c2.Lookup("a001"); !ok {
		t.Error("intact first record lost after truncation")
	}
	if _, ok := c2.Lookup("a002"); ok {
		t.Error("truncated record should not load")
	}
	// The store stays usable: re-put the lost record and reopen.
	if err := c2.Put(testRecord("a002", "cand-2")); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 2 {
		t.Errorf("after repair Len = %d, want 2", c3.Len())
	}
}

// TestCacheQuarantinesCorruptInterior: corruption in the middle of a
// shard file (flipped bits, partial writes from a lost race, operator
// edits) must not cost the later valid entries. Corrupt lines move to a
// .rej sidecar for inspection, the file is atomically rewritten with
// only the valid lines, and reopening is clean.
func TestCacheQuarantinesCorruptInterior(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a001", "a002", "a003"} {
		if err := c.Put(testRecord(k, "cand-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	// Corruption matrix, spliced between the valid lines of shard a: not
	// JSON at all, JSON with a truncated gob payload, and a valid envelope
	// whose key disagrees with the record inside (bit rot in K).
	path := filepath.Join(dir, shardFile(10))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytesSplitLines(data)
	if len(lines) != 3 {
		t.Fatalf("seeded %d lines, want 3", len(lines))
	}
	mismatched := []byte(`{"K":"a00f`)
	mismatched = append(mismatched, lines[2][len(`{"K":"a003`):]...)
	var doctored []byte
	doctored = append(doctored, lines[0]...)
	doctored = append(doctored, "!!not json!!\n"...)
	doctored = append(doctored, lines[1]...)
	doctored = append(doctored, "{\"K\":\"a00x\",\"G\":\"AAAA\"}\n"...)
	doctored = append(doctored, mismatched...)
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore on a corrupt shard: %v", err)
	}
	if c2.Quarantined() != 3 {
		t.Errorf("Quarantined = %d, want 3", c2.Quarantined())
	}
	if c2.Len() != 2 {
		t.Errorf("Len = %d, want 2 (valid entries before AND after the corruption)", c2.Len())
	}
	for _, k := range []string{"a001", "a002"} {
		if _, ok := c2.Lookup(k); !ok {
			t.Errorf("valid record %s lost to quarantine", k)
		}
	}
	if _, ok := c2.Lookup("a003"); ok {
		t.Error("key-mismatched record should have been quarantined")
	}
	c2.Close()

	// The corrupt lines are preserved for inspection...
	rej, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatalf("no .rej sidecar: %v", err)
	}
	if got := len(bytesSplitLines(rej)); got != 3 {
		t.Errorf(".rej holds %d lines, want 3", got)
	}
	// ...and the repair is idempotent: the rewritten file reloads with
	// nothing further to quarantine.
	c3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Quarantined() != 0 || c3.Len() != 2 {
		t.Errorf("reloaded repaired store: Quarantined=%d Len=%d, want 0/2", c3.Quarantined(), c3.Len())
	}
}

// bytesSplitLines splits complete lines, keeping the trailing newline on
// each.
func bytesSplitLines(data []byte) [][]byte {
	var lines [][]byte
	for len(data) > 0 {
		i := 0
		for i < len(data) && data[i] != '\n' {
			i++
		}
		if i == len(data) {
			break // torn tail, not a line
		}
		lines = append(lines, data[:i+1])
		data = data[i+1:]
	}
	return lines
}

func TestKeyStability(t *testing.T) {
	cfg := chipletnet.DefaultConfig()
	p := DefaultParams()
	k1 := Key(cfg, p)
	k2 := Key(cfg, p)
	if k1 != k2 {
		t.Error("Key is not deterministic")
	}
	if len(k1) != 64 {
		t.Errorf("Key length %d, want 64 hex chars", len(k1))
	}

	// Any change to the resolved config or measurement parameters must
	// move the key.
	variants := map[string]string{}
	add := func(name, key string) {
		if prev, dup := variants[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		variants[key] = name
	}
	add("base", k1)

	c := cfg
	c.Seed = 99
	add("seed", Key(c, p))
	c = cfg
	c.Interleave = "packet"
	add("interleave", Key(c, p))
	c = cfg
	c.OffChipBW = 4
	add("bandwidth", Key(c, p))
	c = cfg
	c.Topology = chipletnet.HypercubeTopology(2)
	add("topology", Key(c, p))

	p2 := p
	p2.Rates = []float64{0.1, 0.2}
	add("rates", Key(cfg, p2))
	p2 = p
	p2.ZeroLoadRate = 0.01
	add("zero-load rate", Key(cfg, p2))
}

// TestKeyGolden pins the exact key bytes for the default configuration.
// The key must be identical across processes and machines — that is
// what lets independently-populated caches merge (dse.Merge) and lets a
// restarted daemon serve a resubmitted campaign from cache. The
// original gob-based key silently violated this: gob wire type IDs
// come from a process-global counter in first-use order, so a daemon
// that happened to write a checkpoint (gob of checkpoint.State) before
// its first DSE job hashed every candidate differently from a daemon
// that ran DSE first. If this test fails after an intentional Config
// or Params change, update the constant — that records the cache
// invalidation explicitly.
func TestKeyGolden(t *testing.T) {
	const want = "db4825fea2acdcb06198cd2870f0254d839a9eeda89c93e288235d54f84a4b46"
	if got := Key(chipletnet.DefaultConfig(), DefaultParams()); got != want {
		t.Errorf("Key(DefaultConfig, DefaultParams) = %s, want %s\n"+
			"(an intentional Config/Params schema change invalidates existing caches — update the constant)", got, want)
	}
}

// TestKeyIgnoresEngineChoice pins the deliberate design decision that
// the cycle-engine selection is not part of the content address: both
// engines are bit-identical, so their records are interchangeable.
func TestKeyIgnoresEngineChoice(t *testing.T) {
	cfg := chipletnet.DefaultConfig()
	p := DefaultParams()
	before := Key(cfg, p)
	prev := chipletnet.UseEngine
	chipletnet.UseEngine = chipletnet.EngineReference
	after := Key(cfg, p)
	chipletnet.UseEngine = chipletnet.EngineIslands
	afterIslands := Key(cfg, p)
	chipletnet.UseEngine = prev
	if before != afterIslands {
		t.Error("engine choice leaked into the cache key")
	}
	if before != after {
		t.Error("engine choice leaked into the cache key")
	}
}
