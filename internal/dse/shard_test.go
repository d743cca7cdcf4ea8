package dse

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestShardIndex(t *testing.T) {
	cases := map[string]int{
		"0abc": 0, "9ff": 9, "a00": 10, "f123": 15,
	}
	for key, want := range cases {
		got, err := ShardIndex(key)
		if err != nil || got != want {
			t.Errorf("ShardIndex(%q) = %d, %v; want %d", key, got, err, want)
		}
	}
	for _, bad := range []string{"", "G123", "zzz", "-1"} {
		if _, err := ShardIndex(bad); err == nil {
			t.Errorf("ShardIndex(%q) accepted a non-hex key", bad)
		}
	}
}

func TestShardedCacheRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One record per shard, so every file is exercised.
	for i := 0; i < ShardN; i++ {
		key := fmt.Sprintf("%x%063d", i, i)
		if err := s.Put(testRecord(key, fmt.Sprintf("cand-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != ShardN {
		t.Errorf("Len = %d, want %d", s.Len(), ShardN)
	}
	s.Close()

	for i := 0; i < ShardN; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardFile(i))); err != nil {
			t.Errorf("shard file %d missing: %v", i, err)
		}
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < ShardN; i++ {
		key := fmt.Sprintf("%x%063d", i, i)
		rec, ok := s2.Lookup(key)
		if !ok || rec.Name != fmt.Sprintf("cand-%d", i) {
			t.Errorf("record %d lost across reopen (ok=%v)", i, ok)
		}
	}

	// Records come back in ascending key order — the determinism merge
	// and the byte-identical reports depend on it.
	recs := s2.Records()
	if len(recs) != ShardN {
		t.Fatalf("Records returned %d entries, want %d", len(recs), ShardN)
	}
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key }) {
		t.Error("Records not in ascending key order")
	}

	if err := s2.Put(testRecord("not-hex", "bad")); err == nil {
		t.Error("Put accepted a non-hex key")
	}
}

func TestShardedCacheSelfHeals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("aa01", "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("aa02", "b")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt shard a between the two records: a garbage line, a
	// plain-JSON line whose record does not decode, and one whose key is
	// not hex.
	shard := filepath.Join(dir, shardFile(10))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytesSplitLines(data)
	doctored := append([]byte(nil), lines[0]...)
	doctored = append(doctored, "garbage\n"...)
	doctored = append(doctored, `{"K":"aa03","R":{"Key":"aa03","SatRate":"fast"}}`+"\n"...)
	doctored = append(doctored, `{"K":"xa04","R":{"Key":"xa04","Name":"c"}}`+"\n"...)
	doctored = append(doctored, lines[1]...)
	if err := os.WriteFile(shard, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Quarantined() != 3 {
		t.Errorf("Quarantined = %d, want 3", s2.Quarantined())
	}
	if s2.Len() != 2 {
		t.Errorf("Len = %d, want both records to survive", s2.Len())
	}
	rej, err := os.ReadFile(shard + ".rej")
	if err != nil {
		t.Fatalf("no .rej sidecar for the healed shard: %v", err)
	}
	if got := len(bytesSplitLines(rej)); got != 3 {
		t.Errorf(".rej holds %d lines, want 3", got)
	}
}

func TestMergeDeduplicatesAndDetectsConflicts(t *testing.T) {
	a, _ := OpenStore("")
	b, _ := OpenStore("")
	dst, _ := OpenStore("")
	a.Put(testRecord("a1", "one"))
	a.Put(testRecord("b2", "two"))
	b.Put(testRecord("b2", "two")) // identical duplicate: fine
	b.Put(testRecord("c3", "three"))

	added, err := Merge(dst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || dst.Len() != 3 {
		t.Errorf("Merge added %d (Len %d), want 3 distinct records", added, dst.Len())
	}

	// A content conflict on a shared key aborts: two machines that
	// produced different records for one content address cannot both be
	// right.
	lying, _ := OpenStore("")
	conflicting := testRecord("c3", "three")
	conflicting.SatRate = 0.99
	lying.Put(conflicting)
	if _, err := Merge(dst, lying); err == nil {
		t.Error("Merge accepted a content conflict")
	}
}

// TestMergedShardsReproduceSingleMachineReport is the distribution
// acceptance criterion: two machines each evaluate half the design
// space into their own stores; merging the halves and re-running
// the full exploration simulates nothing and writes a frontier report
// byte-identical to a cold single-machine run.
func TestMergedShardsReproduceSingleMachineReport(t *testing.T) {
	space, params := tinySpace()
	base := t.TempDir()

	// Reference: one machine, one cold run.
	solo, err := OpenStore(filepath.Join(base, "solo"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Explore(space, params, solo)
	if err != nil {
		t.Fatal(err)
	}
	solo.Close()
	if ref.Simulated < 2 {
		t.Fatalf("tiny space simulated %d candidates, want >= 2 to split", ref.Simulated)
	}
	var refReport bytes.Buffer
	if err := WriteReportJSON(&refReport, ref); err != nil {
		t.Fatal(err)
	}

	// Two machines: split the pending evaluations between independent
	// stores.
	hostA, err := OpenStore(filepath.Join(base, "hostA"))
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := OpenStore(filepath.Join(base, "hostB"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(space, params, hostA)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range plan.Pending {
		rec, err := ev.Run()
		if err != nil {
			t.Fatal(err)
		}
		dst := hostA
		if i%2 == 1 {
			dst = hostB
		}
		if err := dst.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	hostA.Close()
	hostB.Close()

	// Merge both halves into a fresh store.
	merged, err := OpenStore(filepath.Join(base, "merged"))
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	srcA, err := OpenStore(filepath.Join(base, "hostA"))
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := OpenStore(filepath.Join(base, "hostB"))
	if err != nil {
		t.Fatal(err)
	}
	added, err := Merge(merged, srcA, srcB)
	srcA.Close()
	srcB.Close()
	if err != nil {
		t.Fatal(err)
	}
	if added != ref.Simulated {
		t.Errorf("merge united %d records, want %d", added, ref.Simulated)
	}

	// The merged union serves the whole exploration from cache, and the
	// report bytes match the single-machine run exactly.
	out, err := Explore(space, params, merged)
	if err != nil {
		t.Fatal(err)
	}
	if out.Simulated != 0 {
		t.Errorf("exploration over the merged cache simulated %d candidates, want 0", out.Simulated)
	}
	if out.CacheHits != ref.Simulated {
		t.Errorf("CacheHits = %d, want %d", out.CacheHits, ref.Simulated)
	}
	var mergedReport bytes.Buffer
	if err := WriteReportJSON(&mergedReport, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedReport.Bytes(), refReport.Bytes()) {
		t.Error("merged-cache report is not byte-identical to the single-machine report")
	}
	if !reflect.DeepEqual(out.Frontier, ref.Frontier) {
		t.Error("merged-cache frontier differs from the single-machine frontier")
	}
}

// TestOpenStoreShapes: every non-empty path is a store directory, with
// or without a trailing separator; "" is memory-only; a regular file (a
// single-file cache from before the store was sharded) is refused with
// ErrSingleFile and the migration command.
func TestOpenStoreShapes(t *testing.T) {
	base := t.TempDir()

	mem, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(testRecord("0a", "n")); err != nil {
		t.Fatal(err)
	}
	mem.Close()
	if entries, _ := os.ReadDir(base); len(entries) != 0 {
		t.Errorf("memory-only store wrote %d files", len(entries))
	}

	for _, path := range []string{filepath.Join(base, "plain"), filepath.Join(base, "slashed") + string(os.PathSeparator)} {
		st, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(testRecord("0a", "n")); err != nil {
			t.Fatal(err)
		}
		st.Close()
		if _, err := os.Stat(filepath.Join(path, shardFile(0))); err != nil {
			t.Errorf("OpenStore(%q) wrote no shard file: %v", path, err)
		}
	}

	file := filepath.Join(base, "cache.jsonl")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{file, file + string(os.PathSeparator)} {
		_, err := OpenStore(path)
		if !errors.Is(err, ErrSingleFile) {
			t.Fatalf("OpenStore(%q) = %v, want ErrSingleFile", path, err)
		}
		if !strings.Contains(err.Error(), "chipletdse -cache DIR/ -merge") {
			t.Errorf("ErrSingleFile names no migration command: %v", err)
		}
	}
}
