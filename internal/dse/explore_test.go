package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// tinySpace is a fast end-to-end exploration: two flat-mesh layouts of
// four chiplets, one routing mode, short runs.
func tinySpace() (Space, Params) {
	s := Space{
		Chiplets:      4,
		NoCs:          [][2]int{{3, 3}},
		Topologies:    []string{"mesh"},
		Routings:      []string{RoutingMFR},
		Interleavings: []string{"none"},
	}
	p := DefaultParams()
	p.WarmupCycles = 100
	p.MeasureCycles = 400
	p.Rates = []float64{0.1, 0.4}
	return s, p
}

func TestExploreColdThenWarm(t *testing.T) {
	s, p := tinySpace()
	path := filepath.Join(t.TempDir(), "cache")

	cache, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Explore(s, p, cache)
	if err != nil {
		t.Fatal(err)
	}
	cache.Close()
	if cold.Simulated == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold run: Simulated=%d CacheHits=%d, want all simulated", cold.Simulated, cold.CacheHits)
	}
	if len(cold.Records) < 2 {
		t.Fatalf("tiny space produced %d records, want >= 2", len(cold.Records))
	}
	if len(cold.Frontier) == 0 {
		t.Fatal("cold run produced an empty frontier")
	}

	cache2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	warm, err := Explore(s, p, cache2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 {
		t.Errorf("warm run simulated %d candidates, want 0 (100%% cache hits)", warm.Simulated)
	}
	if warm.CacheHits != len(cold.Records) {
		t.Errorf("warm run hit %d cached records, want %d", warm.CacheHits, len(cold.Records))
	}
	if !reflect.DeepEqual(warm.Records, cold.Records) {
		t.Error("warm records differ from cold records")
	}
	if !reflect.DeepEqual(warm.Frontier, cold.Frontier) {
		t.Error("warm frontier differs from cold frontier")
	}

	// The reports must be byte-identical — no volatile content.
	var coldJSON, warmJSON bytes.Buffer
	if err := WriteReportJSON(&coldJSON, cold); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportJSON(&warmJSON, warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON.Bytes(), warmJSON.Bytes()) {
		t.Error("warm JSON report is not byte-identical to the cold one")
	}
	var coldCSV, warmCSV bytes.Buffer
	if err := WriteCSV(&coldCSV, Rows(cold.Records)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&warmCSV, Rows(warm.Records)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
		t.Error("warm CSV report is not byte-identical to the cold one")
	}
}

func TestWriteFiles(t *testing.T) {
	s, p := tinySpace()
	cache, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	o, err := Explore(s, p, cache)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, err := WriteFiles(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 4+len(o.Frontier) {
		t.Fatalf("wrote %d files, want %d: %v", len(written), 4+len(o.Frontier), written)
	}
	for i, base := range []string{"candidates.csv", "frontier.csv", "frontier.json", "frontier-topoviz.sh"} {
		if filepath.Base(written[i]) != base {
			t.Errorf("file %d is %s, want %s", i, filepath.Base(written[i]), base)
		}
	}
	for i := range o.Frontier {
		want := fmt.Sprintf("frontier-%d.config.json", i+1)
		if filepath.Base(written[4+i]) != want {
			t.Errorf("file %d is %s, want %s", 4+i, filepath.Base(written[4+i]), want)
		}
	}
}

func TestCollectValidatesRecordCount(t *testing.T) {
	s, p := tinySpace()
	cache, _ := OpenStore("")
	plan, err := NewPlan(s, p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(plan, nil); err == nil && len(plan.Candidates) > 0 {
		t.Error("Collect accepted a record set of the wrong size")
	}
}

// TestExploreAcrossGOMAXPROCS: Evaluate's chunk size follows GOMAXPROCS
// (one candidate per chunk at 1, both tiny candidates in one chunk at
// 4), yet the cold report and the stored records must not change.
func TestExploreAcrossGOMAXPROCS(t *testing.T) {
	s, p := tinySpace()
	reports := map[int][]byte{}
	stored := map[int][]Record{}
	for _, procs := range []int{1, 4} {
		st, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(procs)
		o, err := Explore(s, p, st)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if o.Simulated < 2 {
			t.Fatalf("tiny space simulated %d candidates, want >= 2 for two chunk sizes", o.Simulated)
		}
		var report bytes.Buffer
		if err := WriteReportJSON(&report, o); err != nil {
			t.Fatal(err)
		}
		reports[procs], stored[procs] = report.Bytes(), st.Records()
		st.Close()
	}
	if !bytes.Equal(reports[1], reports[4]) {
		t.Error("cold JSON report depends on GOMAXPROCS")
	}
	if !reflect.DeepEqual(stored[1], stored[4]) {
		t.Error("stored records depend on GOMAXPROCS")
	}
}

// TestEvaluateStopsBetweenChunks: an error from each stops Evaluate
// before the next chunk starts, and every record each saw is already in
// the store.
func TestEvaluateStopsBetweenChunks(t *testing.T) {
	s, p := tinySpace()
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(s, p, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pending) < 2 {
		t.Fatalf("tiny space has %d pending evaluations, want >= 2", len(plan.Pending))
	}
	stop := errors.New("stop")
	var seen []Record
	prev := runtime.GOMAXPROCS(1) // one candidate per chunk
	recs, err := Evaluate(context.Background(), plan.Pending, st, func(done []Record) error {
		for _, rec := range done {
			if got, ok := st.Lookup(rec.Key); !ok || !reflect.DeepEqual(got, rec) {
				t.Errorf("%s handed to each before it was stored", rec.Name)
			}
		}
		seen = append(seen, done...)
		return stop
	})
	runtime.GOMAXPROCS(prev)
	if !errors.Is(err, stop) {
		t.Fatalf("Evaluate returned %v, want each's error", err)
	}
	if len(seen) != 1 || !reflect.DeepEqual(recs, seen) {
		t.Fatalf("each saw %d records and Evaluate returned %d, want the same single record", len(seen), len(recs))
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d records, want 1: a chunk started after each failed", st.Len())
	}
}
