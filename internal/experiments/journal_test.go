package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Experiment: "fig11-uniform", Series: "hypercube", X: 0.1, AvgLatency: 42}}
	if err := j.Record(JournalEntry{Key: "a", Status: StatusDone, Attempts: 1, Points: pts}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(JournalEntry{Key: "b", Status: StatusFailed, Attempts: 3, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.Done("a")
	if !ok || len(got) != 1 || got[0].AvgLatency != 42 {
		t.Errorf("Done(a) = %v, %v; want recorded point back", got, ok)
	}
	if _, ok := j2.Done("b"); ok {
		t.Error("failed entry counted as done")
	}
	if e, ok := j2.Lookup("b"); !ok || e.Attempts != 3 || e.Error != "boom" {
		t.Errorf("Lookup(b) = %+v, %v", e, ok)
	}
}

// TestJournalLaterEntryOverrides: a retried task appends a second entry
// for its key; the load must keep the later one.
func TestJournalLaterEntryOverrides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(JournalEntry{Key: "a", Status: StatusFailed, Attempts: 1, Error: "flaky"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(JournalEntry{Key: "a", Status: StatusDone, Attempts: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if e, _ := j2.Lookup("a"); e.Status != StatusDone || e.Attempts != 2 {
		t.Errorf("later entry did not override: %+v", e)
	}
}

// TestJournalTruncatedLastLine: a crash mid-append leaves a partial final
// line; the loader must drop it and keep every complete entry.
func TestJournalTruncatedLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(JournalEntry{Key: "a", Status: StatusDone, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Key":"b","Sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("truncated final line must be tolerated: %v", err)
	}
	defer j2.Close()
	if _, ok := j2.Done("a"); !ok {
		t.Error("complete entry lost")
	}
	if _, ok := j2.Lookup("b"); ok {
		t.Error("partial entry surfaced")
	}
}

// TestJournalCorruptMiddle: garbage before the final line is real
// corruption, not a crash signature. It is quarantined to the .rej
// sidecar, the entries around it still load, and the repaired file
// re-opens without quarantining anything.
func TestJournalCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	data := `{"Key":"a","Status":"done"}` + "\ngarbage\n" + `{"Key":"b","Status":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("mid-file corruption must be quarantined, not fatal: %v", err)
	}
	for _, key := range []string{"a", "b"} {
		if _, ok := j.Done(key); !ok {
			t.Errorf("entry %s lost around the corrupt line", key)
		}
	}
	if q := j.Quarantined(); q != 1 {
		t.Errorf("Quarantined() = %d, want 1", q)
	}
	j.Close()
	rej, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if string(rej) != "garbage\n" {
		t.Errorf(".rej sidecar holds %q, want the garbage line", rej)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if q := j2.Quarantined(); q != 0 {
		t.Errorf("re-open quarantined %d lines; the repair must leave a clean file", q)
	}
	if _, ok := j2.Done("b"); !ok {
		t.Error("entry b lost by the repair")
	}
}

func TestCampaignTasksStableKeys(t *testing.T) {
	names := []string{"fig11", "fig12", "fig14", "faults"}
	a, err := CampaignTasks(Quick, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CampaignTasks(Quick, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("enumeration not reproducible: %d vs %d tasks", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Figure != b[i].Figure {
			t.Errorf("task %d differs across enumerations: %q vs %q", i, a[i].Key, b[i].Key)
		}
		if seen[a[i].Key] {
			t.Errorf("duplicate task key %q", a[i].Key)
		}
		seen[a[i].Key] = true
	}
	// Keys are what a journal resumes by, so their format is pinned: one
	// written by an earlier build must still resume.
	for _, key := range []string{"fig11/uniform", "fig12/a-16chiplets-4x4NoC/2D-mesh", "fig14/bw4flits", "faults"} {
		if !seen[key] {
			t.Errorf("no task keyed %q", key)
		}
	}
	if _, err := CampaignTasks(Quick, []string{"fig99"}); err == nil {
		t.Error("unknown experiment not rejected")
	}
}

// TestJournalMemoryOnly: an empty path gives a journal that records and
// answers like a file journal but persists nothing.
func TestJournalMemoryOnly(t *testing.T) {
	j, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Experiment: "fig14", Series: "2D-mesh", X: 0.2, AvgLatency: 7}}
	if err := j.Record(JournalEntry{Key: "a", Status: StatusDone, Attempts: 1, Points: pts}); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Done("a"); !ok || len(got) != 1 || got[0].AvgLatency != 7 {
		t.Errorf("Done(a) = %v, %v; want recorded point back", got, ok)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
