package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chipletnet/internal/experiments"
)

// counter tracks how many times each synthetic task ran.
type counter map[string]int

func pointFor(key string) []experiments.Point {
	return []experiments.Point{{Experiment: key, Series: "s", X: 1, AvgLatency: float64(len(key))}}
}

func okTask(c counter, key string) experiments.Task {
	return experiments.Task{Key: key, Figure: "fig", Run: func() ([]experiments.Point, error) {
		c[key]++
		return pointFor(key), nil
	}}
}

func openJournal(t *testing.T, path string) *experiments.Journal {
	t.Helper()
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// collect runs the campaign and returns the emitted points by figure,
// failing the test if a figure is emitted twice.
func collect(t *testing.T, tasks []experiments.Task, j *experiments.Journal) (map[string][]experiments.Point, error) {
	t.Helper()
	byFig := map[string][]experiments.Point{}
	err := runCampaign(tasks, j, t.Logf, func(fig string, pts []experiments.Point) {
		if _, dup := byFig[fig]; dup {
			t.Errorf("figure %s emitted twice", fig)
		}
		byFig[fig] = pts
	})
	return byFig, err
}

// TestCampaignResumeSkipsDone is the acceptance scenario: a campaign
// killed partway (simulated by a journal holding two completed tasks) is
// restarted with the same journal, and only the unfinished task runs —
// the finished ones contribute their journaled points without
// re-executing.
func TestCampaignResumeSkipsDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	c := counter{}
	tasks := []experiments.Task{okTask(c, "t1"), okTask(c, "t2"), okTask(c, "t3")}

	// First campaign: run t1 and t2 only, then "die".
	j := openJournal(t, path)
	if _, err := collect(t, tasks[:2], j); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Restart with the full task list: only t3 may execute.
	byFig, err := collect(t, tasks, openJournal(t, path))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t1", "t2"} {
		if n := c[key]; n != 1 {
			t.Errorf("%s ran %d times; resume must not re-run journaled-complete tasks", key, n)
		}
	}
	if n := c["t3"]; n != 1 {
		t.Errorf("t3 ran %d times, want 1", n)
	}
	if got := len(byFig["fig"]); got != 3 {
		t.Errorf("resumed campaign produced %d points, want 3 (journaled ones included)", got)
	}
}

// TestCampaignPanicIsolation: a panicking task is journaled failed with
// the panic text, the campaign goes on, and the next task runs and its
// points are returned.
func TestCampaignPanicIsolation(t *testing.T) {
	j := openJournal(t, filepath.Join(t.TempDir(), "journal.jsonl"))
	c := counter{}
	boom := experiments.Task{Key: "boom", Figure: "fig", Run: func() ([]experiments.Point, error) {
		c["boom"]++
		panic("always")
	}}
	byFig, err := collect(t, []experiments.Task{boom, okTask(c, "good")}, j)
	if err == nil || !strings.Contains(err.Error(), "boom: panic: always") {
		t.Fatalf("err = %v, want a failure naming task boom and its panic", err)
	}
	if c["boom"] != 1 || c["good"] != 1 {
		t.Errorf("runs = %v, want each task run once", c)
	}
	if got := byFig["fig"]; !reflect.DeepEqual(got, pointFor("good")) {
		t.Errorf("points = %v, want the surviving task's", got)
	}
	if e, ok := j.Lookup("boom"); !ok || e.Status != experiments.StatusFailed || e.Attempts != 1 || !strings.Contains(e.Error, "always") {
		t.Errorf("journal entry = %+v, want failed after 1 attempt with the panic text", e)
	}
}

// TestCampaignFailureResumes: a resumed campaign re-runs a failed task
// (only done ones are skipped), and its attempt count carries across
// the restart through the journal file.
func TestCampaignFailureResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	c := counter{}
	bad := experiments.Task{Key: "bad", Figure: "fig", Run: func() ([]experiments.Point, error) {
		c["bad"]++
		return nil, errors.New("deterministic failure")
	}}
	tasks := []experiments.Task{bad, okTask(c, "good")}
	for run := 1; run <= 2; run++ {
		j := openJournal(t, path)
		byFig, err := collect(t, tasks, j)
		if err == nil || !strings.Contains(err.Error(), "bad: deterministic failure") {
			t.Fatalf("run %d: err = %v, want failure naming task bad", run, err)
		}
		if c["bad"] != run || c["good"] != 1 {
			t.Errorf("run %d: runs = %v, want bad re-run and good skipped", run, c)
		}
		if len(byFig["fig"]) != 1 {
			t.Errorf("run %d: points = %d, want 1", run, len(byFig["fig"]))
		}
		if e, _ := j.Lookup("bad"); e.Status != experiments.StatusFailed || e.Attempts != run {
			t.Errorf("run %d: journal entry = %+v, want failed after %d attempts", run, e, run)
		}
		j.Close()
	}
}

// TestCampaignMemoryJournalMatchesFile: without -journal the campaign
// runs against a memory-only journal, and it must behave exactly like
// a file journal — the same tasks run in the same order, each figure is
// emitted right after its last task with the same points, and the same
// failure comes back.
func TestCampaignMemoryJournalMatchesFile(t *testing.T) {
	run := func(path string) ([]string, error) {
		var events []string
		task := func(key, fig string, fail bool) experiments.Task {
			return experiments.Task{Key: key, Figure: fig, Run: func() ([]experiments.Point, error) {
				events = append(events, "run "+key)
				if fail {
					return nil, errors.New("failed")
				}
				return pointFor(key), nil
			}}
		}
		tasks := []experiments.Task{
			task("a/1", "a", false), task("a/2", "a", false),
			task("b/1", "b", true),
			task("c/1", "c", false), task("c/2", "c", true), task("c/3", "c", false),
		}
		err := runCampaign(tasks, openJournal(t, path), t.Logf, func(fig string, pts []experiments.Point) {
			events = append(events, fmt.Sprintf("emit %s %v", fig, pts))
		})
		return events, err
	}
	mem, memErr := run("")
	file, fileErr := run(filepath.Join(t.TempDir(), "journal.jsonl"))
	want := []string{
		"run a/1", "run a/2", fmt.Sprintf("emit a %v", append(pointFor("a/1"), pointFor("a/2")...)),
		"run b/1",
		"run c/1", "run c/2", "run c/3", fmt.Sprintf("emit c %v", append(pointFor("c/1"), pointFor("c/3")...)),
	}
	if !reflect.DeepEqual(mem, want) {
		t.Errorf("memory journal events:\n got %q\nwant %q", mem, want)
	}
	if !reflect.DeepEqual(file, mem) {
		t.Errorf("file journal events differ from memory journal:\n got %q\nwant %q", file, mem)
	}
	if memErr == nil || fileErr == nil || memErr.Error() != fileErr.Error() {
		t.Errorf("errors differ: memory %v, file %v", memErr, fileErr)
	}
}

// TestCampaignRealTask runs one genuine (tiny) experiment task through
// the campaign loop to keep the synthetic tests honest about the Task
// shape.
func TestCampaignRealTask(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation sweep")
	}
	s := experiments.Scale{
		Name: "test", WarmupCycles: 50, MeasureCycles: 200,
		Rates: []float64{0.05}, MaxChiplets: 16, CollectiveSizes: []int{16},
	}
	tasks, err := experiments.CampaignTasks(s, []string{"faults"})
	if err != nil {
		t.Fatal(err)
	}
	byFig, err := collect(t, tasks, openJournal(t, filepath.Join(t.TempDir(), "journal.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	if len(byFig["faults"]) == 0 {
		t.Error("real task produced no points")
	}
}
