package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"chipletnet/internal/dse"
)

// TestMain doubles the test binary as chipletdse itself: with
// CHIPLETDSE_CHILD set the process runs main() on the provided argv, so
// exit codes and output are asserted on a real process.
func TestMain(m *testing.M) {
	if os.Getenv("CHIPLETDSE_CHILD") == "1" {
		os.Args = append([]string{"chipletdse"}, strings.Fields(os.Getenv("CHIPLETDSE_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes chipletdse with args and returns its stdout, stderr and
// exit code.
func run(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETDSE_CHILD=1", "CHIPLETDSE_ARGS="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("chipletdse %s: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestTinyExploration: a four-chiplet space explores to a JSON report
// with a non-empty frontier and exits 0.
func TestTinyExploration(t *testing.T) {
	out, stderr, code := run(t, "-chiplets 4 -topologies mesh,hypercube -routing mfr -interleave message -rates 0.1,0.3 -warmup 100 -measure 300 -json")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	var rep struct{ Frontier []struct{ Name string } }
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not a report: %v\n%s", err, out)
	}
	if len(rep.Frontier) == 0 {
		t.Errorf("empty frontier:\n%s", out)
	}
}

// TestRejectsBadInput: malformed values and inconsistent flags exit 1
// with a diagnostic before anything is explored.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-noc 4", "bad -noc"},
		{"-rates 0.1,x", "bad -rates"},
		{"-engine warp", "bad engine"},
		{"-merge a.jsonl", "-merge needs -cache"},
		{"extra", "unexpected arguments"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			_, stderr, code := run(t, tc.args)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "chipletdse: ") || !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// TestMergeMigratesSingleFileCache: a single-file cache (the layout
// before the cache became a directory of shards, here rebuilt by
// concatenating a cache directory's shards) is refused as -cache with
// the migration hint, and -merge reads it into a new cache directory
// that serves the whole exploration with reports identical to the
// original run's.
func TestMergeMigratesSingleFileCache(t *testing.T) {
	base := t.TempDir()
	a, b := filepath.Join(base, "A")+"/", filepath.Join(base, "B")+"/"
	old := filepath.Join(base, "old.jsonl")
	explore := "-chiplets 4 -topologies mesh,hypercube -routing mfr -interleave message -rates 0.1,0.3 -warmup 100 -measure 300 -json -cache "

	want, stderr, code := run(t, explore+a)
	if code != 0 || !strings.Contains(stderr, "0 cache hits") {
		t.Fatalf("cold run: exit %d, want 0 with no cache hits; stderr:\n%s", code, stderr)
	}
	shards, err := filepath.Glob(filepath.Join(a, "shard-*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard files in %s: %v", a, err)
	}
	var concat []byte
	for _, sh := range shards {
		data, err := os.ReadFile(sh)
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, data...)
	}
	if err := os.WriteFile(old, concat, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stderr, code = run(t, explore+old)
	if code != 1 || !strings.Contains(stderr, "-merge "+old) {
		t.Fatalf("-cache FILE: exit %d, want 1 with the migration hint; stderr:\n%s", code, stderr)
	}
	if _, stderr, code = run(t, "-cache "+b+" -merge "+old); code != 0 {
		t.Fatalf("-merge FILE: exit %d; stderr:\n%s", code, stderr)
	}
	got, stderr, code := run(t, explore+b)
	if code != 0 || !strings.Contains(stderr, " 0 to simulate") {
		t.Fatalf("run on the migrated cache: exit %d, want 0 with nothing to simulate; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, " 0 pre-flight verdicts from the cache") {
		t.Errorf("-merge copies records only, yet the migrated cache served verdicts; stderr:\n%s", stderr)
	}
	if got != want {
		t.Errorf("report from the migrated cache differs from the original:\n got %s\nwant %s", got, want)
	}
}

// TestSecondRunCertifiesNothing: a second chipletdse process on the same
// -cache directory takes every pre-flight verdict from the cache the
// first one wrote, certifies no routing structure, and prints the same
// report.
func TestSecondRunCertifiesNothing(t *testing.T) {
	explore := "-chiplets 4 -topologies mesh,hypercube -routing mfr,adaptive -interleave message -rates 0.1,0.3 -warmup 100 -measure 300 -json -cache " + t.TempDir() + "/"
	want, stderr, code := run(t, explore)
	if code != 0 || !strings.Contains(stderr, "6 routing structures certified, 0 pre-flight verdicts from the cache") {
		t.Fatalf("cold run: exit %d, want 0 certifying all 6 structures; stderr:\n%s", code, stderr)
	}
	got, stderr, code := run(t, explore)
	if code != 0 || !strings.Contains(stderr, "0 routing structures certified, 6 pre-flight verdicts from the cache") {
		t.Fatalf("warm run: exit %d, want 0 certifying nothing; stderr:\n%s", code, stderr)
	}
	if got != want {
		t.Errorf("warm report differs from the cold one:\n got %s\nwant %s", got, want)
	}
}

// TestMergeRefusesMissingSource: a -merge source that does not exist
// exits 1 naming it, before any store is opened, so neither the
// misspelled source nor the -cache target is created.
func TestMergeRefusesMissingSource(t *testing.T) {
	base := t.TempDir()
	cache, missing := filepath.Join(base, "C")+"/", filepath.Join(base, "typo")+"/"
	_, stderr, code := run(t, "-cache "+cache+" -merge "+missing)
	if code != 1 || !strings.Contains(stderr, "merge source "+missing) {
		t.Fatalf("exit %d, want 1 naming %s; stderr:\n%s", code, missing, stderr)
	}
	for _, dir := range []string{missing, cache} {
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s exists after the refused merge (stat: %v)", dir, err)
		}
	}
}

// TestDeadlockedCandidateExits2: a record that says the runtime watchdog
// fired on a candidate the pre-flight certified makes chipletdse print
// the watchdog's diagnostic and exit 2. The record is seeded into the
// store under the key dse.NewPlan derives for the same space and params
// the command line describes, so the command serves it as a cache hit.
func TestDeadlockedCandidateExits2(t *testing.T) {
	dir := t.TempDir() + "/"
	space := dse.Space{
		Chiplets:      4,
		NoCs:          [][2]int{{4, 4}},
		Topologies:    []string{"mesh"},
		Routings:      []string{"mfr"},
		Interleavings: []string{"message"},
		Pattern:       "uniform",
	}
	params := dse.Params{Rates: []float64{0.1, 0.3}, WarmupCycles: 100, MeasureCycles: 300, Seed: 1}
	store, err := dse.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dse.NewPlan(space, params, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pending) == 0 {
		t.Fatalf("no candidate to seed: %d verified, %d rejected", len(plan.Candidates), len(plan.Rejected))
	}
	e := plan.Pending[0]
	rec, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec.Deadlocked, rec.Diag = true, "seeded watchdog diagnostic"
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	_, stderr, code := run(t, "-chiplets 4 -topologies mesh -routing mfr -interleave message -rates 0.1,0.3 -warmup 100 -measure 300 -cache "+dir)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if want := "DEADLOCK on verified candidate " + e.Candidate.Name + "\nseeded watchdog diagnostic"; !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
}
