package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"chipletnet/internal/analysis"
)

// lintSource runs every registered analyzer over one source file placed in
// the given package directory and returns the findings.
func lintSource(t *testing.T, dir, name, src string) []analysis.Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []analysis.Finding
	for _, a := range []*analysis.Analyzer{rngsourceAnalyzer, wallclockAnalyzer, goroutineAnalyzer, mapiterAnalyzer, retrysleepAnalyzer} {
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    []*ast.File{file},
			Dir:      dir,
		}
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, analysis.Finding{Pos: fset.Position(d.Pos), Analyzer: pass.Analyzer.Name, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func assertFinding(t *testing.T, fs []analysis.Finding, substr string) {
	t.Helper()
	for _, f := range fs {
		if strings.Contains(f.Message, substr) {
			return
		}
	}
	t.Errorf("no finding containing %q in %v", substr, fs)
}

func TestMathRandForbiddenOutsideRNG(t *testing.T) {
	src := `package x
import "math/rand"
var _ = rand.Int`
	assertFinding(t, lintSource(t, "internal/traffic", "gen.go", src), "math/rand")
	// The rule covers test files too: a test seeding its own rand.Rand
	// would not reproduce across Go releases.
	assertFinding(t, lintSource(t, "internal/traffic", "gen_test.go", src), "math/rand")
	if fs := lintSource(t, "internal/rng", "rng.go", src); len(fs) != 0 {
		t.Errorf("internal/rng flagged: %v", fs)
	}
}

func TestWallClockForbiddenInSimulator(t *testing.T) {
	src := `package x
import "time"
func f() time.Time { return time.Now() }`
	assertFinding(t, lintSource(t, "internal/router", "r.go", src), "wall-clock")
	if fs := lintSource(t, "cmd/chipletfig", "main.go", src); len(fs) != 0 {
		t.Errorf("command package flagged: %v", fs)
	}
	if fs := lintSource(t, "internal/router", "r_test.go", src); len(fs) != 0 {
		t.Errorf("test file flagged: %v", fs)
	}
}

func TestTimerConstructionForbiddenInSimulator(t *testing.T) {
	src := `package x
import "time"
func f() <-chan time.Time { return time.After(time.Second) }`
	assertFinding(t, lintSource(t, "internal/router", "r.go", src), "timer construction")
	if fs := lintSource(t, "cmd/chipletsim", "main.go", src); len(fs) != 0 {
		t.Errorf("command package flagged: %v", fs)
	}

	src = `package x
import "time"
var tk = time.NewTicker(time.Second)`
	assertFinding(t, lintSource(t, "internal/fault", "f.go", src), "time.NewTicker")
}

func TestGoroutineForbiddenInInternal(t *testing.T) {
	src := `package x
func f() { go func() {}() }`
	assertFinding(t, lintSource(t, "internal/router", "r.go", src), "goroutine")
	if fs := lintSource(t, ".", "run.go", src); len(fs) != 0 {
		t.Errorf("module root flagged (sweep parallelism is allowed): %v", fs)
	}
}

func TestIslandsEngineExemptFromGoroutineRule(t *testing.T) {
	// The parallel-islands engine is the sanctioned intra-run
	// concurrency of the cycle engine: each fabric's persistent island
	// workers, started once and stopped by Close or collection. Their
	// schedule-independence is proven by the three-way equivalence
	// matrix under -race, so internal/router/islands.go — and only that
	// file in the package — may spawn goroutines.
	src := `package router
func f() { go func() {}() }`
	if fs := lintSource(t, "internal/router", "islands.go", src); len(fs) != 0 {
		t.Errorf("islands engine flagged (its concurrency is sanctioned): %v", fs)
	}
	assertFinding(t, lintSource(t, "internal/router", "fabric.go", src), "goroutine")
	assertFinding(t, lintSource(t, "internal/fault", "islands.go", src), "goroutine")
}

func TestCertifierBlocksExemptFromGoroutineRule(t *testing.T) {
	// The certifier's pass-1 blocks are the other sanctioned intra-run
	// concurrency: blocks merge in round order, so the report cannot
	// depend on how many run, which TestCertifyIndependentOfBlocks checks
	// under -race. internal/verify/blocks.go — and only that file — may
	// spawn goroutines.
	src := `package verify
func f() { go func() {}() }`
	if fs := lintSource(t, "internal/verify", "blocks.go", src); len(fs) != 0 {
		t.Errorf("certifier blocks flagged (their concurrency is sanctioned): %v", fs)
	}
	for _, file := range []string{"verify.go", "report.go", "certificate.go", "xblocks.go"} {
		assertFinding(t, lintSource(t, "internal/verify", file, src), "goroutine")
	}
	assertFinding(t, lintSource(t, "internal/router", "blocks.go", src), "goroutine")
	assertFinding(t, lintSource(t, "internal/verify", "islands.go", src), "goroutine")
}

func TestMapOrderDependentEffects(t *testing.T) {
	// The original internal/topology/custom.go defect: side-effecting
	// method calls ordered by map iteration.
	src := `package x
func f(s *sys) {
	seen := map[int]bool{}
	for e := range seen {
		s.addCrossPair(e)
	}
}`
	assertFinding(t, lintSource(t, "internal/topology", "c.go", src), "side effects ordered by map iteration")

	src = `package x
func f() (out []int) {
	m := make(map[int]int)
	for k := range m {
		out = append(out, k)
	}
	return out
}`
	assertFinding(t, lintSource(t, "internal/stats", "s.go", src), "appends to")

	src = `package x
func f() (last int) {
	m := make(map[int]int)
	for _, v := range m {
		last = v
	}
	return last
}`
	assertFinding(t, lintSource(t, "internal/stats", "s.go", src), "last-writer-wins")

	// Maps that arrive as function parameters are just as order-unstable
	// as locally made ones.
	src = `package x
func f(m map[int]int) (out []int) {
	for k := range m {
		out = append(out, k)
	}
	return out
}`
	assertFinding(t, lintSource(t, "internal/stats", "s.go", src), "appends to")
}

func TestCollectThenSortAccepted(t *testing.T) {
	src := `package x
import "sort"
func f() []int {
	m := make(map[int]int)
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}`
	if fs := lintSource(t, "internal/stats", "s.go", src); len(fs) != 0 {
		t.Errorf("collect-then-sort idiom flagged: %v", fs)
	}
}

func TestCommutativeAggregationAccepted(t *testing.T) {
	src := `package x
func f() int {
	m := make(map[int]int)
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}`
	if fs := lintSource(t, "internal/stats", "s.go", src); len(fs) != 0 {
		t.Errorf("commutative aggregation flagged: %v", fs)
	}
}

func TestFaultPackageIsSimulatorScope(t *testing.T) {
	// The fault-injection engine must live under the determinism rules:
	// wall-clock reads or stray math/rand there would break reproducible
	// fault schedules.
	for _, dir := range []string{"internal/fault", "internal/router", "."} {
		if !simulatorScope(dir) {
			t.Errorf("simulatorScope(%q) = false, want true", dir)
		}
	}
	for _, dir := range []string{"cmd/chipletsim", "examples/faulttolerance"} {
		if simulatorScope(dir) {
			t.Errorf("simulatorScope(%q) = true, want false", dir)
		}
	}
	src := `package fault
import "time"
func stamp() time.Time { return time.Now() }`
	assertFinding(t, lintSource(t, "internal/fault", "fault.go", src), "time")
}

func TestServicePackageExemptFromSimulatorScope(t *testing.T) {
	// The campaign daemon's process layer owns goroutines, timers and
	// wall-clock deadlines by design; all simulation it schedules still
	// flows through the module root.
	for _, dir := range []string{"internal/service", "internal/service/backoff"} {
		if simulatorScope(dir) {
			t.Errorf("simulatorScope(%q) = true, want false (process layer)", dir)
		}
	}
	src := `package service
import "time"
func f() { go func() { _ = time.Now(); t := time.NewTimer(time.Second); t.Stop() }() }`
	if fs := lintSource(t, "internal/service", "service.go", src); len(fs) != 0 {
		t.Errorf("internal/service flagged by simulator-scope analyzers: %v", fs)
	}
	// The exemption does not extend to the randomness funnel.
	src = `package service
import "math/rand"
var _ = rand.Int`
	assertFinding(t, lintSource(t, "internal/service", "service.go", src), "math/rand")
}

func TestBareSleepInLoopFlagged(t *testing.T) {
	// The cmd/chipletfig campaign supervisor's original retry shape: a
	// hand-computed backoff slept with a bare time.Sleep inside the
	// attempt loop.
	src := `package x
import "time"
func retry() {
	for try := 0; try < 3; try++ {
		if work() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}
func work() bool { return false }`
	assertFinding(t, lintSource(t, "cmd/chipletfig", "campaign.go", src), "internal/service/backoff")

	// range loops are retry loops too, and nesting does not hide the call.
	src = `package x
import "time"
func poll(jobs []int) {
	for range jobs {
		if true {
			time.Sleep(time.Second)
		}
	}
}`
	assertFinding(t, lintSource(t, ".", "run.go", src), "internal/service/backoff")
}

func TestSleepOutsideLoopAccepted(t *testing.T) {
	src := `package x
import "time"
func settle() { time.Sleep(time.Millisecond) }`
	if fs := lintSource(t, "cmd/chipletfig", "campaign.go", src); len(fs) != 0 {
		t.Errorf("straight-line sleep flagged: %v", fs)
	}
	// The backoff package itself implements the pacing and is exempt.
	src = `package backoff
import "time"
func spin() {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
	}
}`
	if fs := lintSource(t, "internal/service/backoff", "backoff.go", src); len(fs) != 0 {
		t.Errorf("backoff package flagged: %v", fs)
	}
	// Tests may poll freely.
	src = `package x
import "time"
func wait() {
	for {
		time.Sleep(time.Millisecond)
	}
}`
	if fs := lintSource(t, "cmd/chipletd", "main_test.go", src); len(fs) != 0 {
		t.Errorf("test file flagged: %v", fs)
	}
}
