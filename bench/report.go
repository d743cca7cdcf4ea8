package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one named metric. BENCHMARK.json repeats the same names,
// units, directions and bounds (a test keeps the two in step); floorS is
// the benchmark's own absolute floor under which a change in a small
// timing is not a verdict.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	floorS float64
}

// endToEnd are what a user of the system waits on, all in host time.
// Every workload reports all four: where a workload has no separate
// stepping time or per-job wait, the whole op stands in (README.md gives
// each workload's definition).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, floorS: 0.002},
	{Name: "router_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.25},
	{Name: "job_latency_s", Unit: "s", Better: "lower", Bound: 0.25, floorS: 0.002},
}

// perLayer are the traced pass's numbers; none is gated. A "_s" metric
// is the layer's self time summed over its calls in one op unless
// README.md says otherwise; a workload that never enters a layer
// reports 0 for it.
var perLayer = []metricDef{
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "routing.new_s", Unit: "s", Better: "lower"},
	{Name: "routing.compile_s", Unit: "s", Better: "lower"},
	{Name: "verify.certify_s", Unit: "s", Better: "lower"},
	{Name: "traffic.new_s", Unit: "s", Better: "lower"},
	{Name: "traffic.tick_s", Unit: "s", Better: "lower"},
	{Name: "router.step_s", Unit: "s", Better: "lower"},
	{Name: "router.step_ns_per_router_cycle", Unit: "ns", Better: "lower"},
	{Name: "stats.deliver_s", Unit: "s", Better: "lower"},
	{Name: "stats.summarize_s", Unit: "s", Better: "lower"},
	{Name: "router.step_s.reference", Unit: "s", Better: "lower"},
	{Name: "router.step_s.active", Unit: "s", Better: "lower"},
	{Name: "router.step_s.islands-2", Unit: "s", Better: "lower"},
	{Name: "router.step_s.islands-max", Unit: "s", Better: "lower"},
	{Name: "router.step_interpreted_s", Unit: "s", Better: "lower"},
	{Name: "dse.enumerate_s", Unit: "s", Better: "lower"},
	{Name: "dse.plan_s", Unit: "s", Better: "lower"},
	{Name: "dse.eval_s", Unit: "s", Better: "lower"},
	{Name: "dse.collect_s", Unit: "s", Better: "lower"},
	{Name: "dse.cache_open_s", Unit: "s", Better: "lower"},
	{Name: "dse.cache_put_s", Unit: "s", Better: "lower"},
	{Name: "dse.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "dse.cache_hits", Unit: "count", Better: "higher"},
	{Name: "dse.cache_lookups", Unit: "count", Better: "lower"},
	{Name: "service.open_s", Unit: "s", Better: "lower"},
	{Name: "service.submit_s", Unit: "s", Better: "lower"},
	{Name: "service.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "service.overhead_s", Unit: "s", Better: "lower"},
	{Name: "service.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "service.job_latency_p95_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.write_s", Unit: "s", Better: "lower"},
	{Name: "op.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "op.allocs", Unit: "count", Better: "lower"},
	{Name: "unattributed_share", Unit: "%", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

const unvalidatedNote = "Host-time benchmark of an unvalidated model: the repository holds no hardware reference results, so simulated statistics are only checked against themselves and no error figure is given."

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the driver judges spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// tail returns the highest percentile with at least ten samples beyond
// it, or ok=false when even p75 has fewer.
func tail(v []float64) (p, value float64, ok bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		beyond := int(float64(len(s)) * (100 - p) / 100)
		if beyond >= 10 {
			return p, s[len(s)-1-beyond], true
		}
	}
	return 0, 0, false
}

// metricReport is one end-to-end metric on one workload: one sample per
// timed op.
type metricReport struct {
	Unit   string
	Better string
	Bound  float64
	N      int
	// Best is the headline value, the one the bounds apply to: the
	// lowest sample (highest for a throughput). The workloads are
	// deterministic and the reference machine's noise is one-sided —
	// its pure-CPU calibration loop flips between two speeds 28% apart
	// for seconds at a time — so the centre of the samples moves with
	// how much of a run was contended while the floor does not.
	Best   float64
	Median float64
	Q1, Q3 float64
	// TailP/Tail are the highest percentile with ten samples beyond it
	// (job latencies only; 0 when there are too few jobs for any).
	TailP, Tail float64 `json:",omitempty"`
	Samples     []float64
}

func summarize(def metricDef, samples []float64) metricReport {
	q1, q2, q3 := quartiles(samples)
	m := metricReport{Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		N: len(samples), Median: q2, Q1: q1, Q3: q3, Samples: samples}
	for i, v := range samples {
		if i == 0 || (v < m.Best) == (def.Better == "lower") {
			m.Best = v
		}
	}
	return m
}

// spread is the interquartile range as a share of the median.
func (m metricReport) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

type workloadReport struct {
	Name      string
	Why       string
	Ops       int
	FailedOps int
	Errors    []string `json:",omitempty"`
	Digest    string
	// Golden is "ok", "mismatch", or "unchecked" (a seed or size with no
	// committed digest: only self-consistency was checked).
	Golden  string
	Metrics map[string]metricReport
	// The traced pass: per-layer metric values by name, the span totals
	// behind them, and what tracing cost.
	TracedWallS float64                 `json:",omitempty"`
	Layers      map[string]float64      `json:",omitempty"`
	Spans       map[string]*layerTotals `json:",omitempty"`
}

type machine struct {
	NumCPU, GOMAXPROCS int
	GoVersion          string
	GOOS, GOARCH       string
	CPUModel           string
	Commit             string
}

type report struct {
	Schema  int
	Note    string
	Machine machine
	Seed    uint64
	Smoke   bool
	// CalibBeforeS/AfterS time the same pure-CPU loop before and after
	// the timed pass. When they differ by more than 10% the machine's
	// speed moved under the benchmark and Unresolved is set: the timings
	// are printed but must not be read as a verdict.
	CalibBeforeS, CalibAfterS float64
	Unresolved                bool
	Workloads                 []workloadReport
}

func machineBlock() machine {
	m := machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// calibLoop times a fixed pure-CPU loop: no memory traffic, no
// allocation, nothing of the program under test. It only answers "how
// fast is this machine right now".
func calibLoop(iters int) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return since(t0)
}

// calibrate is the best of three long loops, for the report's
// before/after guard.
func calibrate() float64 {
	return math.Min(calibLoop(1e8), math.Min(calibLoop(1e8), calibLoop(1e8)))
}

var calibSink uint64

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 || len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a benchmark report", path)
	}
	return &r, nil
}

// printReport lists every metric by name with its unit, median,
// quartiles and sample count, one block per workload.
func printReport(w io.Writer, r *report) {
	m := r.Machine
	fmt.Fprintf(w, "machine: %d CPU (GOMAXPROCS %d), %s %s/%s, %s, commit %s\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, m.CPUModel, m.Commit)
	fmt.Fprintf(w, "seed %d, calibration loop %.4f s before / %.4f s after the timed pass\n", r.Seed, r.CalibBeforeS, r.CalibAfterS)
	if r.Unresolved {
		fmt.Fprintln(w, "UNRESOLVED: the calibration loop moved by more than 10%; every timing below is noise-suspect, not a verdict")
	}
	fmt.Fprintln(w, unvalidatedNote)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d ops, %d failed, digest %s (golden: %s)\n", wl.Name, wl.Ops, wl.FailedOps, wl.Digest, wl.Golden)
		for _, e := range wl.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, def := range endToEnd {
			mr, ok := wl.Metrics[def.Name]
			if !ok {
				continue
			}
			status := ""
			if r.Unresolved {
				status = "  unresolved"
			}
			fmt.Fprintf(w, "  %-22s best %-11.6g %-9s median %-11.6g q1 %-11.6g q3 %-11.6g n=%d  bound %.0f%%%s\n",
				def.Name, mr.Best, mr.Unit, mr.Median, mr.Q1, mr.Q3, mr.N, 100*mr.Bound, status)
			if mr.TailP > 0 {
				fmt.Fprintf(w, "  %-22s p%g  %-11.6g %-9s over every job, not gated\n", "", mr.TailP, mr.Tail, mr.Unit)
			}
		}
		if wl.Layers == nil {
			continue
		}
		fmt.Fprintf(w, "  traced op: %.4f s\n", wl.TracedWallS)
		for _, def := range perLayer {
			if v := wl.Layers[def.Name]; v != 0 {
				fmt.Fprintf(w, "    %-34s %12.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
}

// ---- -compare ----

// side is one metric on one workload over one set of reports of the same
// code: the headline of each report. A set of one falls back on the
// report's own op samples for its spread.
type side struct {
	value  float64 // median of the reports' headlines
	q1, q3 float64
	spread float64 // interquartile range / median
}

func sideOf(def metricDef, set []*report, workload string) (side, bool) {
	var heads []float64
	var one metricReport
	for _, r := range set {
		for _, wl := range r.Workloads {
			if mr, ok := wl.Metrics[def.Name]; ok && wl.Name == workload && mr.N > 0 {
				heads = append(heads, mr.Best)
				one = mr
			}
		}
	}
	switch len(heads) {
	case 0:
		return side{}, false
	case 1, 2, 3:
		// Too few reports for quartiles across them: one report's own
		// ops stand in for the spread.
		return side{value: median(heads), q1: one.Q1, q3: one.Q3, spread: one.spread()}, true
	}
	q1, q2, q3 := quartiles(heads)
	return side{value: q2, q1: q1, q3: q3, spread: (q3 - q1) / q2}, true
}

// verdict compares one metric on one workload across two sets by the
// benchmark's own bounds. ratio is b/a.
func verdict(def metricDef, a, b side, unresolved bool) (ratio float64, v string) {
	if a.value == 0 {
		return 0, "unresolved"
	}
	ratio = b.value / a.value
	worse := ratio - 1
	if def.Better == "higher" {
		worse = 1 - ratio
	}
	if math.Abs(b.value-a.value) < def.floorS || math.Abs(worse) <= def.Bound {
		return ratio, "same"
	}
	// Beyond the fixed bound. Runs whose own spread is wider than the
	// bound widen their tolerance to that spread instead of raising a
	// false alarm; nor is there a verdict when a machine changed speed
	// under its run.
	if unresolved || math.Abs(worse) <= math.Max(a.spread, b.spread) {
		return ratio, "unresolved"
	}
	if worse > 0 {
		return ratio, "worse"
	}
	return ratio, "better"
}

func readSet(arg string) ([]*report, error) {
	var set []*report
	for _, path := range strings.Split(arg, ",") {
		r, err := readReport(path)
		if err != nil {
			return nil, err
		}
		set = append(set, r)
	}
	return set, nil
}

// tally gathers one workload over a set: its digest per seed ("differs"
// when two reports of one seed disagree) and its failed and attempted ops.
func tally(set []*report, workload string) (bySeed map[uint64]string, failed, ops int) {
	bySeed = map[uint64]string{}
	for _, r := range set {
		for _, wl := range r.Workloads {
			if wl.Name != workload {
				continue
			}
			if d, seen := bySeed[r.Seed]; seen && d != wl.Digest {
				bySeed[r.Seed] = "differs"
			} else {
				bySeed[r.Seed] = wl.Digest
			}
			failed += wl.FailedOps
			ops += wl.Ops
		}
	}
	return bySeed, failed, ops
}

// compare prints one row per end-to-end metric × workload and reports
// whether any row is worse, any op failed or any digest differs.
func compare(w io.Writer, a, b []*report) (bad bool) {
	unresolved := false
	for _, r := range append(append([]*report(nil), a...), b...) {
		unresolved = unresolved || r.Unresolved
	}
	fmt.Fprintf(w, "A: %d report(s), B: %d report(s); a value is the median of its reports' best ops, B/A has A as its base\n", len(a), len(b))
	if len(a) < 4 || len(b) < 4 {
		// Measured on the reference container: two back-to-back runs of
		// one commit differed by 28-31% on three rows while the
		// calibration loop stayed put.
		fmt.Fprintln(w, "caution: a side of fewer than 4 reports only knows the spread between its own ops, which misses minute-scale drift of the machine; read better/worse as provisional")
	}
	fmt.Fprintf(w, "%-15s %-21s %11s %23s %11s %23s %8s  %s\n", "workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "B/A", "verdict")
	for _, wl := range a[0].Workloads {
		da, failedA, opsA := tally(a, wl.Name)
		db, failedB, opsB := tally(b, wl.Name)
		if opsB == 0 {
			continue
		}
		for seed, d := range da {
			// The same seed must give the same statistics on both sides.
			if d2, ok := db[seed]; ok && (d != d2 || d == "differs") {
				fmt.Fprintf(w, "%-15s seed %d: simulated statistics differ (%s vs %s)\n", wl.Name, seed, d, d2)
				bad = true
			}
		}
		if failedA+failedB > 0 {
			fmt.Fprintf(w, "%-15s failed ops: %d of %d vs %d of %d\n", wl.Name, failedA, opsA, failedB, opsB)
			bad = true
		}
		for _, def := range endToEnd {
			sa, okA := sideOf(def, a, wl.Name)
			sb, okB := sideOf(def, b, wl.Name)
			if !okA || !okB {
				continue
			}
			ratio, v := verdict(def, sa, sb, unresolved)
			bad = bad || v == "worse"
			fmt.Fprintf(w, "%-15s %-21s %11.6g %11.5g..%-10.5g %11.6g %11.5g..%-10.5g %7.3fx  %s\n",
				wl.Name, def.Name, sa.value, sa.q1, sa.q3, sb.value, sb.q1, sb.q3, ratio, v)
		}
	}
	return bad
}
