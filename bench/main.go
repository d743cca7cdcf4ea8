// Command bench is the repository's one benchmark: seven named workloads
// over the paths a user waits on (one run, one figure sweep, one cold and
// one warm exploration, one daemon job), four end-to-end metrics with
// fixed regression bounds, and a traced pass that attributes host time
// to layers from outside, by timing calls into their public functions.
// README.md has the tables; BENCHMARK.json is the contract.
//
//	go run ./bench                      every workload, timed then traced, report written
//	go run ./bench -only dse-warm,dse-cold -seed 7 -trace=false
//	go run ./bench -smoke               tiny sizes (what the tests run)
//	go run ./bench -update-golden       rewrite bench/golden.json (default seed)
//	go run ./bench -compare A.json B.json
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: one workload, one pass, and as the last
// line of standard output one JSON object with the result.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// goldenFile holds the committed digests: per size, per workload, for
// the default seed.
//
//go:embed golden.json
var goldenFile []byte

const (
	defaultSeed = 1
	goldenPath  = "bench/golden.json" // -update-golden runs from the repo root
)

type goldens struct {
	Seed  uint64
	Full  map[string]string
	Smoke map[string]string
}

func (g *goldens) forSize(smoke bool) map[string]string {
	if smoke {
		return g.Smoke
	}
	return g.Full
}

// gomaxprocs is the benchmark's CPU budget: min(NumCPU, 4), so numbers
// from wider machines stay comparable with the 2-CPU reference.
func gomaxprocs() int { return min(runtime.NumCPU(), 4) }

// traceFlag accepts the driver's "--trace 0|1" as well as "-trace=false":
// a flag.Value that is not a boolean flag may take its value from the
// next argument.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

type options struct {
	seed    uint64
	seconds float64
	smoke   bool
	trace   bool
	tmp     string
	spans   string
}

func main() {
	var o options
	trace := traceFlag(true)
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure each workload for at least this long (and at least its minimum op count)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, two timed ops per workload")
	flag.Var(&trace, "trace", "run the traced pass (with -workload: 1 runs only the traced pass, 0 only the timed one)")
	flag.StringVar(&o.spans, "spans", "", "also write every raw span of the traced pass to this file, one JSON object per line")
	only := flag.String("only", "", "comma-separated workloads to run (default all)")
	single := flag.String("workload", "", "driver mode: run this one workload and print one JSON result line")
	out := flag.String("out", filepath.Join(".bench_build", "report.json"), "where the JSON report goes")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for stores and daemon state (inside the checkout)")
	update := flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this run (default seed only, both sizes)")
	cmp := flag.Bool("compare", false, "compare two reports (or comma-separated sets of reports): -compare A.json B.json")
	flag.Parse()
	o.trace = bool(trace)
	runtime.GOMAXPROCS(gomaxprocs())

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two reports"))
		}
		a, err := readSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	o.tmp = tmp
	code := 0
	switch {
	case *update:
		err = updateGolden(o)
	case *single != "":
		err = driverMode(o, *single)
	default:
		var names []string
		if *only != "" {
			names = strings.Split(*only, ",")
		}
		var r *report
		if r, err = fullMode(o, names); err == nil {
			printReport(os.Stdout, r)
			err = writeReport(*out, r)
			fmt.Printf("\nreport written to %s\n", *out)
			for _, wl := range r.Workloads {
				if wl.FailedOps > 0 || wl.Golden == "mismatch" {
					code = 1
				}
			}
		}
	}
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func pick(names []string) ([]workload, error) {
	all := workloads()
	if len(names) == 0 {
		return all, nil
	}
	var out []workload
	for _, n := range names {
		found := false
		for _, w := range all {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

func newEnv(o options) *env {
	e := &env{seed: o.seed, sz: fullSizes(), tmp: o.tmp}
	if o.smoke {
		e.sz = smokeSizes()
	}
	return e
}

// timed runs one workload's closed loop with tracing off: one untimed
// warm-up op (lazy set-up, the pre-flight memo, the page cache), then
// ops back to back until both the minimum count and the duration are
// met. Every op, warm-up included, is checked.
func timed(e *env, w workload, o options) workloadReport {
	wr := workloadReport{Name: w.name, Why: w.why, Metrics: map[string]metricReport{}}
	samples := map[string][]float64{}
	var allJobs []float64 // every job latency, for the tail percentile
	fail := func(err error) {
		wr.FailedOps++
		if len(wr.Errors) < 5 {
			wr.Errors = append(wr.Errors, err.Error())
		}
	}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			wr.Ops = 1
			fail(fmt.Errorf("prepare: %w", err))
			return wr
		}
	}
	minOps := w.minOps
	if o.smoke {
		minOps = 2
	}
	var start time.Time
	for i := 0; i <= minOps || (!o.smoke && since(start) < o.seconds); i++ {
		if i == 1 {
			start = time.Now() // op 0 was the warm-up
		}
		// Collect between ops, outside any timed region, so an op's GC
		// work is its own and not the previous op's garbage.
		runtime.GC()
		r := w.op(e)
		wr.Ops++
		switch {
		case r.err != nil:
			fail(r.err)
			continue
		case wr.Digest == "":
			wr.Digest = r.digest
		case r.digest != wr.Digest:
			fail(fmt.Errorf("op %d: simulated statistics differ from the first op's (%s vs %s)", i, r.digest, wr.Digest))
			continue
		}
		if i == 0 {
			continue
		}
		simS, jobs := r.simS, r.jobLatS
		if simS == 0 {
			simS = r.wallS
		}
		if jobs == nil {
			jobs = []float64{r.wallS}
		}
		// One sample per op and metric: an op's several set-up repeats
		// and job latencies fold to their median first.
		samples["wall_s"] = append(samples["wall_s"], r.wallS)
		samples["setup_s"] = append(samples["setup_s"], median(r.setupS))
		samples["router_mcycles_per_s"] = append(samples["router_mcycles_per_s"], r.routerCycles/simS/1e6)
		samples["job_latency_s"] = append(samples["job_latency_s"], median(jobs))
		allJobs = append(allJobs, jobs...)
	}
	for _, def := range endToEnd {
		wr.Metrics[def.Name] = summarize(def, samples[def.Name])
	}
	if p, v, ok := tail(allJobs); ok {
		m := wr.Metrics["job_latency_s"]
		m.TailP, m.Tail = p, v
		wr.Metrics["job_latency_s"] = m
	}
	return wr
}

// checkGolden compares the workload's digest with the committed one. Only
// the default seed has goldens; other seeds were checked for
// self-consistency by timed and traced.
func checkGolden(wr *workloadReport, g *goldens, o options) {
	want, ok := g.forSize(o.smoke)[wr.Name]
	switch {
	case o.seed != g.Seed || !ok:
		wr.Golden = "unchecked"
	case want == wr.Digest:
		wr.Golden = "ok"
	default:
		wr.Golden = "mismatch"
		wr.FailedOps++
		wr.Errors = append(wr.Errors, fmt.Sprintf("digest %s differs from the golden %s", wr.Digest, want))
	}
}

// tracedPass runs one traced op and folds it into the workload's report.
// untracedWallS is the timed pass's best op, the base of trace_overhead.
func tracedPass(e *env, w workload, tr *tracer, wr *workloadReport, untracedWallS float64) {
	res, err := w.traced(e, tr)
	wr.Ops++
	if err == nil && wr.Digest != "" && res.digest != wr.Digest {
		err = fmt.Errorf("digest %s differs from the untraced ops' %s", res.digest, wr.Digest)
	}
	if err != nil {
		wr.FailedOps++
		wr.Errors = append(wr.Errors, "traced op: "+err.Error())
		return
	}
	if wr.Digest == "" {
		wr.Digest = res.digest
	}
	res.values["trace_overhead"] = res.wallS / untracedWallS
	wr.TracedWallS = res.wallS
	wr.Layers = res.values
	wr.Spans = res.layers
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// fullMode is the default invocation: the timed pass over every picked
// workload between two calibration loops, then the traced pass.
func fullMode(o options, names []string) (*report, error) {
	ws, err := pick(names)
	if err != nil {
		return nil, err
	}
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	e := newEnv(o)
	r := &report{Schema: 1, Note: unvalidatedNote, Machine: machineBlock(), Seed: o.seed, Smoke: o.smoke}
	r.CalibBeforeS = calibrate()
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "timing %s\n", w.name)
		r.Workloads = append(r.Workloads, timed(e, w, o))
	}
	r.CalibAfterS = calibrate()
	drift := r.CalibAfterS/r.CalibBeforeS - 1
	r.Unresolved = drift > 0.10 || drift < -0.10
	if o.trace {
		tr := newTracer()
		for i, w := range ws {
			fmt.Fprintf(os.Stderr, "tracing %s\n", w.name)
			wr := &r.Workloads[i]
			tracedPass(e, w, tr, wr, wr.Metrics["wall_s"].Best)
		}
		if o.spans != "" {
			if err := tr.writeSpans(o.spans); err != nil {
				return nil, err
			}
		}
	}
	for i := range r.Workloads {
		checkGolden(&r.Workloads[i], g, o)
	}
	return r, nil
}

// driverMode runs one pass of one workload and prints the contract's
// result line; everything else goes to standard error.
func driverMode(o options, name string) error {
	ws, err := pick([]string{name})
	if err != nil {
		return err
	}
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	e, w := newEnv(o), ws[0]
	metrics := map[string]any{}
	value := func(def metricDef, v float64) {
		metrics[def.Name] = map[string]any{"value": v, "unit": def.Unit}
	}
	var wr workloadReport
	if !o.trace {
		wr = timed(e, w, o)
		for _, def := range endToEnd {
			value(def, wr.Metrics[def.Name].Best)
		}
	} else {
		// One untraced op first: it warms what a traced op would
		// otherwise pay for, and it is the base of trace_overhead.
		if w.prepare != nil {
			if err := w.prepare(e); err != nil {
				return err
			}
		}
		base := w.op(e)
		wr = workloadReport{Name: w.name, Ops: 1, Digest: base.digest}
		if base.err != nil {
			wr.FailedOps, wr.Errors = 1, []string{base.err.Error()}
		} else {
			tracedPass(e, w, newTracer(), &wr, base.wallS)
		}
		for _, def := range perLayer {
			value(def, wr.Layers[def.Name])
		}
	}
	checkGolden(&wr, g, o)
	for _, msg := range wr.Errors {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", msg)
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.FailedOps == 0, "attempted": wr.Ops, "failed": wr.FailedOps, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// updateGolden rewrites the committed digests from one op of every
// workload at both sizes.
func updateGolden(o options) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("goldens are for the default seed %d", defaultSeed)
	}
	g := goldens{Seed: defaultSeed, Full: map[string]string{}, Smoke: map[string]string{}}
	for _, smoke := range []bool{false, true} {
		o.smoke = smoke
		e := newEnv(o)
		for _, w := range workloads() {
			if w.prepare != nil {
				if err := w.prepare(e); err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
			}
			r := w.op(e)
			if r.err != nil {
				return fmt.Errorf("%s: %w", w.name, r.err)
			}
			g.forSize(smoke)[w.name] = r.digest
			fmt.Fprintf(os.Stderr, "%s smoke=%t %s\n", w.name, smoke, r.digest)
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
