package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chipletnet"
)

// smokeRun is one full invocation at smoke size (timed pass, traced pass,
// golden check), shared by the tests that only read it.
var smokeRun = sync.OnceValues(func() (*report, error) {
	tmp, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	return fullMode(options{seed: defaultSeed, smoke: true, trace: true, tmp: tmp}, nil)
})

func smoke(t *testing.T) *report {
	t.Helper()
	r, err := smokeRun()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the tables in the code name the same workloads and
// metrics, with the same units, directions and bounds.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].floorS = 0
		}
		return out
	}
	if !reflect.DeepEqual(c.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", c.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(c.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", c.PerLayer, strip(perLayer))
	}
	ws := workloads()
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q, code %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	setup := false
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// Every workload runs clean at smoke size, matches its golden, reports
// every end-to-end metric once with a unit and a non-zero value, and
// its traced op reports every per-layer metric the workload enters.
func TestSmokeEveryWorkload(t *testing.T) {
	r := smoke(t)
	if len(r.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads reported, want %d", len(r.Workloads), len(workloads()))
	}
	var printed bytes.Buffer
	printReport(&printed, r)
	for _, wl := range r.Workloads {
		if wl.FailedOps != 0 || wl.Golden != "ok" {
			t.Errorf("%s: %d of %d ops failed, golden %s: %v", wl.Name, wl.FailedOps, wl.Ops, wl.Golden, wl.Errors)
		}
		for _, def := range endToEnd {
			m, ok := wl.Metrics[def.Name]
			if !ok || m.Unit != def.Unit || m.N == 0 || !(m.Best > 0) {
				t.Errorf("%s: %s = %+v", wl.Name, def.Name, m)
			}
		}
		if len(wl.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", wl.Name, len(wl.Metrics), len(endToEnd))
		}
		if wl.Layers["trace_overhead"] <= 0 || wl.Layers["op.allocs"] <= 0 {
			t.Errorf("%s: traced pass incomplete: %v", wl.Name, wl.Layers)
		}
		// The spans inside an op account for nearly all of it. Smoke ops
		// last milliseconds, so the tracer's own bookkeeping is a
		// visible share here; the full-size ops stay under 5%.
		if u := wl.Layers["unattributed_share"]; u < 0 || u > 35 {
			t.Errorf("%s: %.1f%% of the traced op is unattributed", wl.Name, u)
		}
		block := printed.String()
		block = block[strings.Index(block, "\n"+wl.Name+":"):]
		if next := strings.Index(block[1:], "\n\n"); next >= 0 {
			block = block[:next+1]
		}
		for _, def := range endToEnd {
			if n := strings.Count(block, "\n  "+def.Name+" "); n != 1 {
				t.Errorf("%s: %s printed %d times", wl.Name, def.Name, n)
			}
		}
	}
	want := map[string][]string{
		"single-idle":    {"topology.build_s", "traffic.tick_s", "router.step_s", "router.step_ns_per_router_cycle", "stats.deliver_s", "stats.summarize_s", "router.step_s.reference", "router.step_s.active", "router.step_s.islands-2", "router.step_s.islands-max"},
		"single-loaded":  {"topology.build_s", "router.step_s", "router.step_s.reference"},
		"build-compiled": {"topology.build_s", "routing.new_s", "routing.compile_s", "verify.certify_s", "router.step_s", "router.step_interpreted_s"},
		"sweep-fig11":    {"topology.build_s", "traffic.tick_s", "router.step_s"},
		"dse-cold":       {"dse.enumerate_s", "dse.plan_s", "dse.eval_s", "dse.collect_s", "dse.cache_open_s", "dse.cache_put_s", "dse.cache_lookup_us", "dse.cache_lookups", "verify.certify_s", "router.step_s"},
		"dse-warm":       {"dse.enumerate_s", "dse.plan_s", "dse.collect_s", "dse.cache_open_s", "dse.cache_lookup_us", "dse.cache_hits", "dse.cache_lookups", "verify.certify_s"},
		"daemon-jobs":    {"service.open_s", "service.submit_s", "service.queue_wait_s", "service.polls_per_job", "service.job_latency_p95_s"},
	}
	known := map[string]bool{}
	for _, def := range perLayer {
		known[def.Name] = true
	}
	for _, wl := range r.Workloads {
		for _, name := range want[wl.Name] {
			if !known[name] {
				t.Errorf("%s is not a per-layer metric", name)
			}
			if !(wl.Layers[name] > 0) {
				t.Errorf("%s: %s = %g, want > 0", wl.Name, name, wl.Layers[name])
			}
		}
	}
	// The bypass predictions the interaction table makes.
	for _, wl := range r.Workloads {
		switch wl.Name {
		case "dse-warm":
			if wl.Layers["router.step_s"] != 0 || wl.Layers["dse.eval_s"] != 0 || wl.Layers["dse.cache_put_s"] != 0 {
				t.Errorf("dse-warm entered the simulator or wrote the cache: %v", wl.Layers)
			}
			if wl.Layers["dse.cache_hits"] != wl.Layers["dse.cache_lookups"] {
				t.Errorf("dse-warm: %g hits of %g lookups", wl.Layers["dse.cache_hits"], wl.Layers["dse.cache_lookups"])
			}
		case "single-idle", "single-loaded", "sweep-fig11":
			if wl.Layers["routing.compile_s"] != 0 {
				t.Errorf("%s compiled routing tables", wl.Name)
			}
		}
	}
}

// The mirror loop must reproduce Simulate in all three traffic regimes:
// nearly idle, loaded, and saturated.
func TestMirrorMatchesSimulate(t *testing.T) {
	for _, rate := range []float64{0.02, 0.3, 1.0} {
		for _, compiled := range []bool{false, true} {
			cfg := simCfg(chipletnet.HypercubeTopology(3), rate, 100, 400)
			cfg.Seed = 5
			cfg.CompiledRouting = compiled
			res, err := chipletnet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mirrorRun(newTracer(), -1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := statsOfResult(res); got.String() != want.String() {
				t.Errorf("rate %g compiled %t:\n mirror   %s\n simulate %s", rate, compiled, got, want)
			}
		}
	}
}

// Same seed, same digests; another seed, other inputs.
func TestSeedDeterminism(t *testing.T) {
	digestsAt := func(seed uint64) map[string]string {
		e := newEnv(options{seed: seed, smoke: true, tmp: t.TempDir()})
		out := map[string]string{}
		for _, w := range workloads() {
			if w.prepare != nil {
				if err := w.prepare(e); err != nil {
					t.Fatal(err)
				}
			}
			r := w.op(e)
			if r.err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, r.err)
			}
			out[w.name] = r.digest
		}
		return out
	}
	r := smoke(t)
	again, other := digestsAt(defaultSeed), digestsAt(defaultSeed+1)
	for _, wl := range r.Workloads {
		if again[wl.Name] != wl.Digest {
			t.Errorf("%s: seed %d gave %s then %s", wl.Name, defaultSeed, wl.Digest, again[wl.Name])
		}
		if other[wl.Name] == wl.Digest {
			t.Errorf("%s: seeds %d and %d gave the same digest", wl.Name, defaultSeed, defaultSeed+1)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := smoke(t)
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeReport(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Error("report changed across write and read")
	}
	if !strings.Contains(back.Note, "unvalidated") || back.Machine.NumCPU == 0 || back.Machine.GoVersion == "" {
		t.Errorf("report lacks the unvalidated-model note or the machine block: %+v", back.Machine)
	}
}

// scaledWall copies r with every wall_s sample replaced by factor × the
// workload's best op: a tight sample, so a verdict rests on the fixed
// bound and not on the smoke run's own spread.
func scaledWall(t *testing.T, r *report, factor float64) *report {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var cp report
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Unresolved = false // whatever the machine did during the smoke run
	for _, wl := range cp.Workloads {
		m := wl.Metrics["wall_s"]
		tight := make([]float64, m.N)
		for i := range tight {
			tight[i] = m.Best * factor
		}
		wl.Metrics["wall_s"] = summarize(endToEnd[0], tight)
	}
	return &cp
}

func TestCompare(t *testing.T) {
	r := smoke(t)
	rows := func(out, verdict string) int {
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.HasSuffix(line, "  "+verdict) {
				n++
			}
		}
		return n
	}
	var out bytes.Buffer
	if compare(&out, []*report{r}, []*report{r}) || rows(out.String(), "same") != len(r.Workloads)*len(endToEnd) {
		t.Errorf("a report compared with itself:\n%s", out.String())
	}

	base, slow := scaledWall(t, r, 1), scaledWall(t, r, 1.5)
	out.Reset()
	if !compare(&out, []*report{base}, []*report{slow}) || rows(out.String(), "worse") != len(r.Workloads) {
		t.Errorf("1.5x wall_s must be worse on wall_s of every workload and nowhere else:\n%s", out.String())
	}

	// A run whose machine changed speed under it gives no verdict.
	slow.Unresolved = true
	out.Reset()
	if compare(&out, []*report{base}, []*report{slow}) || rows(out.String(), "unresolved") != len(r.Workloads) {
		t.Errorf("unresolved run still judged:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
	// statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 4, 7, 11, 16, 22}, []float64{2, 7, 16}},
		{[]float64{3, 1, 2, 10}, []float64{1.25, 2.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
