package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chipletnet"
	"chipletnet/internal/dse"
)

// quickConfig is a small fast simulate/sweep configuration (~tens of
// milliseconds end to end).
func quickConfig() chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.Topology{Kind: "mesh", Dims: []int{2, 2}}
	cfg.ChipletW, cfg.ChipletH = 3, 3
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	return cfg
}

// longConfig runs long enough to be mid-flight when a drain or cancel
// lands.
func longConfig() chipletnet.Config {
	cfg := quickConfig()
	cfg.MeasureCycles = 200000
	return cfg
}

// tinySpec is a fast DSE job over two mesh layouts of four chiplets.
func tinySpec() JobSpec {
	p := dse.DefaultParams()
	p.WarmupCycles = 100
	p.MeasureCycles = 400
	p.Rates = []float64{0.1, 0.4}
	return JobSpec{
		Type: JobDSE,
		Space: &dse.Space{
			Chiplets:      4,
			NoCs:          [][2]int{{3, 3}},
			Topologies:    []string{"mesh"},
			Routings:      []string{dse.RoutingMFR},
			Interleavings: []string{"none"},
		},
		Params: &p,
	}
}

func openTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitStatus polls until the job reaches one of the wanted states.
func waitStatus(t *testing.T, s *Server, id string, want ...JobStatus) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, w := range want {
			if job.Status == w {
				return job
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	job, _ := s.Get(id)
	t.Fatalf("job %s stuck in %q (error %q), want one of %v", id, job.Status, job.Error, want)
	return Job{}
}

// TestSubmitValidation: a spec that cannot run is refused
// at Submit, before it is journaled; the specs the other tests run pass.
func TestSubmitValidation(t *testing.T) {
	s := openTestServer(t, Config{Dir: t.TempDir()})
	with := func(edit func(*chipletnet.Config)) *chipletnet.Config {
		cfg := quickConfig()
		edit(&cfg)
		return &cfg
	}
	dse := func(edit func(*JobSpec)) JobSpec {
		spec := tinySpec()
		space, params := *spec.Space, *spec.Params
		spec.Space, spec.Params = &space, &params
		edit(&spec)
		return spec
	}
	bad := map[string]JobSpec{
		"empty":                 {},
		"unknown type":          {Type: "mystery"},
		"simulate no config":    {Type: JobSimulate},
		"sweep no rates":        {Type: JobSweep, Config: ptr(quickConfig())},
		"dse no space":          {Type: JobDSE},
		"simulate 2x2 noc":      {Type: JobSimulate, Config: with(func(c *chipletnet.Config) { c.ChipletW = 2 })},
		"simulate 1-d mesh":     {Type: JobSimulate, Config: with(func(c *chipletnet.Config) { c.Topology.Dims = []int{7} })},
		"simulate bad routing":  {Type: JobSimulate, Config: with(func(c *chipletnet.Config) { c.Routing = "xy" })},
		"simulate NaN rate":     {Type: JobSimulate, Config: with(func(c *chipletnet.Config) { c.InjectionRate = math.NaN() })},
		"simulate no cycles":    {Type: JobSimulate, Config: with(func(c *chipletnet.Config) { c.MeasureCycles = 0 })},
		"sweep bad config":      {Type: JobSweep, Config: with(func(c *chipletnet.Config) { c.Interleave = "byte" }), Rates: []float64{0.1}},
		"sweep negative rate":   {Type: JobSweep, Config: ptr(quickConfig()), Rates: []float64{0.1, -0.2}},
		"sweep NaN rate":        {Type: JobSweep, Config: ptr(quickConfig()), Rates: []float64{math.NaN()}},
		"sweep infinite rate":   {Type: JobSweep, Config: ptr(quickConfig()), Rates: []float64{math.Inf(1)}},
		"dse one chiplet":       dse(func(sp *JobSpec) { sp.Space.Chiplets = 1 }),
		"dse unknown topology":  dse(func(sp *JobSpec) { sp.Space.Topologies = []string{"torus"} }),
		"dse unknown routing":   dse(func(sp *JobSpec) { sp.Space.Routings = []string{"xy"} }),
		"dse tiny noc":          dse(func(sp *JobSpec) { sp.Space.NoCs = [][2]int{{2, 3}} }),
		"dse negative rate":     dse(func(sp *JobSpec) { sp.Params.Rates = []float64{-0.1} }),
		"dse NaN zero-load":     dse(func(sp *JobSpec) { sp.Params.ZeroLoadRate = math.NaN() }),
		"dse bad workload spec": dse(func(sp *JobSpec) { sp.Space.Workloads = []string{"nonsense"} }),
	}
	for name, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("%s: Submit accepted an invalid spec", name)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("%d rejected specs were queued", n)
	}
	good := []JobSpec{
		{Type: JobSimulate, Config: ptr(quickConfig())},
		{Type: JobSweep, Config: ptr(quickConfig()), Rates: []float64{0, 0.1}},
		tinySpec(),
		{Type: JobDSE, Space: tinySpec().Space},
	}
	for _, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%s spec) = %v, want nil", spec.Type, err)
		}
	}
}

// FuzzJobSpec: any request body, decoded the way POST /jobs decodes it
// and then validated, yields an error or a valid spec — never a panic.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []JobSpec{
		{Type: JobSimulate, Config: ptr(quickConfig())},
		{Type: JobSweep, Config: ptr(quickConfig()), Rates: []float64{0.1, 0.3}},
		tinySpec(),
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte(`{"Type":"dse","Space":{"Chiplets":4},"Routing":"mfr"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		_ = spec.Validate()
	})
}

func ptr[T any](v T) *T { return &v }

func TestSimulateJobMatchesDirectRun(t *testing.T) {
	cfg := quickConfig()
	direct, err := chipletnet.Run(cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	s := openTestServer(t, Config{Dir: t.TempDir()})
	job, err := s.Submit(JobSpec{Type: JobSimulate, Config: &cfg})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitStatus(t, s, job.ID, StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", done.Attempts)
	}
	if done.Progress != (Progress{Done: 1, Total: 1}) {
		t.Errorf("Progress = %+v, want 1/1", done.Progress)
	}
	var got chipletnet.Result
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	want, _ := json.Marshal(direct)
	if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, want) {
		t.Errorf("daemon result differs from direct run:\n got %s\nwant %s", gotJSON, want)
	}
}

func TestSweepJob(t *testing.T) {
	cfg := quickConfig()
	s := openTestServer(t, Config{Dir: t.TempDir(), Workers: 2})
	// Rates submitted out of order come back sorted (the ladder is
	// canonicalized like dse.Params).
	job, err := s.Submit(JobSpec{Type: JobSweep, Config: &cfg, Rates: []float64{0.3, 0.05}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitStatus(t, s, job.ID, StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("sweep failed: %s", done.Error)
	}
	var res SweepResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if len(res.Results) != 2 || res.Rates[0] != 0.05 || res.Rates[1] != 0.3 {
		t.Fatalf("sweep result = rates %v, %d results; want sorted [0.05 0.3] with 2 results", res.Rates, len(res.Results))
	}
}

func TestDSEJobWarmResubmitIsAllCacheHits(t *testing.T) {
	dir := t.TempDir()
	s := openTestServer(t, Config{Dir: dir})
	job, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitStatus(t, s, job.ID, StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("dse job failed: %s", done.Error)
	}
	var cold DSEResult
	if err := json.Unmarshal(done.Result, &cold); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if cold.Simulated == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold DSE: Simulated=%d CacheHits=%d, want all simulated", cold.Simulated, cold.CacheHits)
	}
	if len(cold.Frontier) == 0 {
		t.Fatal("cold DSE produced an empty frontier")
	}

	// Same exploration again — everything must come from the sharded
	// cache, with an identical frontier.
	job2, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	done2 := waitStatus(t, s, job2.ID, StatusDone, StatusFailed)
	if done2.Status != StatusDone {
		t.Fatalf("warm dse job failed: %s", done2.Error)
	}
	var warm DSEResult
	if err := json.Unmarshal(done2.Result, &warm); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if warm.Simulated != 0 || warm.CacheHits != cold.Simulated {
		t.Errorf("warm DSE: Simulated=%d CacheHits=%d, want 0/%d", warm.Simulated, warm.CacheHits, cold.Simulated)
	}
	if w, c := mustJSON(t, warm.Frontier), mustJSON(t, cold.Frontier); !bytes.Equal(w, c) {
		t.Error("warm frontier differs from cold frontier")
	}

	// The cache survives a clean restart too.
	s.Close()
	s2 := openTestServer(t, Config{Dir: dir})
	job3, err := s2.Submit(tinySpec())
	if err != nil {
		t.Fatalf("post-restart submit: %v", err)
	}
	done3 := waitStatus(t, s2, job3.ID, StatusDone, StatusFailed)
	var again DSEResult
	if err := json.Unmarshal(done3.Result, &again); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if again.Simulated != 0 {
		t.Errorf("post-restart DSE simulated %d candidates, want 0", again.Simulated)
	}
}

// TestDSEJobReopenedDirCertifiesNothing: a DSE job on a daemon reopened
// over the same state directory takes every pre-flight verdict from the
// cache the first daemon wrote and certifies no routing structure.
func TestDSEJobReopenedDirCertifiesNothing(t *testing.T) {
	dir := t.TempDir()
	for i, want := range []string{
		"2 routing structures certified, 0 pre-flight verdicts from the cache",
		"0 routing structures certified, 2 pre-flight verdicts from the cache",
	} {
		var mu sync.Mutex
		var logs []string
		s := openTestServer(t, Config{Dir: dir, Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
		job, err := s.Submit(tinySpec())
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if done := waitStatus(t, s, job.ID, StatusDone, StatusFailed); done.Status != StatusDone {
			t.Fatalf("dse job %d failed: %s", i, done.Error)
		}
		s.Close()
		mu.Lock()
		all := strings.Join(logs, "\n")
		mu.Unlock()
		if !strings.Contains(all, want) {
			t.Errorf("daemon %d: log lacks %q:\n%s", i, want, all)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJobDeadlineFails(t *testing.T) {
	cfg := longConfig()
	s := openTestServer(t, Config{Dir: t.TempDir()})
	job, err := s.Submit(JobSpec{Type: JobSimulate, Config: &cfg, TimeoutMS: 50})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitStatus(t, s, job.ID, StatusDone, StatusFailed)
	if done.Status != StatusFailed {
		t.Fatalf("status = %q, want failed", done.Status)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", done.Error)
	}
}

// TestRunFailureIsNotRetried: a job that fails at run time fails once.
// The simulation is deterministic, so a second run would fail the same
// way; the job ends failed after one start, carrying the run's error.
func TestRunFailureIsNotRetried(t *testing.T) {
	bad := quickConfig()
	missing := filepath.Join(t.TempDir(), "missing.trace")
	bad.Workload = "replay:" + missing // valid spec, run-time error
	dir := t.TempDir()
	s := openTestServer(t, Config{Dir: dir})
	job, err := s.Submit(JobSpec{Type: JobSimulate, Config: &bad})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitStatus(t, s, job.ID, StatusFailed, StatusDone)
	if done.Status != StatusFailed {
		t.Fatal("job with a missing replay trace did not fail")
	}
	if done.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", done.Attempts)
	}
	if !strings.Contains(done.Error, missing) {
		t.Errorf("error %q does not carry the run's error about %s", done.Error, missing)
	}
	s.Close()
	if n := countEvents(t, dir, job.ID, evStart); n != 1 {
		t.Errorf("journal holds %d start events for %s, want 1", n, job.ID)
	}
}

// countEvents counts the journaled events of one kind for one job.
func countEvents(t *testing.T, dir, id, event string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e jobEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if e.ID == id && e.Event == event {
			n++
		}
	}
	return n
}

// TestReplayJournalWithRetryBudget: journals written before jobs ran
// exactly once carry a retry-budget field in each submitted spec.
// Journal replay ignores unknown fields, so such a job, journaled
// mid-run, resumes and finishes.
func TestReplayJournalWithRetryBudget(t *testing.T) {
	cfg := quickConfig()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	journal := `{"ID":"j000000","Event":"submit","Spec":{"Type":"simulate","Config":` + string(cfgJSON) + `,"Retries":2}}` + "\n" +
		`{"ID":"j000000","Event":"start","Attempts":1}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestServer(t, Config{Dir: dir})
	done := waitStatus(t, s, "j000000", StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("replayed job failed: %s", done.Error)
	}
	if done.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one journaled start, one now)", done.Attempts)
	}
	direct, err := chipletnet.Run(cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if want := mustJSON(t, direct); !bytes.Equal(done.Result, want) {
		t.Errorf("replayed result differs from direct run:\n got %s\nwant %s", done.Result, want)
	}
}

// TestUnresumableCheckpointRunsFromStart: a checkpoint file that cannot
// be resumed does not fail its job. The file is discarded and the job
// runs from cycle 0 to the result of a run that never had one.
func TestUnresumableCheckpointRunsFromStart(t *testing.T) {
	cfg := quickConfig()
	direct, err := chipletnet.Run(cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	// skewed is a real mid-run checkpoint of cfg under another format
	// version, as an upgrade that bumps checkpoint.Version leaves behind.
	skewed := func(t *testing.T) []byte {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := chipletnet.RunControl{CheckpointPath: path, InterruptAtCycle: 200}
		if _, err := sys.SimulateControlled(ctrl); !errors.Is(err, chipletnet.ErrInterrupted) {
			t.Fatalf("interrupted run: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[8]++ // the little-endian format version follows the 8-byte magic
		return data
	}
	for name, file := range map[string]func(*testing.T) []byte{
		"garbage":       func(*testing.T) []byte { return []byte("not a checkpoint") },
		"other version": skewed,
	} {
		t.Run(name, func(t *testing.T) {
			s := openTestServer(t, Config{Dir: t.TempDir()})
			const id = "j000000" // the first ID a fresh state directory assigns
			if err := os.WriteFile(s.checkpointPath(id), file(t), 0o644); err != nil {
				t.Fatal(err)
			}
			job, err := s.Submit(JobSpec{Type: JobSimulate, Config: &cfg})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if job.ID != id {
				t.Fatalf("job ID %s, want %s", job.ID, id)
			}
			done := waitStatus(t, s, id, StatusDone, StatusFailed)
			if done.Status != StatusDone {
				t.Fatalf("job with an unresumable checkpoint failed: %s", done.Error)
			}
			if want := mustJSON(t, direct); !bytes.Equal(done.Result, want) {
				t.Errorf("result differs from a run without a checkpoint:\n got %s\nwant %s", done.Result, want)
			}
		})
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := openTestServer(t, Config{Dir: t.TempDir(), Workers: 1})
	long := longConfig()
	running, err := s.Submit(JobSpec{Type: JobSimulate, Config: &long})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, s, running.ID, StatusRunning)

	// The single worker is busy, so this one stays queued.
	queued, err := s.Submit(JobSpec{Type: JobSimulate, Config: &long})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job, err := s.Cancel(queued.ID); err != nil || job.Status != StatusCanceled {
		t.Fatalf("cancel queued: job %q err %v, want immediate canceled", job.Status, err)
	}

	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	got := waitStatus(t, s, running.ID, StatusCanceled, StatusFailed, StatusDone)
	if got.Status != StatusCanceled {
		t.Fatalf("running job ended %q, want canceled", got.Status)
	}

	if _, err := s.Cancel(running.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel finished job: err = %v, want ErrFinished", err)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown job: err = %v, want ErrNotFound", err)
	}
}

// TestDrainRequeuesAndResumesBitIdentical is the graceful half of the
// crash-safety story: a drain interrupts a long simulate job at a cycle
// boundary, snapshots it, requeues it durably, and a new server resumes
// it to a result bit-identical to an uninterrupted run.
func TestDrainRequeuesAndResumesBitIdentical(t *testing.T) {
	cfg := longConfig()
	direct, err := chipletnet.Run(cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	dir := t.TempDir()
	s := openTestServer(t, Config{Dir: dir, CheckpointEvery: 500})
	job, err := s.Submit(JobSpec{Type: JobSimulate, Config: &cfg})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, s, job.ID, StatusRunning)
	time.Sleep(20 * time.Millisecond) // let it get some cycles in
	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	drained, _ := s.Get(job.ID)
	if drained.Status == StatusRunning {
		t.Fatalf("job still running after Drain")
	}
	if _, err := s.Submit(JobSpec{Type: JobSimulate, Config: &cfg}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit during drain: err = %v, want ErrDraining", err)
	}
	s.Close()

	s2 := openTestServer(t, Config{Dir: dir, CheckpointEvery: 500})
	done := waitStatus(t, s2, job.ID, StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("resumed job failed: %s", done.Error)
	}
	if drained.Status == StatusQueued && done.Attempts < 2 {
		t.Errorf("resumed job Attempts = %d, want >= 2 (one per start)", done.Attempts)
	}
	var got chipletnet.Result
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	want, _ := json.Marshal(direct)
	if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, want) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %s\nwant %s", gotJSON, want)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := openTestServer(t, Config{Dir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", code)
	}
	if code, body := post("/jobs", `{"Type":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad submit = %d (%s), want 400", code, body)
	}
	if code, body := post("/jobs", `{"Typ`); code != http.StatusBadRequest {
		t.Errorf("truncated submit = %d (%s), want 400", code, body)
	}

	cfg := quickConfig()
	spec, _ := json.Marshal(JobSpec{Type: JobSimulate, Config: &cfg})
	// Jobs run once: the same spec asking for a retry budget names a
	// field that no longer exists and is refused like any other unknown
	// field.
	withBudget := strings.TrimSuffix(string(spec), "}") + `,"Retries":2}`
	if code, body := post("/jobs", withBudget); code != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
		t.Errorf("submit with a retry budget = %d (%s), want 400 for an unknown field", code, body)
	}
	code, body := post("/jobs", string(spec))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", code, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		t.Fatalf("submit response %s: %v", body, err)
	}

	done := waitStatus(t, s, job.ID, StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	code, body = get("/jobs/" + job.ID)
	if code != http.StatusOK {
		t.Fatalf("get job = %d, want 200", code)
	}
	var fetched Job
	if err := json.Unmarshal(body, &fetched); err != nil || fetched.Status != StatusDone {
		t.Fatalf("fetched job %s (err %v), want done", body, err)
	}
	if code, _ := get("/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}

	var list []Job
	if code, body := get("/jobs"); code != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list) != 1 {
		t.Errorf("list jobs = %d %s, want one job", code, body)
	}

	// Canceling a finished job over HTTP is a 200 no-op.
	if code, body := post("/jobs/"+job.ID+"/cancel", ""); code != http.StatusOK {
		t.Errorf("cancel finished = %d (%s), want 200", code, body)
	}
	if code, _ := post("/jobs/nope/cancel", ""); code != http.StatusNotFound {
		t.Errorf("cancel unknown = %d, want 404", code)
	}

	s.Drain()
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", code)
	}
	if code, _ := post("/jobs", string(spec)); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", code)
	}
}

// TestJournalQuarantine: a corrupt interior journal line is quarantined,
// not fatal, and the surviving events still replay.
func TestJournalQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	s := openTestServer(t, Config{Dir: dir})
	job, err := s.Submit(JobSpec{Type: JobSimulate, Config: &cfg})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, s, job.ID, StatusDone, StatusFailed)
	s.Close()

	// Corrupt the first journal line (the submit) of a second job by
	// appending garbage plus a fresh valid submit.
	spec, _ := json.Marshal(jobEvent{ID: "j999", Event: evSubmit, Spec: &JobSpec{Type: JobSimulate, Config: &cfg}})
	appendTo(t, dir+"/jobs.jsonl", "!!garbage!!\n"+string(spec)+"\n")

	s2 := openTestServer(t, Config{Dir: dir})
	if got, ok := s2.Get(job.ID); !ok || got.Status != StatusDone {
		t.Fatalf("replayed job = %+v (%v), want done", got.Status, ok)
	}
	done := waitStatus(t, s2, "j999", StatusDone, StatusFailed)
	if done.Status != StatusDone {
		t.Fatalf("appended job failed: %s", done.Error)
	}
}

func appendTo(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}
