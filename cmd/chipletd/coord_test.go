package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"chipletnet/internal/dse"
	"chipletnet/internal/service"
)

// scrapeMetric fetches url/metrics and returns the value of the exactly
// named series (name including its label set), or -1 if absent.
func scrapeMetric(t *testing.T, url, series string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("metric %s: bad value %q", series, rest)
			}
			return n
		}
	}
	return -1
}

// TestCoordinatorChaos is the tentpole acceptance test: a real
// coordinator daemon, two real worker daemons, one of which is
// SIGKILLed mid-campaign. The campaign must complete via lease
// reassignment, perform zero duplicate simulations beyond the killed
// worker's unreported tail, and emit a frontier byte-identical to a
// single-machine exploration of the same space.
func TestCoordinatorChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child daemons")
	}
	spec := slowDSESpec()

	// Single-machine reference, computed in-process.
	refStore, err := dse.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dse.Explore(*spec.Space, *spec.Params, refStore)
	if err != nil {
		t.Fatal(err)
	}
	refFrontier, err := json.Marshal(ref.Frontier)
	if err != nil {
		t.Fatal(err)
	}

	coordDir := t.TempDir()
	co := startDaemon(t, coordDir, "-coordinator", "-heartbeat-ttl", "1500ms", "-grace", "3m")
	w1Dir, w2Dir := t.TempDir(), t.TempDir()
	// Explicit -worker-id: the IDs key the coordinator's fold counters
	// scraped below (and the flag is exactly what a multi-host operator
	// would set; the default is hostname/listen-address).
	w1 := startDaemon(t, w1Dir, "-worker", "-join", co.url, "-heartbeat", "150ms", "-worker-id", "w1")
	w2 := startDaemon(t, w2Dir, "-worker", "-join", co.url, "-heartbeat", "150ms", "-worker-id", "w2")
	_ = w2

	var job service.Job
	if code := httpJSON(t, "POST", co.url+"/jobs", spec, &job); code != http.StatusAccepted {
		t.Fatalf("submit dse job = %d", code)
	}

	// Let the fleet fold a couple of evaluations, then SIGKILL worker 1
	// strictly mid-campaign.
	mid := pollJob(t, co.url, job.ID, 4*time.Minute, func(j service.Job) bool {
		return j.Progress.Done >= 2 || j.Status == service.StatusDone
	})
	if mid.Status == service.StatusDone {
		t.Fatal("campaign finished before the kill; slowDSESpec is not slow enough for chaos")
	}
	if err := w1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	w1.wait(t)

	done := pollJob(t, co.url, job.ID, 6*time.Minute, func(j service.Job) bool {
		return j.Status == service.StatusDone || j.Status == service.StatusFailed
	})
	if done.Status != service.StatusDone {
		t.Fatalf("campaign did not survive the worker kill: %q %s\ncoordinator log:\n%s",
			done.Status, done.Error, co.logs)
	}

	var res service.DSEResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("DSE result payload: %v", err)
	}
	if res.Degraded {
		t.Error("campaign reported Degraded despite a surviving worker")
	}
	if res.Simulated+res.CacheHits != res.Candidates {
		t.Errorf("work accounting: Simulated(%d) + CacheHits(%d) != Candidates(%d)",
			res.Simulated, res.CacheHits, res.Candidates)
	}
	if res.Simulated != len(ref.Records) {
		t.Errorf("fleet simulated %d evaluations, want %d (cold caches everywhere)",
			res.Simulated, len(ref.Records))
	}

	// The heart of the matter: the distributed, crash-riddled frontier is
	// byte-identical to the single-machine run.
	gotFrontier, err := json.Marshal(res.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotFrontier) != string(refFrontier) {
		t.Errorf("distributed frontier differs from single-machine reference:\n got %s\nwant %s",
			gotFrontier, refFrontier)
	}

	// Zero duplicate simulations beyond the killed worker's unreported
	// tail: every evaluation was simulated either by worker 2 (its local
	// cache counts them) or by worker 1 *and reported before the kill*
	// (the coordinator's per-worker fold counter). Anything worker 1
	// simulated but never reported was legitimately redone by worker 2
	// and appears in neither term twice.
	w2Sims := cacheLines(t, w2Dir)
	recvFromW1 := scrapeMetric(t, co.url, `coord_worker_records_total{worker="w1"}`)
	if recvFromW1 < 0 {
		t.Fatal("coordinator /metrics has no fold counter for killed worker w1")
	}
	if w2Sims+recvFromW1 != res.Candidates {
		t.Errorf("duplicate-work ledger: worker2 simulated %d + worker1 reported %d != %d candidates",
			w2Sims, recvFromW1, res.Candidates)
	}

	// The coordinator's service metrics agree on the shared health view.
	if got := scrapeMetric(t, co.url, `chipletd_jobs{status="done"}`); got != 1 {
		t.Errorf(`chipletd_jobs{status="done"} = %d, want 1`, got)
	}
}

// TestSigtermRequeuesQueuedJobs covers drain for work that never
// started: jobs still in the queue at SIGTERM must come back queued (not
// failed) and run to completion on the next start with attempt counts
// intact — one attempt for the never-started jobs, two for the
// interrupted one.
func TestSigtermRequeuesQueuedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child daemons")
	}
	dir := t.TempDir()
	d := startDaemon(t, dir, "-checkpoint-every", "500")

	long := quickSimSpec()
	long.Config.MeasureCycles = 300000 // keeps the single worker busy
	var running service.Job
	if code := httpJSON(t, "POST", d.url+"/jobs", long, &running); code != http.StatusAccepted {
		t.Fatalf("submit long job = %d", code)
	}
	pollJob(t, d.url, running.ID, time.Minute, func(j service.Job) bool { return j.Status == service.StatusRunning })

	var queued []service.Job
	for i := 0; i < 2; i++ {
		var j service.Job
		if code := httpJSON(t, "POST", d.url+"/jobs", quickSimSpec(), &j); code != http.StatusAccepted {
			t.Fatalf("submit queued job %d = %d", i, code)
		}
		queued = append(queued, j)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("SIGTERM exit code = %d, want 0; log:\n%s", code, d.logs)
	}

	d2 := startDaemon(t, dir)
	for _, q := range queued {
		done := pollJob(t, d2.url, q.ID, 2*time.Minute, func(j service.Job) bool {
			return j.Status == service.StatusDone || j.Status == service.StatusFailed
		})
		if done.Status != service.StatusDone {
			t.Fatalf("queued job %s after restart: %q %s (drain must requeue, not fail)", q.ID, done.Status, done.Error)
		}
		if done.Attempts != 1 {
			t.Errorf("queued job %s Attempts = %d, want 1 (first and only run after restart)", q.ID, done.Attempts)
		}
	}
	interrupted := pollJob(t, d2.url, running.ID, 2*time.Minute, func(j service.Job) bool {
		return j.Status == service.StatusDone
	})
	if interrupted.Attempts != 2 {
		t.Errorf("interrupted job Attempts = %d, want 2 (one per process)", interrupted.Attempts)
	}
}
