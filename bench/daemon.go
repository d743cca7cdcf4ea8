package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"chipletnet"
	"chipletnet/internal/service"
	"chipletnet/internal/service/backoff"
)

// pollPolicy paces a client's status polls: fine enough to see a ~30 ms
// job's queued→running→done transitions, capped so a poll costs the
// daemon little next to the job itself.
var pollPolicy = backoff.Policy{Base: 500 * time.Microsecond, Cap: 4 * time.Millisecond}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	latencyS   float64 // submit → terminal status seen
	submitS    float64 // the POST round trip (includes the journal fsync)
	queueWaitS float64 // submit → first status other than queued seen
	polls      int
	stats      simStats
	err        error
}

func (e *env) jobCfg(i int) chipletnet.Config {
	cfg := e.sz.job
	cfg.Seed = e.seed*1000 + uint64(i) // distinct inputs per job
	return cfg
}

// runJob submits one simulate job and polls it to a terminal status.
func runJob(ctx context.Context, tr *tracer, parent, lane int, c *http.Client, url string, cfg chipletnet.Config) (out jobOutcome) {
	span := tr.begin("service.job", parent, lane)
	defer tr.end(span)
	body, err := json.Marshal(service.JobSpec{Type: service.JobSimulate, Config: &cfg})
	if err != nil {
		return jobOutcome{err: err}
	}
	var job service.Job
	call := func(name, method, path string, payload []byte, want int) error {
		req, err := http.NewRequestWithContext(ctx, method, url+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		id := tr.begin(name, span, lane)
		defer tr.end(id)
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		job = service.Job{}
		return json.NewDecoder(resp.Body).Decode(&job)
	}

	t0 := time.Now()
	if err := call("service.submit", http.MethodPost, "/jobs", body, http.StatusAccepted); err != nil {
		return jobOutcome{err: err}
	}
	out.submitS = since(t0)
	id := job.ID
	for attempt := 1; ; attempt++ {
		if err := pollPolicy.Wait(ctx, attempt); err != nil {
			return jobOutcome{err: fmt.Errorf("job %s: %w", id, err)}
		}
		if err := call("service.poll", http.MethodGet, "/jobs/"+id, nil, http.StatusOK); err != nil {
			return jobOutcome{err: err}
		}
		out.polls++
		if out.queueWaitS == 0 && job.Status != service.StatusQueued {
			out.queueWaitS = since(t0)
		}
		if job.Status != service.StatusQueued && job.Status != service.StatusRunning {
			break
		}
	}
	out.latencyS = since(t0)
	if job.Status != service.StatusDone {
		return jobOutcome{err: fmt.Errorf("job %s ended %s: %s", id, job.Status, job.Error)}
	}
	var res chipletnet.Result
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return jobOutcome{err: fmt.Errorf("job %s result: %w", id, err)}
	}
	if res.Deadlocked {
		return jobOutcome{err: fmt.Errorf("job %s deadlocked", id)}
	}
	out.stats = statsOfResult(res)
	return out
}

// daemonOp is one daemon-jobs op, traced or not: open the service on a
// fresh state directory, serve it over HTTP, let the clients push every
// job through, close it.
func daemonOp(e *env, tr *tracer, root int) (opResult, []jobOutcome) {
	dir, err := e.mkdir("daemon-")
	if err != nil {
		return opResult{err: err}, nil
	}
	defer os.RemoveAll(dir)
	scfg := service.Config{Dir: dir, Workers: 1, CheckpointEvery: e.sz.ckptEvery}
	// A stuck job fails the op instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	t0 := time.Now()
	id := tr.beginMem("service.open", root, 0)
	srv, err := service.Open(scfg)
	tr.end(id)
	if err != nil {
		return opResult{err: err}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	jobs := make([]jobOutcome, e.sz.jobs)
	id = tr.beginMem("service.clients", root, 0)
	var wg sync.WaitGroup
	for c := 0; c < e.sz.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(jobs); j += e.sz.clients {
				jobs[j] = runJob(ctx, tr, id, c+1, ts.Client(), ts.URL, e.jobCfg(j))
			}
		}(c)
	}
	wg.Wait()
	tr.end(id)
	id = tr.begin("service.close", root, 0)
	ts.Close()
	err = srv.Close()
	tr.end(id)
	r := opResult{wallS: since(t0), err: err}

	sts := make([]simStats, len(jobs))
	for j, out := range jobs {
		if out.err != nil && r.err == nil {
			r.err = out.err
		}
		sts[j] = out.stats
		r.jobLatS = append(r.jobLatS, out.latencyS)
		r.routerCycles += routerCycles(e.jobCfg(j))
	}
	r.digest = digestStats(sts)
	if r.err != nil {
		return r, jobs
	}

	// Set-up beside the op: what a restart pays on this op's state
	// directory (journal replay plus cache open).
	r.setupS, r.err = repeatSetup(nil, func() (func() error, error) {
		srv, err := service.Open(scfg)
		if err != nil {
			return nil, err
		}
		return srv.Close, nil
	})
	return r, jobs
}

func daemonTraced(e *env, tr *tracer) (tracedResult, error) {
	op, root := tr.newOp()
	r, jobs := daemonOp(e, tr, root)
	tr.end(root)
	if r.err != nil {
		return tracedResult{}, r.err
	}
	out := tr.result(op, root, r.digest)
	var submit, wait, lat []float64
	polls := 0
	for _, j := range jobs {
		submit = append(submit, j.submitS)
		wait = append(wait, j.queueWaitS)
		lat = append(lat, j.latencyS)
		polls += j.polls
	}
	// Per-job medians, not sums: two clients overlap, so sums would
	// exceed the op's wall time.
	out.values["service.submit_s"] = median(submit)
	out.values["service.queue_wait_s"] = median(wait)
	out.values["service.polls_per_job"] = float64(polls) / float64(len(jobs))
	sort.Float64s(lat)
	out.values["service.job_latency_p95_s"] = lat[(len(lat)*95+99)/100-1]

	// Beside the op: the same Config run directly (what the job would
	// cost without the daemon) and with periodic checkpoints (what the
	// daemon's crash safety adds to a run).
	dir, err := e.mkdir("ckpt-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	var direct, ckpt []float64
	for i := 0; i < 5; i++ {
		cfg := e.jobCfg(i)
		t0 := time.Now()
		if _, err := chipletnet.Run(cfg); err != nil {
			return out, err
		}
		direct = append(direct, since(t0))
		t0 = time.Now()
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			return out, err
		}
		if _, err := sys.SimulateControlled(chipletnet.RunControl{
			CheckpointPath: filepath.Join(dir, "job.ckpt"), CheckpointEvery: e.sz.ckptEvery,
		}); err != nil {
			return out, err
		}
		ckpt = append(ckpt, since(t0))
	}
	out.values["service.overhead_s"] = median(lat) - median(direct)
	out.values["checkpoint.write_s"] = median(ckpt) - median(direct)
	return out, nil
}
