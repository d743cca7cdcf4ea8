// Package service is the campaign daemon's core: a crash-safe job
// service that accepts simulate / sweep / DSE jobs, schedules them on a
// bounded worker pool with panic isolation and per-job deadlines, and
// persists every state transition to an fsynced journal so a SIGKILLed
// daemon restarts with zero lost and zero duplicated jobs.
//
// Durability is layered, reusing the repository's existing crash-safety
// machinery instead of inventing new formats:
//
//   - The job table (queue included) is an append-only JSONL event
//     journal replayed at Open (the experiments.Journal idiom, healed by
//     internal/jsonl). A job found mid-run after a crash is requeued.
//   - Long simulate jobs checkpoint periodically through
//     internal/checkpoint (RunControl.CheckpointEvery) and resume from
//     their snapshot bit-identically.
//   - DSE jobs write every finished candidate evaluation to the sharded
//     content-addressed evaluation store (dse.Store); after a crash the
//     journaled-done work is served 100% from the store and only the
//     unfinished candidates simulate again.
//
// Graceful drain (SIGTERM in cmd/chipletd) stops intake, interrupts
// in-flight work at the next safe point — simulate jobs snapshot a
// checkpoint, DSE jobs finish their current chunk of candidates —
// requeues it, and returns with the queue fully persisted.
//
// This package is the process layer, not the simulator: it owns
// goroutines, wall-clock deadlines and timers, and is therefore exempt
// from the determinism lint that governs simulator packages (see
// cmd/chipletlint's scope rules). All simulation still flows through the
// module root's RunMany executor.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"chipletnet"
	"chipletnet/internal/checkpoint"
	"chipletnet/internal/dse"
	"chipletnet/internal/service/coord"
)

// JobType selects what a job runs.
type JobType string

// The job types. Every later roadmap direction (trace replay, bigger
// searches) lands as a new JobType here, not as a new binary.
const (
	// JobSimulate runs one configuration to completion.
	JobSimulate JobType = "simulate"
	// JobSweep runs one configuration across an injection-rate ladder.
	JobSweep JobType = "sweep"
	// JobDSE explores a design space and reports the Pareto frontier.
	JobDSE JobType = "dse"
)

// JobSpec is the client-submitted description of one job.
type JobSpec struct {
	Type JobType
	// Config is the fully-resolved configuration (simulate, sweep).
	Config *chipletnet.Config `json:",omitempty"`
	// Rates is the injection-rate ladder (sweep).
	Rates []float64 `json:",omitempty"`
	// Space and Params declare the exploration (dse). A nil Params uses
	// dse.DefaultParams.
	Space  *dse.Space  `json:",omitempty"`
	Params *dse.Params `json:",omitempty"`
	// TimeoutMS overrides the server's per-job deadline in milliseconds:
	// 0 inherits the server default, < 0 disables the deadline.
	TimeoutMS int64 `json:",omitempty"`
}

// Validate checks that the spec names a job type and carries valid
// fields for it: a Config that passes Config.Validate, finite
// non-negative rates, a Space that normalizes. Submit refuses a spec
// that fails before it is journaled, so it never reaches a worker.
func (sp JobSpec) Validate() error {
	switch sp.Type {
	case JobSimulate, JobSweep:
		if sp.Config == nil {
			return fmt.Errorf("service: %s job needs a Config", sp.Type)
		}
		if err := sp.Config.Validate(); err != nil {
			return fmt.Errorf("service: %s job: %w", sp.Type, err)
		}
		if sp.Type == JobSweep && len(sp.Rates) == 0 {
			return errors.New("service: sweep job needs Rates")
		}
		return checkRates(append([]float64{sp.Config.InjectionRate}, sp.Rates...))
	case JobDSE:
		if sp.Space == nil {
			return errors.New("service: dse job needs a Space")
		}
		if _, err := sp.Space.Normalize(); err != nil {
			return fmt.Errorf("service: dse job: %w", err)
		}
		if p := sp.Params; p != nil {
			return checkRates(append([]float64{p.ZeroLoadRate}, p.Rates...))
		}
		return nil
	}
	return fmt.Errorf("service: unknown job type %q", sp.Type)
}

// checkRates rejects a negative, NaN or infinite injection rate.
func checkRates(rates []float64) error {
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("service: injection rate %g is not finite and non-negative", r)
		}
	}
	return nil
}

// JobStatus is a job's lifecycle state.
type JobStatus string

// The job lifecycle: queued → running → done | failed | canceled, with
// running → queued again when a drain interrupts the job.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Progress is a running job's coarse completion state (units depend on
// the job type: evaluations for DSE, runs otherwise).
type Progress struct {
	Done, Total int
}

// Job is the structured per-job status the API serves.
type Job struct {
	ID       string
	Spec     JobSpec
	Status   JobStatus
	Attempts int
	Error    string          `json:",omitempty"`
	Result   json.RawMessage `json:",omitempty"`
	Progress Progress
}

// SweepResult is a sweep job's result payload.
type SweepResult struct {
	Rates   []float64
	Results []chipletnet.Result
}

// DSEResult is a DSE job's result payload: the exploration accounting
// plus the Pareto frontier. Simulated/CacheHits expose the crash-safety
// ledger — a job resumed after a kill reports the journaled-done work as
// cache hits (in coordinator mode the hits include the worker-local
// caches). Degraded/Missing mark a partial result: the worker fleet died
// mid-campaign, so Frontier covers only the evaluations that finished.
type DSEResult struct {
	Enumerated int
	Pruned     int
	Rejected   int
	Candidates int
	Simulated  int
	CacheHits  int
	Degraded   bool `json:",omitempty"`
	Missing    int  `json:",omitempty"`
	Frontier   []dse.Record
}

// Typed service errors, matchable with errors.Is.
var (
	// ErrDraining: the server is shutting down and accepts no new jobs.
	ErrDraining = errors.New("service: draining")
	// ErrQueueFull: the bounded job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrNotFound: no job with that ID.
	ErrNotFound = errors.New("service: job not found")
	// ErrFinished: the job already reached a terminal state.
	ErrFinished = errors.New("service: job already finished")
)

// errDrained marks an in-flight job interrupted by a drain; it goes back
// to the queue, never to failed.
var errDrained = errors.New("service: job interrupted by drain")

// queueCap bounds the pending-job queue; Open raises it to hold every
// replayed pending job.
const queueCap = 1024

// Config tunes the server.
type Config struct {
	// Dir is the state directory: jobs.jsonl, cache/ (sharded evaluation
	// cache) and checkpoints/ live under it.
	Dir string
	// Workers bounds concurrent jobs (default 1).
	Workers int
	// JobTimeout is the default per-job wall-clock deadline (0 = none).
	JobTimeout time.Duration
	// CheckpointEvery is the periodic snapshot interval for simulate
	// jobs, in cycles (default 2000).
	CheckpointEvery int64
	// Coordinator, when set, distributes every DSE job's pending
	// evaluations across the worker fleet instead of simulating locally
	// (see internal/service/coord). The server still plans, serves cache
	// hits, and owns the result; only the simulation fans out.
	Coordinator *coord.Coordinator
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the job service. Open one per state directory; its HTTP
// surface is Handler (cmd/chipletd serves it).
type Server struct {
	cfg   Config
	logf  func(string, ...any)
	jlog  *jobLog
	cache *dse.Store

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for deterministic listings
	cancels map[string]context.CancelFunc
	nextID  int
	defunct bool // draining: reject submissions, readyz → 503
	// Operational counters for /metrics (process-lifetime, not journaled).
	cacheHits int

	queue   chan string
	drainCh chan struct{} // closed exactly once, by Drain
	wg      sync.WaitGroup
}

// Open loads (creating if needed) the state directory, replays the job
// journal — requeuing every job that was queued or running when the
// previous process died — and starts the worker pool.
func Open(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 2000
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, sub := range []string{"", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	cache, err := dse.OpenStore(filepath.Join(cfg.Dir, "cache"))
	if err != nil {
		return nil, err
	}
	jlog, events, quarantined, err := openJobLog(filepath.Join(cfg.Dir, "jobs.jsonl"))
	if err != nil {
		cache.Close()
		return nil, err
	}
	if quarantined > 0 {
		logf("job journal: quarantined %d corrupt lines to jobs.jsonl.rej", quarantined)
	}
	if q := cache.Quarantined(); q > 0 {
		logf("evaluation cache: quarantined %d corrupt lines to .rej sidecars", q)
	}

	s := &Server{
		cfg:     cfg,
		logf:    logf,
		jlog:    jlog,
		cache:   cache,
		jobs:    map[string]*Job{},
		cancels: map[string]context.CancelFunc{},
		drainCh: make(chan struct{}),
	}
	pending := s.replay(events)
	s.queue = make(chan string, max(queueCap, len(pending)))
	for _, id := range pending {
		s.queue <- id
	}
	if len(pending) > 0 {
		logf("recovered %d pending jobs (%d total journaled)", len(pending), len(s.jobs))
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay reconstructs the job table from the journal and returns the
// IDs to requeue, in submission order: jobs journaled queued, plus jobs
// whose last event was start (mid-run at the crash — requeued, never
// lost) or requeue (drained).
func (s *Server) replay(events []jobEvent) []string {
	for _, e := range events {
		if e.Event == evSubmit {
			if e.Spec == nil {
				continue // malformed but journaled; unrunnable without a spec
			}
			if _, dup := s.jobs[e.ID]; dup {
				continue // replayed submit of an existing job: keep the first
			}
			s.jobs[e.ID] = &Job{ID: e.ID, Spec: *e.Spec, Status: StatusQueued}
			s.order = append(s.order, e.ID)
			if n, err := strconv.Atoi(e.ID[1:]); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
			continue
		}
		job, ok := s.jobs[e.ID]
		if !ok {
			continue // event for a quarantined submit
		}
		switch e.Event {
		case evStart:
			job.Status = StatusRunning
			job.Attempts = e.Attempts
		case evRequeue:
			job.Status = StatusQueued
		case evDone:
			job.Status = StatusDone
			job.Result = e.Result
		case evFailed:
			job.Status = StatusFailed
			job.Error = e.Error
			job.Result = e.Result
		case evCanceled:
			job.Status = StatusCanceled
		}
	}
	var pending []string
	for _, id := range s.order {
		job := s.jobs[id]
		if job.Status == StatusRunning {
			// The previous process died mid-run. The journal never saw a
			// terminal event, so the job is requeued — its partial work
			// survives in the evaluation cache / checkpoint and is not
			// redone.
			job.Status = StatusQueued
		}
		if job.Status == StatusQueued {
			pending = append(pending, id)
		}
	}
	return pending
}

// Cache exposes the server's evaluation store (tests and the merge
// tooling read it).
func (s *Server) Cache() *dse.Store { return s.cache }

// Submit validates, journals and enqueues a job, returning its assigned
// ID. The job is durably queued before Submit returns: a crash
// immediately after sees it again at the next Open.
func (s *Server) Submit(spec JobSpec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	if s.defunct {
		s.mu.Unlock()
		return Job{}, ErrDraining
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	job := &Job{ID: id, Spec: spec, Status: StatusQueued}
	select {
	case s.queue <- id:
	default:
		s.nextID-- // the ID was never journaled; reuse it
		s.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	if err := s.jlog.record(jobEvent{ID: id, Event: evSubmit, Spec: &spec}); err != nil {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("service: journaling submission: %w", err)
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	out := *job
	s.mu.Unlock()
	s.logf("job %s: submitted (%s)", id, spec.Type)
	return out, nil
}

// Get returns a copy of the job's current status.
func (s *Server) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// List returns every job in submission order.
func (s *Server) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Cancel cancels a queued or running job. Terminal jobs report
// ErrFinished.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, ErrNotFound
	}
	switch job.Status {
	case StatusQueued:
		job.Status = StatusCanceled
		err := s.jlog.record(jobEvent{ID: id, Event: evCanceled})
		out := *job
		s.mu.Unlock()
		s.logf("job %s: canceled while queued", id)
		return out, err
	case StatusRunning:
		cancel := s.cancels[id]
		out := *job
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return out, nil
	default:
		out := *job
		s.mu.Unlock()
		return out, ErrFinished
	}
}

// Draining reports whether Drain has begun (readyz surfaces this).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.defunct
}

// Drain stops intake, interrupts in-flight jobs at their next safe point
// (simulate jobs snapshot a checkpoint, DSE jobs finish the current
// chunk of candidate evaluations), requeues them durably, and waits for
// the worker pool to exit. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.defunct
	s.defunct = true
	s.mu.Unlock()
	if !already {
		close(s.drainCh)
	}
	s.wg.Wait()
}

// Close drains and releases the journal and cache files.
func (s *Server) Close() error {
	s.Drain()
	return errors.Join(s.jlog.Close(), s.cache.Close())
}

// worker pulls job IDs until the queue closes or a drain begins.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drainCh:
			return
		case id := <-s.queue:
			s.runJob(id)
		}
	}
}

// setStatus applies and journals one job state transition.
func (s *Server) setStatus(job *Job, status JobStatus, e jobEvent) {
	s.mu.Lock()
	job.Status = status
	if e.Event == evDone {
		job.Result = e.Result
		job.Error = ""
	}
	if e.Event == evFailed {
		job.Error = e.Error
		job.Result = e.Result // partial (degraded) payload, when present
	}
	err := s.jlog.record(e)
	s.mu.Unlock()
	if err != nil {
		s.logf("job %s: journaling %s: %v", job.ID, e.Event, err)
	}
}

// setProgress updates a running job's progress counters.
func (s *Server) setProgress(job *Job, done, total int) {
	s.mu.Lock()
	job.Progress = Progress{Done: done, Total: total}
	s.mu.Unlock()
}

// runJob runs one job once, under its deadline, and classifies the
// outcome: done, drained (requeued), degraded, canceled, deadline or
// failed. Simulations are deterministic, so a failed run is not retried:
// a second run would fail the same way.
func (s *Server) runJob(id string) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok || job.Status != StatusQueued || s.defunct {
		// Canceled while queued, already handled, or drained before it
		// began (it stays queued for the next start).
		s.mu.Unlock()
		return
	}
	timeout := s.cfg.JobTimeout
	if job.Spec.TimeoutMS > 0 {
		timeout = time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	} else if job.Spec.TimeoutMS < 0 {
		timeout = 0
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	s.cancels[id] = cancel
	job.Status = StatusRunning
	job.Attempts++
	attempts := job.Attempts
	s.mu.Unlock()
	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
	}()
	s.setStatus(job, StatusRunning, jobEvent{ID: id, Event: evStart, Attempts: attempts})

	result, err := s.execute(ctx, job)
	switch {
	case err == nil:
		s.setStatus(job, StatusDone, jobEvent{ID: id, Event: evDone, Result: result})
		s.logf("job %s: done (attempt %d)", id, attempts)
	case errors.Is(err, chipletnet.ErrInterrupted) || errors.Is(err, errDrained):
		s.setStatus(job, StatusQueued, jobEvent{ID: id, Event: evRequeue, Attempts: attempts})
		s.logf("job %s: drained mid-run; requeued (progress persisted)", id)
	case errors.Is(err, coord.ErrDegraded):
		// The whole worker fleet died. Fail typed and keep the partial
		// frontier the survivors produced as the result payload.
		// Resubmitting once workers return serves the folded records as
		// cache hits and finishes the remainder.
		msg := fmt.Sprintf("degraded: %v", err)
		s.setStatus(job, StatusFailed, jobEvent{ID: id, Event: evFailed, Error: msg, Result: result})
		s.logf("job %s: %s", id, msg)
	case ctx.Err() == context.Canceled:
		s.setStatus(job, StatusCanceled, jobEvent{ID: id, Event: evCanceled})
		s.logf("job %s: canceled", id)
	case ctx.Err() == context.DeadlineExceeded:
		msg := fmt.Sprintf("job deadline (%v) exceeded", timeout)
		s.setStatus(job, StatusFailed, jobEvent{ID: id, Event: evFailed, Error: msg})
		s.logf("job %s: %s", id, msg)
	default:
		s.setStatus(job, StatusFailed, jobEvent{ID: id, Event: evFailed, Error: err.Error()})
		s.logf("job %s: failed: %v", id, err)
	}
}

// execute runs one job, dispatching on its type. A panic
// in the job body is recovered into an error (one bad candidate must
// never take the daemon down).
func (s *Server) execute(ctx context.Context, job *Job) (result json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	switch job.Spec.Type {
	case JobSimulate:
		return s.executeSimulate(ctx, job)
	case JobSweep:
		return s.executeSweep(ctx, job)
	case JobDSE:
		return s.executeDSE(ctx, job)
	}
	return nil, fmt.Errorf("service: unknown job type %q", job.Spec.Type)
}

// checkpointPath is where a simulate job snapshots.
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.Dir, "checkpoints", id+".ckpt")
}

// executeSimulate runs one configuration, checkpointing every
// CheckpointEvery cycles so a SIGKILLed daemon loses at most that much
// work, and snapshotting on drain. A checkpoint left by a previous
// start resumes bit-identically; one that cannot be resumed (corrupt,
// another format version, or no longer fitting its configuration) is
// removed and the job runs from cycle 0.
func (s *Server) executeSimulate(ctx context.Context, job *Job) (json.RawMessage, error) {
	s.setProgress(job, 0, 1)
	ckpt := s.checkpointPath(job.ID)
	ctrl := chipletnet.RunControl{
		CheckpointPath:  ckpt,
		CheckpointEvery: s.cfg.CheckpointEvery,
		Interrupt:       s.drainCh,
		Deadline:        ctx.Done(),
	}
	var res chipletnet.Result
	var err error
	fresh := true
	if _, statErr := os.Stat(ckpt); statErr == nil {
		s.logf("job %s: resuming from checkpoint", job.ID)
		res, err = chipletnet.ResumeRun(ckpt, ctrl)
		if fresh = unresumable(err); fresh {
			s.logf("job %s: discarding checkpoint (%v); running from cycle 0", job.ID, err)
			os.Remove(ckpt)
		}
	}
	if fresh {
		var sys *chipletnet.System
		if sys, err = chipletnet.Build(*job.Spec.Config); err != nil {
			return nil, err
		}
		res, err = sys.SimulateControlled(ctrl)
	}
	if errors.Is(err, chipletnet.ErrTimeout) && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", chipletnet.ErrCanceled, ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	os.Remove(ckpt) // the snapshot is superseded by the result
	s.setProgress(job, 1, 1)
	return json.Marshal(res)
}

// unresumable reports whether a checkpoint failed to resume because of
// the file itself rather than the run: such a snapshot will never load,
// so the job must be redone from the start.
func unresumable(err error) bool {
	for _, bad := range []error{checkpoint.ErrNotCheckpoint, checkpoint.ErrCorrupt, checkpoint.ErrVersion, checkpoint.ErrMismatch} {
		if errors.Is(err, bad) {
			return true
		}
	}
	return false
}

// executeSweep runs the rate ladder in one parallel batch; a drain
// cancels the batch and requeues the job (sweep runs are short relative
// to simulate jobs, so they re-run rather than checkpoint).
func (s *Server) executeSweep(ctx context.Context, job *Job) (json.RawMessage, error) {
	rates := append([]float64(nil), job.Spec.Rates...)
	sort.Float64s(rates)
	s.setProgress(job, 0, len(rates))
	cfgs := make([]chipletnet.Config, len(rates))
	for i, r := range rates {
		cfgs[i] = *job.Spec.Config
		cfgs[i].InjectionRate = r
	}
	dctx, stop := s.drainContext(ctx)
	defer stop()
	results, errs := chipletnet.RunMany(dctx, cfgs)
	var joined []error
	for i, e := range errs {
		if e != nil {
			joined = append(joined, fmt.Errorf("rate %g: %w", rates[i], e))
		}
	}
	if err := errors.Join(joined...); err != nil {
		if errors.Is(err, chipletnet.ErrCanceled) && s.Draining() && ctx.Err() == nil {
			return nil, errDrained
		}
		if errors.Is(err, chipletnet.ErrCanceled) && ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %v", chipletnet.ErrCanceled, ctx.Err())
		}
		return nil, err
	}
	s.setProgress(job, len(rates), len(rates))
	return json.Marshal(SweepResult{Rates: rates, Results: results})
}

// executeDSE plans and evaluates an exploration through dse.Evaluate.
// Every finished chunk of candidates lands in the store before the next
// begins, so a crash loses at most the chunk in flight, a drain finishes
// the current chunk and requeues, and a resumed job serves the finished
// work entirely from the store.
func (s *Server) executeDSE(ctx context.Context, job *Job) (json.RawMessage, error) {
	params := dse.DefaultParams()
	if job.Spec.Params != nil {
		params = *job.Spec.Params
	}
	plan, err := dse.NewPlan(*job.Spec.Space, params, s.cache)
	if err != nil {
		return nil, err
	}
	s.logf("job %s: %d routing structures certified, %d pre-flight verdicts from the cache; %d cache hits, %d to simulate",
		job.ID, plan.Certifications, plan.StoredVerdicts, len(plan.Hits), len(plan.Pending))
	total := len(plan.Candidates)
	s.setProgress(job, len(plan.Hits), total)
	s.countCacheHits(len(plan.Hits))
	if s.cfg.Coordinator != nil && len(plan.Pending) > 0 {
		return s.executeDSECoordinated(ctx, job, plan)
	}
	done := len(plan.Hits)
	recs, err := dse.Evaluate(ctx, plan.Pending, s.cache, func(chunk []dse.Record) error {
		done += len(chunk)
		s.setProgress(job, done, total)
		if s.Draining() {
			return errDrained
		}
		return nil
	})
	switch {
	case errors.Is(err, chipletnet.ErrCanceled) && ctx.Err() != nil:
		return nil, fmt.Errorf("%w: %v", chipletnet.ErrCanceled, ctx.Err())
	case err != nil:
		return nil, err
	}
	return dseResult(plan, append(append([]dse.Record(nil), plan.Hits...), recs...), len(plan.Pending))
}

// executeDSECoordinated fans plan.Pending out across the coordinator's
// worker fleet. The daemon keeps planning, cache-hit serving and result
// assembly; only the simulations travel. Records fold into s.cache as
// workers report them, so a drain or crash mid-campaign costs nothing
// already folded — the resumed job replans and serves it as hits.
func (s *Server) executeDSECoordinated(ctx context.Context, job *Job, plan *dse.Plan) (json.RawMessage, error) {
	dctx, cancel := s.drainContext(ctx)
	defer cancel()
	total := len(plan.Candidates)
	recs, simulated, err := s.cfg.Coordinator.RunCampaign(dctx, job.ID, plan, s.cache, func(done, _ int) {
		s.setProgress(job, len(plan.Hits)+done, total)
	})
	// Worker-local cache hits are hits too: the fleet returned records it
	// did not have to simulate.
	s.countCacheHits(len(recs) - simulated)
	all := append(append([]dse.Record(nil), plan.Hits...), recs...)
	switch {
	case err == nil:
		return dseResult(plan, all, simulated)
	case errors.Is(err, coord.ErrDegraded):
		// The partial payload keeps everything the survivors finished.
		partial, merr := dseResult(plan, all, simulated)
		if merr != nil {
			return nil, errors.Join(err, merr)
		}
		return partial, err
	case dctx.Err() != nil && ctx.Err() == nil:
		return nil, errDrained
	case ctx.Err() != nil:
		return nil, fmt.Errorf("%w: %v", chipletnet.ErrCanceled, ctx.Err())
	}
	return nil, err
}

// dseResult assembles a DSE job's payload from the plan, the records
// gathered so far (cache hits included) and the number of evaluations
// actually simulated. Records short of the plan's candidates make a
// partial result: the frontier over every record that did finish,
// flagged Degraded with the missing count, so a failed campaign still
// reports everything it learned.
func dseResult(plan *dse.Plan, all []dse.Record, simulated int) (json.RawMessage, error) {
	res := DSEResult{
		Enumerated: len(plan.Candidates) + len(plan.Rejected) + len(plan.Pruned),
		Pruned:     len(plan.Pruned),
		Rejected:   len(plan.Rejected),
		Candidates: len(plan.Candidates),
		Simulated:  simulated,
		CacheHits:  len(all) - simulated,
	}
	if res.Missing = len(plan.Candidates) - len(all); res.Missing > 0 {
		res.Degraded = true
		sorted := append([]dse.Record(nil), all...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		res.Frontier = dse.Frontier(sorted)
	} else {
		outcome, err := dse.Collect(plan, all)
		if err != nil {
			return nil, err
		}
		res.Frontier = outcome.Frontier
	}
	return json.Marshal(res)
}

// countCacheHits bumps the /metrics cache-hit counter.
func (s *Server) countCacheHits(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.cacheHits += n
	s.mu.Unlock()
}

// drainContext derives a context canceled either with its parent or when
// the server drains, so batch executors stop promptly on SIGTERM.
func (s *Server) drainContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	go func() {
		select {
		case <-s.drainCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
