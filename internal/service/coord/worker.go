package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"chipletnet/internal/dse"
	"chipletnet/internal/service/backoff"
)

const (
	// maxPostAttempts bounds how long a worker hammers an unreachable
	// coordinator per request before abandoning the shard: the lease TTL
	// reassigns the work anyway, so there is no point outliving it.
	maxPostAttempts = 8
	// maxLeases bounds the shards a worker holds at once (one being
	// evaluated, one queued) so a single worker never hoards a campaign.
	maxLeases = 2
)

// httpClient carries every worker request to the coordinator.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// WorkerConfig tunes one worker's membership in a coordinator fleet.
type WorkerConfig struct {
	// ID names the worker in heartbeats, leases and metrics. It must be
	// stable for the process lifetime and unique in the fleet; chipletd
	// defaults to hostname/listen-address and takes -worker-id overrides.
	ID string
	// Join is the coordinator's base URL (http://host:port).
	Join string
	// Cache is the worker-local evaluation store: hits are shipped back
	// without re-simulation, fresh records are persisted locally before
	// they are reported, so a crash loses no finished work. nil means a
	// memory-only store.
	Cache *dse.Store
	// Heartbeat is the longest beat interval (default 1s). The worker
	// beats at a third of the coordinator's lease TTL when that is
	// shorter, so a short TTL never expires a live worker's leases.
	Heartbeat time.Duration
	// Backoff paces request retries; the zero value means 200ms base, 5s
	// cap, 0.5 jitter keyed by worker ID — a fleet retrying one flapped
	// coordinator spreads out instead of stampeding.
	Backoff backoff.Policy
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// worker is the running state behind RunWorker.
type worker struct {
	cfg WorkerConfig

	mu sync.Mutex
	// held tracks the assignments this worker is actually working on,
	// from the moment one is queued until runShard returns. Heartbeats
	// echo it, and the coordinator renews exactly the echoed leases: a
	// shard runShard abandoned (evaluation error, revocation, key
	// mismatch) drops out of the set, its lease quietly expires, and
	// the remainder moves to a healthier worker instead of being
	// renewed forever behind an otherwise-healthy heartbeat.
	held map[string]Assignment
}

// key is the worker-side identity of an assignment: leases are fenced
// by token, so a re-grant after expiry is a different key.
func (a Assignment) key() string { return fmt.Sprintf("%s/%d/%d", a.Campaign, a.Shard, a.Lease) }

func (w *worker) hold(a Assignment) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.held[a.key()] = a
}

func (w *worker) drop(a Assignment) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.held, a.key())
}

func (w *worker) heldSnapshot() []Assignment {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Assignment, 0, len(w.held))
	for _, a := range w.held {
		out = append(out, a)
	}
	return out
}

// RunWorker joins the coordinator at cfg.Join and evaluates leased
// shards until ctx ends, which is the only way it returns. Heartbeats
// run concurrently with evaluation so a long simulation cannot cost the
// worker its leases.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.ID == "" {
		return errors.New("coord: WorkerConfig.ID is required")
	}
	if cfg.Join == "" {
		return errors.New("coord: WorkerConfig.Join is required")
	}
	if cfg.Cache == nil {
		mem, err := dse.OpenStore("")
		if err != nil {
			return err
		}
		cfg.Cache = mem
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Backoff == (backoff.Policy{}) {
		cfg.Backoff = backoff.Policy{Base: 200 * time.Millisecond, Cap: 5 * time.Second, Jitter: 0.5}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	w := &worker{cfg: cfg, held: map[string]Assignment{}}

	assignments := make(chan Assignment, 4*maxLeases)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx, assignments)
	}()
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		case a := <-assignments:
			w.runShard(ctx, a)
		}
	}
}

// heartbeatLoop beats immediately and then on every tick, enqueueing
// assignments it has not seen. Leases are fenced by token, so the seen
// set keys on the full triple: a re-grant after expiry carries a fresh
// token and is picked up as new work. Every response carries the lease
// TTL, and the tick follows it down to a third of it.
func (w *worker) heartbeatLoop(ctx context.Context, out chan<- Assignment) {
	seen := map[string]bool{}
	interval := w.cfg.Heartbeat
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		var resp heartbeatResponse
		err := w.post(ctx, "heartbeat", heartbeatRequest{Worker: w.cfg.ID, Capacity: maxLeases, Held: w.heldSnapshot()}, &resp)
		if err != nil {
			if ctx.Err() == nil {
				w.cfg.Logf("worker %s: heartbeat: %v", w.cfg.ID, err)
			}
			// The ticker paces the retry; missing beats only risks the
			// leases the TTL was designed to reclaim.
		} else {
			next := w.cfg.Heartbeat
			if third := time.Duration(resp.TTLMS) * time.Millisecond / 3; third > 0 {
				next = min(next, third)
			}
			// Reset restarts the period, so resetting on every beat
			// would add each beat's round trip to the interval.
			if next != interval {
				interval = next
				t.Reset(interval)
			}
			offered := make(map[string]bool, len(resp.Assignments))
			for _, a := range resp.Assignments {
				k := a.key()
				offered[k] = true
				if seen[k] {
					continue
				}
				select {
				case out <- a:
					// Held from the moment it is queued: the echo keeps
					// the lease alive until runShard settles it.
					w.hold(a)
					seen[k] = true
				default:
					// Queue full: leave it unseen so the next beat
					// re-offers it.
				}
			}
			// A token absent from the response is settled — done,
			// expired, or abandoned — and can never be re-offered
			// (re-grants carry a fresh token), so its seen entry is
			// garbage. Pruning keeps a long-lived worker bounded.
			for k := range seen {
				if !offered[k] {
					delete(seen, k)
				}
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// errAbandoned stops runShard's evaluation loop after a delta post
// failed or the lease was revoked.
var errAbandoned = errors.New("coord: shard abandoned")

// runShard drains one leased shard: fetch the remaining evaluations,
// check every item's key, send the local-cache hits, then simulate the
// rest with dse.Evaluate and report each finished record in its own
// delta, the smallest possible unreported tail. Any terminal trouble —
// revocation, a conflict, a key mismatch, an evaluation failure —
// abandons the shard and lets the lease TTL hand the remainder to a
// healthier worker.
func (w *worker) runShard(ctx context.Context, a Assignment) {
	// Settled either way: stop echoing the lease, so an abandoned shard
	// expires by TTL instead of staying leased to this worker forever.
	defer w.drop(a)
	req := workRequest{Worker: w.cfg.ID, Campaign: a.Campaign, Shard: a.Shard, Lease: a.Lease}
	var work workResponse
	if !w.postRetry(ctx, "work", req, &work) || work.Revoked {
		return
	}
	// Re-derive every content address before trusting any: a worker must
	// never persist under a key it cannot reproduce, or one corrupted
	// message poisons the shared cache behind a valid-looking address.
	for _, item := range work.Items {
		if dse.Key(item.Candidate.Cfg, work.Params) != item.Key {
			w.cfg.Logf("worker %s: campaign %s shard %x: key mismatch for %s; abandoning shard",
				w.cfg.ID, a.Campaign, a.Shard, item.Candidate.Name)
			return
		}
	}
	send := func(rec dse.Record, simulated bool) bool {
		var resp deltaResponse
		ok := w.postRetry(ctx, "delta", deltaRequest{
			Worker:   w.cfg.ID,
			Campaign: a.Campaign,
			Shard:    a.Shard,
			Lease:    a.Lease,
			Records:  []DeltaRecord{{Record: rec, Simulated: simulated}},
		}, &resp)
		return ok && !resp.Revoked
	}
	var pending []dse.Eval
	for _, item := range work.Items {
		if rec, hit := w.cfg.Cache.Lookup(item.Key); hit {
			if !send(rec, false) {
				return
			}
			continue
		}
		pending = append(pending, dse.Eval{Candidate: item.Candidate, Params: work.Params, Key: item.Key, Cert: item.Cert})
	}
	_, err := dse.Evaluate(ctx, pending, w.cfg.Cache, func(done []dse.Record) error {
		for _, rec := range done {
			if !send(rec, true) {
				return errAbandoned
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errAbandoned) && ctx.Err() == nil {
		w.cfg.Logf("worker %s: campaign %s shard %x: %v; abandoning shard", w.cfg.ID, a.Campaign, a.Shard, err)
	}
}

// postRetry posts until success, a terminal response, or the attempt
// budget runs out, paced by the per-worker jittered backoff.
func (w *worker) postRetry(ctx context.Context, path string, reqBody, respBody any) bool {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if w.cfg.Backoff.WaitFor(ctx, w.cfg.ID+"/"+path, attempt) != nil {
				return false
			}
		}
		err := w.post(ctx, path, reqBody, respBody)
		if err == nil {
			return true
		}
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusConflict {
			w.cfg.Logf("worker %s: %s: %v; abandoning shard", w.cfg.ID, path, err)
			return false
		}
		if ctx.Err() != nil {
			return false
		}
		if attempt+1 >= maxPostAttempts {
			w.cfg.Logf("worker %s: %s: giving up after %d attempts: %v", w.cfg.ID, path, attempt+1, err)
			return false
		}
	}
}

func (w *worker) post(ctx context.Context, path string, reqBody, respBody any) error {
	buf, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	url := strings.TrimRight(w.cfg.Join, "/") + "/coord/" + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return &statusError{code: res.StatusCode, msg: strings.TrimSpace(string(msg))}
	}
	return json.NewDecoder(res.Body).Decode(respBody)
}

// statusError is a non-200 coordinator response.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("coordinator returned %d: %s", e.code, e.msg)
}
