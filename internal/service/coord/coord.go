// Package coord turns a fleet of chipletd daemons into one fault-tolerant
// design-space-exploration machine. One daemon runs as the coordinator; the
// others join as workers over the same HTTP+JSON surface the job API uses.
//
// The unit of distribution is the cache shard: dse.Key is hex SHA-256, so
// the sixteen first-nibble shards (dse.ShardIndex) partition any campaign's
// pending evaluations into disjoint, stably-addressed buckets. The
// coordinator hands each non-empty shard to a worker under a revocable
// lease; the worker streams finished Records back as JSONL-shaped delta
// batches that fold into the campaign store with dse.Merge. Folding is
// idempotent — redelivered records dedupe by content address, divergent
// content is a typed dse.ErrConflict — so "at least once" delivery is safe
// and a worker killed mid-shard costs only its unreported tail.
//
// Liveness is heartbeat-based and lease renewal is echo-driven: each
// beat lists the assignments the worker is still working on, and only
// those leases are renewed. A worker that misses its TTL forfeits every
// lease it holds — and so does a live worker that abandoned a shard,
// since the shard drops out of its echo — and the shards go back to the
// pool after a per-shard
// jittered backoff (backoff.Policy.DelayFor) so a flapping worker does not
// ping-pong its shards. Every lease transition is journaled to coord.jsonl
// with the same fsynced append-only discipline as the job journal, so a
// coordinator crash-restart replays to the exact lease state and running
// workers keep their shards across the restart. If the whole fleet dies,
// the campaign degrades instead of hanging: after DeadFleetGrace with no
// heartbeats the campaign returns the records folded so far plus
// ErrDegraded.
//
// Because every record is content-addressed and the determinism contract
// makes equal keys carry equal content, the merged frontier of a
// distributed campaign is byte-identical to a single-machine run no matter
// which workers died along the way.
package coord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"chipletnet/internal/dse"
	"chipletnet/internal/service/backoff"
)

// ErrDegraded reports a campaign that ran out of fleet: no worker
// heartbeat arrived for DeadFleetGrace while evaluations were still
// outstanding. The campaign's partial results are returned alongside it.
// Returned wrapped; test with errors.Is.
var ErrDegraded = errors.New("coord: campaign degraded: worker fleet dead")

// Config tunes the coordinator.
type Config struct {
	// Dir is the state directory; the lease journal lives at
	// Dir/coord.jsonl.
	Dir string
	// HeartbeatTTL is how long a lease (and a worker's liveness) survives
	// without a heartbeat (default 10s). Workers are told to beat at a
	// third of it.
	HeartbeatTTL time.Duration
	// DeadFleetGrace is how long a campaign with outstanding work waits
	// with zero live workers before degrading (default 1m).
	DeadFleetGrace time.Duration
	// Reassign paces the re-offer of an expired shard; the zero value
	// means 250ms base, 5s cap, 0.5 jitter. The jitter key is the
	// campaign/shard pair, so reassignment schedules are deterministic
	// per shard yet spread across shards.
	Reassign backoff.Policy
	// Tick is the supervision interval (default 100ms).
	Tick time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Coordinator owns the lease state of every distributed campaign. Open
// one per state directory; Register mounts its protocol on the daemon
// mux and RunCampaign drives one campaign to completion.
type Coordinator struct {
	cfg  Config
	logf func(string, ...any)
	jlog *leaseLog

	mu      sync.Mutex
	workers map[string]*workerState
	active  map[string]*campaign
	// prior holds replayed (or parked) lease state of campaigns not
	// currently running, keyed by campaign ID; RunCampaign adopts it so
	// leases survive coordinator restarts and drain/requeue cycles.
	prior map[string]*priorCampaign
}

// workerState is what the coordinator knows about one worker.
type workerState struct {
	lastBeat  time.Time
	records   int // records folded from this worker (fresh only)
	simulated int // of those, freshly simulated (not local cache hits)
}

type shardPhase int

const (
	shardPending shardPhase = iota
	shardLeased
	shardDone
)

// shardState is one shard of one campaign: its remaining work and the
// lease protecting it.
type shardState struct {
	phase  shardPhase
	worker string
	// lease is the fencing token: it bumps on every grant, so a delta or
	// work fetch carrying an old lease is recognized as revoked.
	lease       int
	grants      int // total grants ever, = the highest lease issued
	expiry      time.Time
	availableAt time.Time // reassignment backoff gate
	work        map[string]dse.Eval
}

// campaign is one in-flight distributed exploration, keyed by job ID.
type campaign struct {
	id        string
	params    dse.Params
	store     *dse.Store
	shards    [dse.ShardN]shardState
	total     int // pending evaluations at start
	simulated int // freshly simulated (vs served from worker caches)
	progress  func(done, total int)
	err       error // sticky poison (merge conflict, degradation)
	done      chan struct{}
	finished  bool
	// foldMu serializes store merges. It is separate from (and never
	// held together with) the coordinator mutex: the merge is per-record
	// disk I/O, and stalling heartbeat handling behind a slow disk would
	// push live workers toward the lease TTL.
	foldMu sync.Mutex
}

func (camp *campaign) remainingLocked() int {
	n := 0
	for i := range camp.shards {
		n += len(camp.shards[i].work)
	}
	return n
}

func (camp *campaign) completeLocked() {
	if !camp.finished {
		camp.finished = true
		close(camp.done)
	}
}

// priorCampaign is the lease state a finished-nothing campaign left
// behind: enough to restore leases and keep fencing tokens monotonic.
type priorCampaign struct {
	shards [dse.ShardN]priorShard
}

type priorShard struct {
	worker string
	lease  int
	grants int
}

// Open loads (creating if needed) the lease journal under cfg.Dir and
// replays it, so leases granted by a previous incarnation are honored.
func Open(cfg Config) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, errors.New("coord: Config.Dir is required")
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = 10 * time.Second
	}
	if cfg.DeadFleetGrace <= 0 {
		cfg.DeadFleetGrace = time.Minute
	}
	if cfg.Reassign == (backoff.Policy{}) {
		cfg.Reassign = backoff.Policy{Base: 250 * time.Millisecond, Cap: 5 * time.Second, Jitter: 0.5}
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// The coordinator may open before the service creates the shared
	// state directory (chipletd wires them in that order).
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	jlog, events, quarantined, err := openLeaseLog(filepath.Join(cfg.Dir, "coord.jsonl"))
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		logf:    logf,
		jlog:    jlog,
		workers: map[string]*workerState{},
		active:  map[string]*campaign{},
		prior:   map[string]*priorCampaign{},
	}
	if quarantined > 0 {
		logf("coord: lease journal: quarantined %d corrupt lines", quarantined)
	}
	for _, e := range events {
		c.replay(e)
	}
	if len(c.prior) > 0 {
		logf("coord: replayed lease state of %d unfinished campaigns", len(c.prior))
	}
	// The journal is append-only while running, so finished campaigns'
	// entries and superseded grants accumulate until the next open.
	// Distill the replayed state to one event per shard and rewrite, so
	// the journal stays bounded by live lease state, not history.
	if live := c.distillJournal(); len(live) < len(events) {
		if err := c.jlog.rewrite(live); err != nil {
			c.jlog.Close()
			return nil, fmt.Errorf("coord: compacting lease journal: %w", err)
		}
		logf("coord: compacted lease journal: %d events -> %d", len(events), len(live))
	}
	return c, nil
}

// distillJournal reduces the prior-campaign table to the minimal event
// list whose replay reproduces it — nothing at all for finished
// campaigns. A leased shard always has lease == grants (tokens bump
// only on grant), so a single grant event per shard restores worker,
// token and monotonicity; an expired shard keeps its token high-water
// mark through a grant with no worker, which replays as unleased.
func (c *Coordinator) distillJournal() []leaseEvent {
	ids := make([]string, 0, len(c.prior))
	for id := range c.prior {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	live := []leaseEvent{}
	for _, id := range ids {
		p := c.prior[id]
		for i := range p.shards {
			ps := p.shards[i]
			if ps.grants == 0 {
				continue
			}
			live = append(live, leaseEvent{C: id, Ev: evGrant, Shard: i, Worker: ps.worker, Lease: ps.grants})
		}
	}
	return live
}

// replay folds one journal event into the prior-campaign table.
func (c *Coordinator) replay(e leaseEvent) {
	if e.Ev == evFinish {
		delete(c.prior, e.C)
		return
	}
	if e.Shard < 0 || e.Shard >= dse.ShardN {
		return
	}
	p := c.prior[e.C]
	if p == nil {
		p = &priorCampaign{}
		c.prior[e.C] = p
	}
	ps := &p.shards[e.Shard]
	switch e.Ev {
	case evGrant:
		ps.worker, ps.lease = e.Worker, e.Lease
		if e.Lease > ps.grants {
			ps.grants = e.Lease
		}
	case evExpire:
		if ps.lease == e.Lease {
			ps.worker = ""
		}
	case evShardDone:
		ps.worker = ""
	}
}

// Close releases the lease journal.
func (c *Coordinator) Close() error { return c.jlog.Close() }

// RunCampaign distributes plan.Pending across the worker fleet and
// blocks until every evaluation has been folded into store, the fleet
// died (partial records + ErrDegraded), a fold hit dse.ErrConflict, or
// ctx ended. Records come back in plan.Pending order; simulated counts
// the evaluations the fleet actually ran (the rest were worker-local
// cache hits). id must be stable across restarts — the job ID — because
// it keys the journaled lease state a restarted coordinator adopts.
func (c *Coordinator) RunCampaign(ctx context.Context, id string, plan *dse.Plan, store *dse.Store, progress func(done, total int)) ([]dse.Record, int, error) {
	if progress == nil {
		progress = func(int, int) {}
	}
	camp := &campaign{
		id:       id,
		params:   plan.Params,
		store:    store,
		total:    len(plan.Pending),
		progress: progress,
		done:     make(chan struct{}),
	}
	for i := range camp.shards {
		camp.shards[i].work = map[string]dse.Eval{}
	}
	for _, ev := range plan.Pending {
		si, err := dse.ShardIndex(ev.Key)
		if err != nil {
			return nil, 0, err
		}
		camp.shards[si].work[ev.Key] = ev
	}

	c.mu.Lock()
	if _, dup := c.active[id]; dup {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("coord: campaign %s already active", id)
	}
	now := time.Now()
	prior := c.prior[id]
	delete(c.prior, id)
	for i := range camp.shards {
		sh := &camp.shards[i]
		if len(sh.work) == 0 {
			// Empty shards (including ones a previous incarnation fully
			// folded — their records are cache hits by now) are done
			// without a journal entry.
			sh.phase = shardDone
			continue
		}
		if prior == nil {
			continue
		}
		ps := prior.shards[i]
		sh.grants = ps.grants // fencing tokens stay monotonic across restarts
		if ps.worker != "" {
			// The journaled lease survives the restart: its worker keeps
			// the shard undisturbed, renewing on its next heartbeat or
			// losing it to the fresh TTL like any other silence.
			sh.phase, sh.worker, sh.lease = shardLeased, ps.worker, ps.lease
			sh.expiry = now.Add(c.cfg.HeartbeatTTL)
		}
	}
	if camp.remainingLocked() == 0 {
		// Every evaluation was already folded (a prior incarnation did
		// the work but died before recording the finish). Retire the
		// journaled lease state, or its grants replay as live on every
		// future restart.
		if prior != nil {
			if err := c.jlog.record(leaseEvent{C: id, Ev: evFinish}); err != nil {
				c.logf("coord: lease journal: %v", err)
			}
		}
		c.mu.Unlock()
		return c.collect(camp, plan)
	}
	c.active[id] = camp
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		if c.active[id] == camp {
			delete(c.active, id)
		}
		if !camp.finished {
			// Park the lease state so a same-process resubmission (a
			// drained job requeued before shutdown completes, a canceled
			// job retried) adopts it instead of double-granting. A new
			// process gets the same state from the journal.
			p := &priorCampaign{}
			for i := range camp.shards {
				sh := &camp.shards[i]
				p.shards[i] = priorShard{grants: sh.grants}
				if sh.phase == shardLeased {
					p.shards[i].worker, p.shards[i].lease = sh.worker, sh.lease
				}
			}
			c.prior[id] = p
		}
		c.mu.Unlock()
	}()

	c.logf("coord: campaign %s: %d evaluations across %d shards", id, camp.total, camp.activeShards())

	tick := time.NewTicker(c.cfg.Tick)
	defer tick.Stop()
	var deadSince time.Time
	for {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-camp.done:
			return c.collect(camp, plan)
		case <-tick.C:
		}
		c.mu.Lock()
		now := time.Now()
		c.superviseLocked(camp, now)
		switch {
		case camp.finished:
			// done channel fires on the next select pass
		case c.liveWorkersLocked(now) > 0:
			deadSince = time.Time{}
		case deadSince.IsZero():
			deadSince = now
		case now.Sub(deadSince) >= c.cfg.DeadFleetGrace:
			camp.err = fmt.Errorf("%w: no heartbeat for %v with %d evaluations outstanding",
				ErrDegraded, c.cfg.DeadFleetGrace, camp.remainingLocked())
			camp.completeLocked()
		}
		c.mu.Unlock()
	}
}

// activeShards counts shards with work (no lock: called once at start).
func (camp *campaign) activeShards() int {
	n := 0
	for i := range camp.shards {
		if len(camp.shards[i].work) > 0 {
			n++
		}
	}
	return n
}

// superviseLocked expires overdue leases and requeues their shards
// behind the reassignment backoff gate.
func (c *Coordinator) superviseLocked(camp *campaign, now time.Time) {
	if camp.finished {
		return
	}
	for i := range camp.shards {
		sh := &camp.shards[i]
		if sh.phase != shardLeased || now.Before(sh.expiry) {
			continue
		}
		c.logf("coord: campaign %s shard %x: lease %d to %s expired; requeueing %d evaluations",
			camp.id, i, sh.lease, sh.worker, len(sh.work))
		if err := c.jlog.record(leaseEvent{C: camp.id, Ev: evExpire, Shard: i, Worker: sh.worker, Lease: sh.lease}); err != nil {
			c.logf("coord: lease journal: %v", err)
		}
		sh.phase, sh.worker = shardPending, ""
		sh.availableAt = now.Add(c.cfg.Reassign.DelayFor(fmt.Sprintf("%s/%x", camp.id, i), sh.grants))
	}
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastBeat) < c.cfg.HeartbeatTTL {
			n++
		}
	}
	return n
}

// collect assembles the campaign result from the store, in plan.Pending
// order. Missing records are only possible on a degraded (or poisoned)
// campaign, where partial results ride alongside the error.
func (c *Coordinator) collect(camp *campaign, plan *dse.Plan) ([]dse.Record, int, error) {
	c.mu.Lock()
	simulated, err := camp.simulated, camp.err
	c.mu.Unlock()
	var recs []dse.Record
	missing := 0
	for _, ev := range plan.Pending {
		if rec, ok := camp.store.Lookup(ev.Key); ok {
			recs = append(recs, rec)
		} else {
			missing++
		}
	}
	if err == nil && missing > 0 {
		err = fmt.Errorf("coord: campaign %s completed with %d records missing from the store", camp.id, missing)
	}
	return recs, simulated, err
}

// heartbeat registers/renews worker and returns the leases it renewed
// plus fresh grants up to capacity total. Renewal is echo-driven: only
// leases the worker lists as held are extended, so a shard the worker
// abandoned (evaluation error, key mismatch, delta give-up) stops being
// renewed the moment the worker drops it and expires by TTL — a healthy
// heartbeat alone cannot pin an abandoned shard forever. A just-granted
// lease the worker has not echoed yet keeps its grant-time expiry; the
// next beat, well inside the TTL, picks it up.
func (c *Coordinator) heartbeat(worker string, capacity int, held []Assignment) []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerState{}
		c.workers[worker] = ws
		c.logf("coord: worker %s joined", worker)
	}
	ws.lastBeat = now

	heldSet := make(map[Assignment]bool, len(held))
	for _, a := range held {
		heldSet[a] = true
	}

	ids := make([]string, 0, len(c.active))
	for id := range c.active {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var out []Assignment
	leases := 0 // every lease the worker holds counts against capacity, echoed or not
	for _, id := range ids {
		camp := c.active[id]
		for i := range camp.shards {
			sh := &camp.shards[i]
			if sh.phase != shardLeased || sh.worker != worker {
				continue
			}
			leases++
			if heldSet[Assignment{Campaign: id, Shard: i, Lease: sh.lease}] {
				sh.expiry = now.Add(c.cfg.HeartbeatTTL)
				out = append(out, Assignment{Campaign: id, Shard: i, Lease: sh.lease})
			}
		}
	}
	for _, id := range ids {
		camp := c.active[id]
		for i := range camp.shards {
			if leases >= capacity {
				return out
			}
			sh := &camp.shards[i]
			if sh.phase != shardPending || len(sh.work) == 0 || now.Before(sh.availableAt) {
				continue
			}
			sh.grants++
			lease := sh.grants
			if err := c.jlog.record(leaseEvent{C: id, Ev: evGrant, Shard: i, Worker: worker, Lease: lease}); err != nil {
				// An unjournaled lease would vanish on restart while the
				// worker believes it holds the shard; don't grant it.
				c.logf("coord: lease journal: %v", err)
				sh.grants--
				continue
			}
			sh.phase, sh.worker, sh.lease = shardLeased, worker, lease
			sh.expiry = now.Add(c.cfg.HeartbeatTTL)
			leases++
			out = append(out, Assignment{Campaign: id, Shard: i, Lease: lease})
			c.logf("coord: campaign %s shard %x: leased to %s (lease %d, %d evaluations)",
				id, i, worker, lease, len(sh.work))
		}
	}
	return out
}

// work returns the remaining evaluations of a leased shard, or revoked
// if the lease (or the campaign) is gone — the worker drops the shard
// and waits for its next assignment.
func (c *Coordinator) work(worker, campaignID string, shard, lease int) (dse.Params, []WorkItem, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp := c.active[campaignID]
	if camp == nil || shard < 0 || shard >= dse.ShardN {
		return dse.Params{}, nil, true
	}
	sh := &camp.shards[shard]
	if sh.phase != shardLeased || sh.worker != worker || sh.lease != lease {
		return dse.Params{}, nil, true
	}
	keys := make([]string, 0, len(sh.work))
	for k := range sh.work {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	items := make([]WorkItem, 0, len(keys))
	for _, k := range keys {
		ev := sh.work[k]
		items = append(items, WorkItem{Key: ev.Key, Cert: ev.Cert, Candidate: ev.Candidate})
	}
	return camp.params, items, false
}

// fold merges a worker's delta batch into the campaign store. Folding is
// deliberately lease-agnostic on the data path: records are accepted even
// under a stale lease (they are content-addressed and idempotent — work
// already done should never be thrown away), but the response flags the
// revocation so the worker abandons the shard. A content conflict poisons
// the campaign with dse.ErrConflict; retrying cannot fix data.
func (c *Coordinator) fold(worker, campaignID string, shard, lease int, deltas []DeltaRecord) (added int, revoked bool, err error) {
	c.mu.Lock()
	camp := c.active[campaignID]
	if camp == nil || shard < 0 || shard >= dse.ShardN || camp.finished {
		// The campaign is gone (finished, drained, or a different
		// incarnation): any record it needed from this batch was already
		// folded, or its lease state will re-demand the work.
		c.mu.Unlock()
		return 0, true, nil
	}
	sh := &camp.shards[shard]
	stale := sh.phase != shardLeased || sh.worker != worker || sh.lease != lease
	c.mu.Unlock()

	// Stage and validate without any lock; then merge under the
	// campaign's fold mutex only, so per-record store I/O never delays
	// heartbeat or work handling toward the lease TTL. foldMu keeps the
	// lookup-before-merge window atomic per campaign, which is what
	// makes the fresh-simulation ledger exact under redelivery.
	batch, err := dse.OpenStore("")
	if err != nil {
		return 0, false, err
	}
	for _, d := range deltas {
		si, serr := dse.ShardIndex(d.Record.Key)
		if serr != nil || si != shard {
			return 0, false, fmt.Errorf("coord: delta record %.12s does not belong to shard %x", d.Record.Key, shard)
		}
		if perr := batch.Put(d.Record); perr != nil {
			return 0, false, perr
		}
	}
	camp.foldMu.Lock()
	var freshSim int
	for _, d := range deltas {
		if _, dup := camp.store.Lookup(d.Record.Key); !dup && d.Simulated {
			freshSim++
		}
	}
	added, err = dse.Merge(camp.store, batch)
	camp.foldMu.Unlock()

	c.mu.Lock()
	if err != nil {
		// dse.ErrConflict: two records at one content address. The
		// determinism contract is broken somewhere in the fleet; fail the
		// campaign typed rather than ship a frontier built on lies.
		camp.err = err
		camp.completeLocked()
		c.mu.Unlock()
		return added, false, err
	}
	if camp.finished {
		// Degraded or poisoned while we merged: the records are safely
		// in the store for a future incarnation to count as hits.
		c.mu.Unlock()
		return added, true, nil
	}
	for _, d := range deltas {
		delete(sh.work, d.Record.Key)
	}
	camp.simulated += freshSim
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerState{}
		c.workers[worker] = ws
	}
	ws.records += added
	ws.simulated += freshSim
	if len(sh.work) == 0 && sh.phase != shardDone {
		if jerr := c.jlog.record(leaseEvent{C: campaignID, Ev: evShardDone, Shard: shard, Worker: worker, Lease: lease}); jerr != nil {
			c.logf("coord: lease journal: %v", jerr)
		}
		sh.phase, sh.worker = shardDone, ""
		c.logf("coord: campaign %s shard %x: complete", campaignID, shard)
	}
	if camp.remainingLocked() == 0 {
		if jerr := c.jlog.record(leaseEvent{C: campaignID, Ev: evFinish}); jerr != nil {
			c.logf("coord: lease journal: %v", jerr)
		}
		camp.completeLocked()
	}
	done, total, progress := camp.total-camp.remainingLocked(), camp.total, camp.progress
	c.mu.Unlock()
	progress(done, total)
	return added, stale, nil
}
