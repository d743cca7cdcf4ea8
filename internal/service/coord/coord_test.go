package coord

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chipletnet/internal/dse"
	"chipletnet/internal/service/backoff"
)

// testSpace is a quick six-candidate exploration (2 NoC sizes × 3
// interleavings of a four-chiplet mesh).
func testSpace() (dse.Space, dse.Params) {
	p := dse.DefaultParams()
	p.WarmupCycles = 100
	p.MeasureCycles = 400
	p.Rates = []float64{0.1, 0.4}
	s := dse.Space{
		Chiplets:      4,
		NoCs:          [][2]int{{3, 3}, {4, 4}},
		Topologies:    []string{"mesh"},
		Routings:      []string{dse.RoutingMFR},
		Interleavings: []string{"none", "message", "packet"},
	}
	return s, p
}

func openCoord(t *testing.T, dir string, cfg Config) *Coordinator {
	t.Helper()
	cfg.Dir = dir
	cfg.Logf = t.Logf
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func memStore(t *testing.T) *dse.Store {
	t.Helper()
	s, err := dse.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPlan(t *testing.T, store *dse.Store) *dse.Plan {
	t.Helper()
	space, params := testSpace()
	plan, err := dse.NewPlan(space, params, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pending) == 0 {
		t.Fatal("test space produced no pending evaluations")
	}
	return plan
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startCampaign runs RunCampaign in the background, returning a channel
// that delivers its outcome.
type campaignResult struct {
	recs      []dse.Record
	simulated int
	err       error
}

func startCampaign(t *testing.T, ctx context.Context, c *Coordinator, id string, plan *dse.Plan, store *dse.Store) <-chan campaignResult {
	t.Helper()
	ch := make(chan campaignResult, 1)
	go func() {
		recs, sim, err := c.RunCampaign(ctx, id, plan, store, nil)
		ch <- campaignResult{recs, sim, err}
	}()
	return ch
}

// pollAssignments heartbeats as worker (with the given lease capacity)
// until it is granted at least one lease.
func pollAssignments(t *testing.T, c *Coordinator, worker string, capacity int) []Assignment {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if as := c.heartbeat(worker, capacity, nil); len(as) > 0 {
			return as
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("worker %s never received an assignment", worker)
	return nil
}

// evalItem evaluates one work item the way a worker would.
func evalItem(t *testing.T, item WorkItem, params dse.Params) dse.Record {
	t.Helper()
	ev := dse.Eval{Candidate: item.Candidate, Params: params, Key: item.Key, Cert: item.Cert}
	rec, err := ev.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// drainAs evaluates and folds every shard offered to worker until the
// result channel fires, driving the protocol directly (no HTTP).
func drainAs(t *testing.T, c *Coordinator, worker string, res <-chan campaignResult) campaignResult {
	t.Helper()
	deadline := time.NewTimer(2 * time.Minute)
	defer deadline.Stop()
	for {
		select {
		case r := <-res:
			return r
		case <-deadline.C:
			t.Fatal("campaign did not complete")
		default:
		}
		for _, a := range c.heartbeat(worker, 16, nil) {
			params, items, revoked := c.work(worker, a.Campaign, a.Shard, a.Lease)
			if revoked {
				continue
			}
			for _, item := range items {
				rec := evalItem(t, item, params)
				if _, _, err := c.fold(worker, a.Campaign, a.Shard, a.Lease, []DeltaRecord{{Record: rec, Simulated: true}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignMatchesSingleMachine runs a real two-worker fleet over
// HTTP and demands the distributed frontier be byte-identical to the
// sequential single-machine exploration — the determinism contract the
// whole coordinator design rests on.
func TestCampaignMatchesSingleMachine(t *testing.T) {
	runFleet(t, Config{HeartbeatTTL: 2 * time.Second, Tick: 10 * time.Millisecond}, 25*time.Millisecond, 0)
}

// TestWorkerBeatsInsideShortTTL: workers configured to beat every
// second join a coordinator whose lease TTL is 150ms. They must follow
// the TTL every heartbeat response carries and beat at a third of it,
// so the campaign finishes without a single lease expiring. The runs
// are long enough (40000 measured cycles) that the campaign outlives
// several TTLs.
func TestWorkerBeatsInsideShortTTL(t *testing.T) {
	dir := runFleet(t, Config{HeartbeatTTL: 150 * time.Millisecond, Tick: 10 * time.Millisecond}, time.Second, 40000)
	journal, err := os.ReadFile(filepath.Join(dir, "coord.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(journal), `"Ev":"`+evExpire+`"`); n > 0 {
		t.Errorf("%d leases of live workers expired:\n%s", n, journal)
	}
}

// runFleet runs the test space (with measure cycles per run, if
// nonzero) as a campaign on a coordinator with cfg and two HTTP workers
// beating every heartbeat, checks that the distributed frontier is
// byte-identical to a single-machine Explore, and returns the
// coordinator's state directory.
func runFleet(t *testing.T, cfg Config, heartbeat time.Duration, measure int64) string {
	t.Helper()
	space, params := testSpace()
	if measure > 0 {
		params.MeasureCycles = measure
	}
	ref, err := dse.Explore(space, params, memStore(t))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c := openCoord(t, dir, cfg)
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"worker-a", "worker-b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{ID: id, Join: srv.URL, Heartbeat: heartbeat, Logf: t.Logf})
		}(id)
	}

	store := memStore(t)
	plan, err := dse.NewPlan(space, params, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pending) == 0 {
		t.Fatal("test space produced no pending evaluations")
	}
	var mu sync.Mutex
	lastDone := -1
	recs, simulated, err := c.RunCampaign(ctx, "job-1", plan, store, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done < lastDone || total != len(plan.Pending) {
			t.Errorf("progress regressed: done %d after %d (total %d)", done, lastDone, total)
		}
		lastDone = done
	})
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(plan.Pending) {
		t.Fatalf("campaign returned %d records for %d pending", len(recs), len(plan.Pending))
	}
	if simulated != len(plan.Pending) {
		t.Errorf("simulated = %d, want %d (fresh workers, no cache hits)", simulated, len(plan.Pending))
	}
	outcome, err := dse.Collect(plan, append(append([]dse.Record(nil), plan.Hits...), recs...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, outcome.Frontier), mustJSON(t, ref.Frontier); got != want {
		t.Errorf("distributed frontier differs from single-machine run:\n got %s\nwant %s", got, want)
	}
	return dir
}

// TestLeaseExpiryFencesAndReassigns kills worker a's heartbeat, waits
// for its lease to expire, and verifies the shard moves to worker b
// under a higher fencing token while a's stale requests are revoked —
// but a's stale *data* still folds (idempotent delivery).
func TestLeaseExpiryFencesAndReassigns(t *testing.T) {
	c := openCoord(t, t.TempDir(), Config{
		HeartbeatTTL: 120 * time.Millisecond,
		Tick:         10 * time.Millisecond,
		Reassign:     backoff.Policy{Base: time.Millisecond},
	})
	store := memStore(t)
	plan := mustPlan(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := startCampaign(t, ctx, c, "job-exp", plan, store)

	a0 := pollAssignments(t, c, "a", 16)[0]
	params, items, revoked := c.work("a", a0.Campaign, a0.Shard, a0.Lease)
	if revoked || len(items) == 0 {
		t.Fatalf("live lease revoked (revoked=%v, %d items)", revoked, len(items))
	}

	// a goes silent; b inherits the shard under a fresh token.
	var b0 Assignment
	deadline := time.Now().Add(5 * time.Second)
	for b0.Campaign == "" && time.Now().Before(deadline) {
		for _, a := range c.heartbeat("b", 16, nil) {
			if a.Shard == a0.Shard {
				b0 = a
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b0.Campaign == "" {
		t.Fatal("expired shard was never reassigned to b")
	}
	if b0.Lease <= a0.Lease {
		t.Errorf("reassigned lease %d not newer than expired lease %d", b0.Lease, a0.Lease)
	}
	if _, _, revoked := c.work("a", a0.Campaign, a0.Shard, a0.Lease); !revoked {
		t.Error("stale lease still serves work")
	}

	// a finished one evaluation before noticing: the data is accepted,
	// the response says the lease is gone.
	rec := evalItem(t, items[0], params)
	added, revoked, err := c.fold("a", a0.Campaign, a0.Shard, a0.Lease, []DeltaRecord{{Record: rec, Simulated: true}})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || !revoked {
		t.Errorf("stale fold: added=%d revoked=%v, want 1/true", added, revoked)
	}

	r := drainAs(t, c, "b", res)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.recs) != len(plan.Pending) {
		t.Errorf("campaign returned %d records for %d pending", len(r.recs), len(plan.Pending))
	}
}

// TestRestartReplaysLeases crashes the coordinator (new Coordinator,
// same directory) mid-campaign and verifies the journaled lease comes
// back verbatim: same worker, same shard, same fencing token. The
// worker survived the crash, so its heartbeats echo the lease it still
// holds — which is exactly what keeps it renewed across the restart.
func TestRestartReplaysLeases(t *testing.T) {
	dir := t.TempDir()
	c1 := openCoord(t, dir, Config{HeartbeatTTL: 10 * time.Second, Tick: 10 * time.Millisecond})
	store := memStore(t)
	plan := mustPlan(t, store)
	ctx1, cancel1 := context.WithCancel(context.Background())
	res1 := startCampaign(t, ctx1, c1, "job-replay", plan, store)
	a0 := pollAssignments(t, c1, "a", 1)[0] // capacity 1: exactly one lease to replay
	cancel1()                               // "crash": the campaign aborts, the journal survives
	if r := <-res1; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("aborted campaign returned %v, want context.Canceled", r.err)
	}
	c1.Close()

	c2 := openCoord(t, dir, Config{HeartbeatTTL: 10 * time.Second, Tick: 10 * time.Millisecond})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	res2 := startCampaign(t, ctx2, c2, "job-replay", plan, store)
	found := false
	deadline := time.Now().Add(5 * time.Second)
	for !found && time.Now().Before(deadline) {
		for _, a := range c2.heartbeat("a", 1, []Assignment{a0}) {
			if a == a0 {
				found = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !found {
		t.Fatalf("restart did not restore lease %+v", a0)
	}
	// Drain the restored shard under its replayed token, then the rest.
	params, items, revoked := c2.work("a", a0.Campaign, a0.Shard, a0.Lease)
	if revoked {
		t.Fatal("restored lease revoked")
	}
	for _, item := range items {
		rec := evalItem(t, item, params)
		if _, _, err := c2.fold("a", a0.Campaign, a0.Shard, a0.Lease, []DeltaRecord{{Record: rec, Simulated: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if r := drainAs(t, c2, "a", res2); r.err != nil {
		t.Fatal(r.err)
	}
}

// TestAbandonedLeaseExpiresDespiteHeartbeats is the regression test for
// echo-driven renewal: a worker that abandoned its shard (it keeps
// beating — it is perfectly healthy — but no longer echoes the lease)
// must not keep the lease alive. The TTL expires it and the shard moves
// to a survivor instead of blocking the campaign forever behind a
// healthy heartbeat.
func TestAbandonedLeaseExpiresDespiteHeartbeats(t *testing.T) {
	c := openCoord(t, t.TempDir(), Config{
		HeartbeatTTL: 120 * time.Millisecond,
		Tick:         10 * time.Millisecond,
		Reassign:     backoff.Policy{Base: time.Millisecond},
	})
	store := memStore(t)
	plan := mustPlan(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := startCampaign(t, ctx, c, "job-abandon", plan, store)

	a0 := pollAssignments(t, c, "a", 16)[0]
	// a beats on, echoing nothing — what a live worker looks like after
	// abandoning its shards on an evaluation error. Capacity 0 keeps it
	// from being granted replacements.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				c.heartbeat("a", 0, nil)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	// The shard must be re-granted under a higher token even though its
	// holder never went silent.
	regranted := false
	deadline := time.Now().Add(5 * time.Second)
	for !regranted && time.Now().Before(deadline) {
		for _, a := range c.heartbeat("b", 16, nil) {
			if a.Shard == a0.Shard && a.Lease > a0.Lease {
				regranted = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !regranted {
		t.Fatal("abandoned shard was never reassigned while its worker kept heartbeating")
	}
	if r := drainAs(t, c, "b", res); r.err != nil {
		t.Fatal(r.err)
	}
}

// TestDeadFleetDegrades submits a campaign to a coordinator nobody
// joined and demands a typed partial result, not a hang.
func TestDeadFleetDegrades(t *testing.T) {
	c := openCoord(t, t.TempDir(), Config{
		HeartbeatTTL:   50 * time.Millisecond,
		DeadFleetGrace: 150 * time.Millisecond,
		Tick:           10 * time.Millisecond,
	})
	store := memStore(t)
	plan := mustPlan(t, store)
	recs, _, err := c.RunCampaign(context.Background(), "job-dead", plan, store, nil)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("dead-fleet campaign returned %v, want ErrDegraded", err)
	}
	if len(recs) != 0 {
		t.Errorf("no worker ever ran, yet %d records came back", len(recs))
	}
}

// TestFoldConflictPoisonsCampaign folds two divergent records under one
// content address and demands a typed dse.ErrConflict failure.
func TestFoldConflictPoisonsCampaign(t *testing.T) {
	c := openCoord(t, t.TempDir(), Config{HeartbeatTTL: 10 * time.Second, Tick: 10 * time.Millisecond})
	store := memStore(t)
	plan := mustPlan(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := startCampaign(t, ctx, c, "job-conflict", plan, store)

	a0 := pollAssignments(t, c, "a", 16)[0]
	params, items, _ := c.work("a", a0.Campaign, a0.Shard, a0.Lease)
	rec := evalItem(t, items[0], params)
	if _, _, err := c.fold("a", a0.Campaign, a0.Shard, a0.Lease, []DeltaRecord{{Record: rec, Simulated: true}}); err != nil {
		t.Fatal(err)
	}
	lie := rec
	lie.ZeroLoadLatency++ // same address, different content
	_, _, err := c.fold("a", a0.Campaign, a0.Shard, a0.Lease, []DeltaRecord{{Record: lie, Simulated: true}})
	if !errors.Is(err, dse.ErrConflict) {
		t.Fatalf("divergent fold returned %v, want dse.ErrConflict", err)
	}
	r := <-res
	if !errors.Is(r.err, dse.ErrConflict) {
		t.Fatalf("poisoned campaign returned %v, want dse.ErrConflict", r.err)
	}
}

// TestWorkerAbandonsOnKeyMismatch covers the worker-side integrity
// check: a coordinator shipping a key the worker cannot re-derive must
// not get a record persisted under it.
func TestWorkerAbandonsOnKeyMismatch(t *testing.T) {
	_, params := testSpace()
	plan := mustPlanFromStore(t)
	item := WorkItem{Key: strings.Repeat("0", 64), Candidate: plan.Pending[0].Candidate}
	served := workResponse{Params: params, Items: []WorkItem{item}}

	var folded int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		reply(w, heartbeatResponse{TTLMS: 1000, Assignments: []Assignment{{Campaign: "j", Shard: 0, Lease: 1}}})
	})
	mux.HandleFunc("POST /coord/work", func(w http.ResponseWriter, r *http.Request) {
		reply(w, served)
	})
	mux.HandleFunc("POST /coord/delta", func(w http.ResponseWriter, r *http.Request) {
		folded++
		reply(w, deltaResponse{})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cache := memStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	RunWorker(ctx, WorkerConfig{ID: "w", Join: srv.URL, Cache: cache, Heartbeat: 20 * time.Millisecond, Logf: t.Logf})
	if folded != 0 {
		t.Errorf("worker folded %d records under a key it could not re-derive", folded)
	}
	if cache.Len() != 0 {
		t.Errorf("worker cached %d records under a bogus key", cache.Len())
	}
}

func mustPlanFromStore(t *testing.T) *dse.Plan {
	t.Helper()
	return mustPlan(t, memStore(t))
}

// journalLines counts the non-empty lines of the lease journal.
func journalLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "coord.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// TestJournalCompaction finishes a campaign (leaving grant/shard-done/
// finish entries behind) and reopens the directory: replay must drop the
// finished campaign and compaction must rewrite the journal down to its
// live lease state — here, nothing — so coord.jsonl does not grow
// without bound across campaigns.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	c1 := openCoord(t, dir, Config{HeartbeatTTL: 10 * time.Second, Tick: 10 * time.Millisecond})
	store := memStore(t)
	plan := mustPlan(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := startCampaign(t, ctx, c1, "job-compact", plan, store)
	if r := drainAs(t, c1, "a", res); r.err != nil {
		t.Fatal(r.err)
	}
	if journalLines(t, dir) == 0 {
		t.Fatal("finished campaign left no journal entries to compact")
	}
	c1.Close()

	c2 := openCoord(t, dir, Config{})
	if n := len(c2.prior); n != 0 {
		t.Errorf("replayed %d campaigns from a fully-finished journal", n)
	}
	if n := journalLines(t, dir); n != 0 {
		t.Errorf("journal has %d lines after compaction, want 0", n)
	}
}

// TestEarlyFinishRetiresJournal crashes a campaign with a lease
// outstanding, completes every evaluation out of band (the store has all
// the records), and resubmits: RunCampaign's nothing-left early return
// must journal the finish, so the next incarnation replays no stale
// lease state for the campaign.
func TestEarlyFinishRetiresJournal(t *testing.T) {
	dir := t.TempDir()
	store := memStore(t)
	plan := mustPlan(t, store)

	c1 := openCoord(t, dir, Config{HeartbeatTTL: 10 * time.Second, Tick: 10 * time.Millisecond})
	ctx1, cancel1 := context.WithCancel(context.Background())
	res1 := startCampaign(t, ctx1, c1, "job-early", plan, store)
	pollAssignments(t, c1, "a", 1)
	cancel1()
	<-res1
	c1.Close()

	// Every evaluation lands in the store between incarnations.
	for _, ev := range plan.Pending {
		rec, err := ev.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	c2 := openCoord(t, dir, Config{HeartbeatTTL: 10 * time.Second, Tick: 10 * time.Millisecond})
	if len(c2.prior) == 0 {
		t.Fatal("no lease state replayed; the crash half of this test did not happen")
	}
	// The restarted service re-plans against the shared store, so every
	// evaluation resurfaces as a hit and the campaign has nothing left.
	space, params := testSpace()
	replan, err := dse.NewPlan(space, params, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(replan.Pending) != 0 {
		t.Fatalf("replan still has %d pending evaluations", len(replan.Pending))
	}
	recs, simulated, err := c2.RunCampaign(context.Background(), "job-early", replan, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if simulated != 0 || len(recs) != 0 {
		t.Errorf("nothing-left campaign returned %d records, %d simulated", len(recs), simulated)
	}
	c2.Close()

	c3 := openCoord(t, dir, Config{})
	if n := len(c3.prior); n != 0 {
		t.Errorf("early-finished campaign still replays %d campaigns of lease state", n)
	}
	if n := journalLines(t, dir); n != 0 {
		t.Errorf("journal has %d lines after compaction, want 0", n)
	}
}
