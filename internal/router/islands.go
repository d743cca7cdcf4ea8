package router

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"chipletnet/internal/packet"
)

// This file is the parallel-islands cycle engine: the third Fabric.Step
// implementation, alongside stepReference (the oracle) and stepActive
// (the serial active-set engine). The fabric is partitioned into K
// islands — contiguous chiplet ranges balanced by router count — and
// each island's active sets are stepped with the same phase walks
// stepActive uses (deliverLinks, allocate, transmit in engine.go).
// Everything that crosses an island boundary is exchanged through
// deterministic mailboxes drained in ascending global index order at
// per-cycle barriers, so the engine is bit-for-bit identical to the
// serial engines: same delivery order into the statistics collector,
// same fault log, same RNG consumption, same checkpoints.
//
// # Workers and the grain
//
// Fabric.IslandGrain decides per cycle: a cycle whose start finds fewer
// than IslandGrain routers active is a plain stepActive cycle on the
// fabric's own bitmaps, so an idle or lightly loaded cycle costs what
// it costs without islands. Traced runs (a Tracer observes per-flit
// movement order) and single-island partitions always step that way.
// The active sets live in one place at a time: in the fabric's
// routerActive/linkActive while cycles run serially, in the islands'
// bitmaps (Fabric.split is set) while they run in parallel. The first
// parallel cycle after a serial one scatters the fabric's bits into the
// islands (scatter), the first serial cycle after a parallel one ORs
// them back (merge); both preserve the union, so a run may switch at
// any cycle boundary.
//
// A parallel cycle runs each phase of island w on worker w, a goroutine
// started the first time the fabric runs a cycle in parallel and bound
// to that island for the fabric's life; the caller's goroutine is
// island 0's worker. A phase starts when the caller bumps the crew's
// epoch and ends when the workers' pending count reaches zero. Both
// sides spin on the atomic for a while, yielding the processor between
// polls, and then park on a channel, so a busy run hands a phase over
// without the scheduler and an idle fabric costs no CPU. Close stops the
// workers; a fabric dropped without Close stops them when it is
// collected (the workers hold no reference to it between phases, and a
// finalizer on its islandState runs the stop).
//
// # Partition rule
//
// Router indices are contiguous per chiplet (topology builds chiplet c's
// routers as one index run), so an island is a contiguous router-index
// range cut only at chiplet boundaries. Contiguity is what makes
// "ascending island order, ascending index within an island" equal to
// "ascending global index order" — the order every serial engine uses
// and the statistics collector observes.
//
// A link is island-internal (steppable by a worker) exactly when both
// endpoints lie in the same island AND it carries no reliability
// protocol; every other link — the inter-island cut plus any
// Rel-protected link — is exchanged serially. The link's own flit and
// credit fifos are the per-edge mailboxes: l.flits has a single producer
// (the Src-side worker, phase 3) and l.credits a single producer (the
// Dst-side worker, phase 3), the two are disjoint struct fields, and
// both are drained only by the coordinator's serial delivery pass in
// ascending global link ID — exactly where the serial engines drain
// them, one barrier later.
//
// # Why determinism survives the barrier
//
// The serial engines' three phases are already order-independent across
// components (the stepActive equivalence argument in doc.go), with
// exactly three order-observable effects, each of which the islands
// engine re-serializes:
//
//  1. Ejections (Fabric.deliver feeds floating-point accumulators in the
//     statistics collector, so delivery order is observable, and
//     decrements the shared inFlight counter). Workers defer ejections
//     into per-island lists; the coordinator drains them after phase 3
//     in ascending island order — which, by contiguity, is ascending
//     ejecting-router order, the serial engines' order.
//  2. The fault log (LinkRel.Corrupt closures append records to the
//     shared fault engine log). Any router owning a Rel-protected output
//     link runs its phase 3 on the coordinator, after the parallel
//     phase, in ascending index order; Rel links themselves deliver in
//     the serial link pass. Workers never touch Rel state, so log order
//     and per-link RNG stream consumption match the serial engines.
//  3. Active-set wakes (bitmap bits shared between islands). Each island
//     owns full-size bitmaps holding only its own components' bits, so
//     worker wakes never share a word. While the sets are split, a
//     serially-exchanged link is woken in the plain serialWake bitmap of
//     the waking endpoint's island — push wakes from l.Src, returnCredit
//     from l.Dst — so the two sides of a cut link write different
//     bitmaps; the coordinator ORs them into the serial set before the
//     next serial delivery pass.
//     Bit-sets are idempotent and order-free, so the merged wake state
//     is schedule-independent.
//
// Everything else either touches only the owning island's state or is a
// phase-stable cross-island read (VC allocation reads downstream input
// queues, which no one mutates during phase 2), with the per-phase
// barriers providing the happens-before edges the race detector checks.
// A panic on a worker is carried back through the barrier and raised
// again on the caller's goroutine, the lowest island's first, which is
// the panic the serial engines raise. The value is raised unchanged, so
// a recovered panic reads the same under every engine; the stack it
// unwinds is the caller's, not the worker's.
//
// The island assignment, mailboxes, active sets and workers are all
// derived state: Snapshot does not record them, Restore rebuilds them,
// and checkpoint files stay byte-identical across all three engines.

// ejection is one deferred packet delivery: the ejecting router's index
// keys the merge back into global ascending order at the barrier drain.
type ejection struct {
	router int32
	p      *packet.Packet
}

// island is one island's share of the engine state. In a parallel phase
// only the island's worker writes it; the trailing pad keeps the fields
// two workers write off one cache line.
type island struct {
	// rActive and lActive are full-size bitmaps in which only this
	// island's bits are ever set, so workers never share a word. While
	// the sets are split, their union across islands (plus serialLink
	// and serialWake) is exactly the state the serial engines keep in
	// Fabric.routerActive/linkActive; while they are merged, all are
	// empty.
	rActive, lActive []uint64
	// serialWake holds the serial-link wakes issued from this island's
	// routers until the coordinator folds them into serialLink.
	serialWake []uint64
	// eject collects the island's deferred ejections from the parallel
	// phase 3, ejectSerial the coordinator's (serial phase-3 pass). Both
	// are appended in ascending router order and merged at the drain.
	eject, ejectSerial []ejection
	// moved is the island's flit-movement flag for the deadlock watchdog.
	moved bool
	_     [64]byte
}

// islandState is the engine state of the parallel-islands stepper. It is
// derived from the fabric (EnableIslands, rebuildActive) and never
// checkpointed.
type islandState struct {
	islands []island

	// Router.island is the owning island of a router; islands are
	// contiguous index ranges. Link.island is the owning island of a
	// link, or -1 for links exchanged serially (inter-island cut or
	// Rel-protected). classify recomputes the links' once per run epoch —
	// the reliability protocol attaches after Build, so classification
	// is lazy.
	classified bool

	// serialLink is the active set of serially-exchanged links, walked
	// only by the coordinator.
	serialLink []uint64

	// serialMask marks routers whose phase 3 must run on the coordinator
	// (they own a Rel-protected output link); workerMask is its complement.
	serialMask, workerMask []uint64

	// crew holds the workers of islands 1..K-1 once a cycle has run in
	// parallel. The fabric alone refers to its islandState (which holds
	// no pointer back to it), so the finalizer EnableIslands sets stops
	// the crew of a fabric collected unclosed.
	crew *crew
}

// EnableIslands partitions the fabric into (at most) k islands of whole
// chiplets, balanced by router count, and selects the parallel-islands
// cycle engine for subsequent Steps. chipletOf[i] is the chiplet index
// of Routers[i] and must be non-decreasing (router indices are
// contiguous per chiplet — the topology builder's layout). k is clamped
// to the chiplet count; k == 1 runs the same engine without workers.
// IslandGrain picks the cycles that run in parallel. Call between cycles
// only (normally right after Build); the engine state is derived, so
// Snapshot/Restore are unaffected.
func (f *Fabric) EnableIslands(k int, chipletOf []int) {
	if len(chipletOf) != len(f.Routers) {
		panic(fmt.Sprintf("router: EnableIslands got %d chiplet assignments for %d routers",
			len(chipletOf), len(f.Routers)))
	}
	n := len(f.Routers)
	if n == 0 {
		panic("router: EnableIslands on an empty fabric")
	}
	for i := 1; i < n; i++ {
		if chipletOf[i] < chipletOf[i-1] {
			panic(fmt.Sprintf("router: chiplet assignment not contiguous at router %d (%d after %d)",
				i, chipletOf[i], chipletOf[i-1]))
		}
	}
	// Chiplet start indices.
	starts := []int{0}
	for i := 1; i < n; i++ {
		if chipletOf[i] != chipletOf[i-1] {
			starts = append(starts, i)
		}
	}
	numC := len(starts)
	if k > numC {
		k = numC
	}
	if k < 1 {
		k = 1
	}

	f.Close()
	if f.split != nil {
		f.split.merge(f)
	}
	is := &islandState{
		islands:    make([]island, k),
		serialLink: make([]uint64, len(f.linkActive)),
		serialMask: make([]uint64, len(f.routerActive)),
		workerMask: make([]uint64, len(f.routerActive)),
	}
	// Assign whole chiplets to islands, advancing at the ideal router-count
	// boundary but never leaving a later island empty.
	w := 0
	for c := 0; c < numC; c++ {
		end := n
		if c+1 < numC {
			end = starts[c+1]
		}
		for i := starts[c]; i < end; i++ {
			f.Routers[i].island = int32(w)
		}
		if w < k-1 && (end*k >= n*(w+1) || numC-(c+1) == k-1-w) {
			w++
		}
	}
	for w := range is.islands {
		is.islands[w].rActive = make([]uint64, len(f.routerActive))
		is.islands[w].lActive = make([]uint64, len(f.linkActive))
		is.islands[w].serialWake = make([]uint64, len(f.linkActive))
	}
	runtime.SetFinalizer(is, func(is *islandState) {
		if is.crew != nil {
			is.crew.stop()
		}
	})
	f.isl = is
}

// Islands returns the island count of the parallel engine, or 0 when it
// is disabled.
func (f *Fabric) Islands() int {
	if f.isl == nil {
		return 0
	}
	return len(f.isl.islands)
}

// Close stops the islands engine's worker goroutines, if any run, and
// waits for them to exit. It is safe on any fabric and at any cycle
// boundary, also after a panic out of Step: a later parallel cycle
// starts the workers again.
func (f *Fabric) Close() {
	is := f.isl
	if is == nil || is.crew == nil {
		return
	}
	is.crew.stop()
	is.crew = nil
}

// IslandLayout reports the current partition for invariant tests:
// assign[i] is the island of Routers[i] and serial[j] is true when
// Links[j] is exchanged serially (inter-island cut or Rel-protected).
// Nil when the islands engine is disabled.
func (f *Fabric) IslandLayout() (assign []int, serial []bool) {
	is := f.isl
	if is == nil {
		return nil, nil
	}
	if !is.classified {
		is.classify(f)
	}
	assign = make([]int, len(f.Routers))
	for i, r := range f.Routers {
		assign[i] = int(r.island)
	}
	serial = make([]bool, len(f.Links))
	for i, l := range f.Links {
		serial[i] = l.island < 0
	}
	return assign, serial
}

// ActiveSets returns copies of the engine's effective active sets —
// under the islands engine, the union of the fabric's bitmaps, every
// island's bitmaps, the serial link set and the pending serial-link
// wakes. The union must always equal the bitmaps the serial active-set
// engine would hold in the same state (the partition invariant
// FuzzIslandPartition checks).
func (f *Fabric) ActiveSets() (routers, links []uint64) {
	routers = make([]uint64, len(f.routerActive))
	links = make([]uint64, len(f.linkActive))
	copy(routers, f.routerActive)
	copy(links, f.linkActive)
	is := f.isl
	if is == nil {
		return routers, links
	}
	or := func(dst, src []uint64) {
		for i, word := range src {
			dst[i] |= word
		}
	}
	for w := range is.islands {
		or(routers, is.islands[w].rActive)
		or(links, is.islands[w].lActive)
		or(links, is.islands[w].serialWake)
	}
	or(links, is.serialLink)
	return routers, links
}

// wakeRouter marks r live in its island's active set while the sets are
// split. Only serial contexts (injection, the coordinator's serial
// passes) and the worker
// owning r's island ever call this, so the plain word write is safe:
// phase 1 wakes the receiving router, which is island-local for links a
// worker delivers, and phase 3 wakes only the processed router itself.
func (is *islandState) wakeRouter(r *Router) {
	is.islands[r.island].rActive[r.idx>>6] |= 1 << uint(r.idx&63)
}

// wakeLink marks l live while the sets are split. Island-internal links
// are only ever woken by their own island's worker (push and
// returnCredit both originate at an endpoint, and internal links have
// both endpoints in one island). A serially-exchanged link's wake goes
// to the serialWake bitmap of from's island, which only that island's
// worker (or the coordinator) writes.
func (is *islandState) wakeLink(l *Link, from *Router) {
	bit := uint64(1) << uint(l.ID&63)
	if l.island >= 0 {
		is.islands[l.island].lActive[l.ID>>6] |= bit
	} else {
		is.islands[from.island].serialWake[l.ID>>6] |= bit
	}
}

// classify splits links into island-internal and serial sets and finds
// the routers whose phase 3 must run serially. Classification is lazy
// because the reliability protocol (fault engine) attaches LinkRels
// after Build; it reruns at the first scatter after EnableIslands or
// Restore, when the sets are merged, so no link bit is ever pending in
// a set of a stale classification.
func (is *islandState) classify(f *Fabric) {
	for _, l := range f.Links {
		l.island = -1
		if l.Rel == nil && l.Src.island == l.Dst.island {
			l.island = l.Src.island
		}
	}
	clear(is.serialMask)
	for _, r := range f.Routers {
		for _, o := range r.Out {
			if o.Link != nil && o.Link.Rel != nil {
				is.serialMask[r.idx>>6] |= 1 << uint(r.idx&63)
				break
			}
		}
	}
	for i, m := range is.serialMask {
		is.workerMask[i] = ^m
	}
	is.classified = true
}

// reset zeroes every island set and forces reclassification; the caller
// (rebuildActive) merges the sets and re-wakes live components into the
// fabric's bitmaps afterwards.
func (is *islandState) reset() {
	for w := range is.islands {
		s := &is.islands[w]
		clear(s.rActive)
		clear(s.lActive)
		clear(s.serialWake)
		s.eject = s.eject[:0]
		s.ejectSerial = s.ejectSerial[:0]
		s.moved = false
	}
	clear(is.serialLink)
	is.classified = false
}

// activeAtLeast reports whether at least g routers are active, counting
// word by word until the answer is known. A grain above the router
// count costs nothing.
func (f *Fabric) activeAtLeast(g int) bool {
	if g > len(f.Routers) {
		return false
	}
	n := 0
	count := func(act []uint64) bool {
		for _, word := range act {
			if n >= g {
				return true
			}
			n += bits.OnesCount64(word)
		}
		return n >= g
	}
	if f.split == nil {
		return count(f.routerActive)
	}
	for w := range f.isl.islands {
		if count(f.isl.islands[w].rActive) {
			return true
		}
	}
	return false
}

// scatter moves the active sets from the fabric's bitmaps into the
// islands' — each router and island-internal link to its island, every
// other link to the serial set — and marks the sets split.
func (is *islandState) scatter(f *Fabric) {
	if !is.classified {
		is.classify(f)
	}
	for wi, word := range f.routerActive {
		for w := word; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			is.islands[f.Routers[wi<<6|b].island].rActive[wi] |= 1 << uint(b)
		}
	}
	for wi, word := range f.linkActive {
		for w := word; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if l := f.Links[wi<<6|b]; l.island >= 0 {
				is.islands[l.island].lActive[wi] |= 1 << uint(b)
			} else {
				is.serialLink[wi] |= 1 << uint(b)
			}
		}
	}
	clear(f.routerActive)
	clear(f.linkActive)
	f.split = is
}

// merge ORs every island set back into the fabric's bitmaps, empties
// them and marks the sets merged: the inverse of scatter.
func (is *islandState) merge(f *Fabric) {
	or := func(dst, src []uint64) {
		for i, word := range src {
			dst[i] |= word
		}
		clear(src)
	}
	for w := range is.islands {
		s := &is.islands[w]
		or(f.routerActive, s.rActive)
		or(f.linkActive, s.lActive)
		or(f.linkActive, s.serialWake)
	}
	or(f.linkActive, is.serialLink)
	f.split = nil
}

// pushEject defers one packet delivery to the barrier drain. Parallel
// routers append to their island's worker-owned list, serial-pass
// routers to the coordinator's; both lists are filled in ascending
// router order and merged back together at the drain.
func (is *islandState) pushEject(r *Router, p *packet.Packet) {
	s := &is.islands[r.island]
	e := ejection{router: int32(r.idx), p: p}
	if is.serialMask[r.idx>>6]&(1<<uint(r.idx&63)) != 0 {
		s.ejectSerial = append(s.ejectSerial, e)
	} else {
		s.eject = append(s.eject, e)
	}
}

// stepIslands advances the fabric by one cycle under the islands engine:
// a stepActive cycle on the merged sets when the cycle is below the
// grain (or traced, or the partition has one island), else a parallel
// cycle on the split sets.
func (f *Fabric) stepIslands() {
	is := f.isl
	if len(is.islands) == 1 || f.Tracer != nil || !f.activeAtLeast(f.IslandGrain) {
		if f.split != nil {
			is.merge(f)
		}
		f.stepActive()
		return
	}
	if f.split == nil {
		is.scatter(f)
	}
	if is.crew == nil {
		f.startCrew()
	}
	f.Now++
	now := f.Now

	// Serial link exchange: fold the wakes left in the islands'
	// serialWake bitmaps into the serial set, then deliver every cut and
	// Rel-protected link in ascending global link ID — the mailbox drain.
	// This runs before the island phases so no worker touches a router an
	// exchange is mutating; per-link delivery is commutative (each link
	// owns its destination input port and source credit counters), so
	// splitting the serial links out of the per-island sweeps is
	// unobservable.
	for w := range is.islands {
		wake := is.islands[w].serialWake
		for i, word := range wake {
			is.serialLink[i] |= word
		}
		clear(wake)
	}
	moved := f.deliverLinks(is.serialLink, now)

	f.islandPhase(1, now)
	f.islandPhase(2, now)
	f.islandPhase(3, now)

	// Serial phase-3 pass: routers owning Rel-protected output links, in
	// ascending index order, so fault-log records and per-link corruption
	// RNG draws happen in exactly the serial engines' order.
	for w := range is.islands {
		if f.transmit(is.islands[w].rActive, is.workerMask, now) {
			moved = true
		}
	}

	// Drain deferred ejections in ascending island order — by contiguity,
	// ascending global router order, the exact Sink call order of the
	// serial engines. Each island's two lists (parallel and serial pass)
	// are individually ascending; merge them by router index.
	for w := range is.islands {
		s := &is.islands[w]
		par, ser := s.eject, s.ejectSerial
		i, j := 0, 0
		for i < len(par) || j < len(ser) {
			if j >= len(ser) || (i < len(par) && par[i].router < ser[j].router) {
				f.deliver(par[i].p, now)
				i++
			} else {
				f.deliver(ser[j].p, now)
				j++
			}
		}
		s.eject = par[:0]
		s.ejectSerial = ser[:0]
	}

	for w := range is.islands {
		if s := &is.islands[w]; s.moved {
			moved = true
			s.moved = false
		}
	}
	f.finishStep(now, moved)
}

// islandPhase runs one phase of a parallel cycle: islands 1..K-1 on the
// workers, island 0 on the caller's goroutine.
func (f *Fabric) islandPhase(phase int, now int64) {
	c := f.isl.crew
	c.begin(f, phase, now)
	done := false
	defer func() { c.end(done) }()
	f.islandWork(phase, 0, now)
	done = true
}

// islandWork runs phase 1 (link delivery), 2 (VC allocation) or 3
// (switch allocation, skipping the serial-pass routers) over island w's
// active sets. Only island w's state is written, apart from the
// single-producer link fifos and deferred ejections of phase 3
// described in the file comment.
func (f *Fabric) islandWork(phase, w int, now int64) {
	is := f.isl
	s := &is.islands[w]
	switch phase {
	case 1:
		if f.deliverLinks(s.lActive, now) {
			s.moved = true
		}
	case 2:
		f.allocate(s.rActive, now)
	default:
		if f.transmit(s.rActive, is.serialMask, now) {
			s.moved = true
		}
	}
}

// spinPolls is how many times a waiting worker or caller polls its
// condition, yielding the processor every 1024 polls, before it parks on
// its channel: about 50 µs on a 2-CPU machine, longer than a phase
// hand-off or the caller's serial work between two cycles of a busy
// run, short enough that a run of inline cycles frees the CPUs soon.
// When the islands outnumber the CPUs (GOMAXPROCS, or the machine's
// CPUs if fewer), a spinning waiter would hold a CPU another island
// needs, so waiters park at once: islands:4 on 2 CPUs stepped the
// equivalence shapes in 0.26 s that way, 0.51 s after 64 yielding polls.
const spinPolls = 1 << 15

// crew is the persistent worker set of an islands fabric: workers[i]
// steps island i+1 for every parallel phase, the fabric's caller
// island 0. Between phases the crew holds no reference to the fabric,
// so an unclosed fabric can still be collected (and its islandState's
// finalizer stop the crew).
type crew struct {
	// f, phase and now describe the phase in progress; written by the
	// caller before it bumps epoch, read by the workers after.
	f     *Fabric
	phase int
	now   int64
	quit  bool

	epoch atomic.Uint32
	_     [60]byte
	// pending counts the workers still in the current phase; the one
	// that brings it to zero unparks the caller.
	pending atomic.Int32
	asleep  atomic.Bool
	wake    chan struct{}
	_       [64]byte

	workers []worker
	done    sync.WaitGroup
	// polls is the waiters' poll budget: spinPolls, or 0 when the
	// islands outnumber the CPUs.
	polls int
}

// worker is one worker goroutine's hand-off state, padded like island.
type worker struct {
	asleep   atomic.Bool
	wake     chan struct{}
	panicked any
	_        [64]byte
}

// startCrew starts the workers of islands 1..K-1.
func (f *Fabric) startCrew() {
	is := f.isl
	c := &crew{wake: make(chan struct{}, 1), workers: make([]worker, len(is.islands)-1), polls: spinPolls}
	if len(is.islands) > min(runtime.GOMAXPROCS(0), runtime.NumCPU()) {
		c.polls = 0
	}
	c.done.Add(len(c.workers))
	for i := range c.workers {
		c.workers[i].wake = make(chan struct{}, 1)
		go c.work(i)
	}
	is.crew = c
}

// begin hands phase to the workers.
func (c *crew) begin(f *Fabric, phase int, now int64) {
	c.f, c.phase, c.now = f, phase, now
	c.pending.Store(int32(len(c.workers)))
	c.epoch.Add(1)
	for i := range c.workers {
		if w := &c.workers[i]; w.asleep.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
		}
	}
}

// end waits for the workers to finish the phase and drops the fabric.
// Every worker's panic of the phase is taken, so none is left to
// surface at a later phase. When the caller's own island finished
// (done), the lowest island's is raised again here; when the caller is
// panicking itself, its island is the lowest and its panic stands.
func (c *crew) end(done bool) {
	c.await()
	c.f = nil
	var first any
	for i := range c.workers {
		w := &c.workers[i]
		if first == nil {
			first = w.panicked
		}
		w.panicked = nil
	}
	if done && first != nil {
		panic(first)
	}
}

// await blocks until no worker is in a phase: it spins on the pending
// count, then parks until the last worker unparks it.
func (c *crew) await() {
	for i := 0; c.pending.Load() != 0; i++ {
		if i < c.polls {
			if i&1023 == 1023 {
				runtime.Gosched()
			}
			continue
		}
		c.asleep.Store(true)
		if c.pending.Load() == 0 {
			// Either the last worker saw the flag and is sending a
			// token, which must be taken, or it did not and none comes.
			if !c.asleep.CompareAndSwap(true, false) {
				<-c.wake
			}
			return
		}
		<-c.wake
	}
}

// work is worker i's loop: wait for the next epoch, step island i+1
// through that phase, report done, until stop sets quit.
func (c *crew) work(i int) {
	defer c.done.Done()
	w := &c.workers[i]
	var seen uint32
	for {
		for n := 0; c.epoch.Load() == seen; n++ {
			if n < c.polls {
				if n&1023 == 1023 {
					runtime.Gosched()
				}
				continue
			}
			w.asleep.Store(true)
			if c.epoch.Load() != seen {
				if !w.asleep.CompareAndSwap(true, false) {
					<-w.wake
				}
				break
			}
			<-w.wake
		}
		seen = c.epoch.Load()
		if c.quit {
			return
		}
		c.run(i + 1)
		if c.pending.Add(-1) == 0 && c.asleep.CompareAndSwap(true, false) {
			c.wake <- struct{}{}
		}
	}
}

// run steps island w through the current phase, keeping a panic for
// end to raise on the caller's goroutine.
func (c *crew) run(w int) {
	defer func() {
		if p := recover(); p != nil {
			c.workers[w-1].panicked = p
		}
	}()
	c.f.islandWork(c.phase, w, c.now)
}

// stop ends the workers and waits for them to exit. A phase that a
// panic on the caller's goroutine left running finishes first.
func (c *crew) stop() {
	c.await()
	c.f = nil
	c.quit = true
	c.epoch.Add(1)
	for i := range c.workers {
		if w := &c.workers[i]; w.asleep.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
		}
	}
	c.done.Wait()
}
