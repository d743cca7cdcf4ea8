package router

import (
	"fmt"
	"sync"

	"chipletnet/internal/packet"
)

// This file is the parallel-islands cycle engine: the third Fabric.Step
// implementation, alongside stepReference (the oracle) and stepActive
// (the serial active-set engine). The fabric is partitioned at Build
// time into K islands — contiguous chiplet ranges balanced by router
// count — and each island's active sets are stepped on its own worker
// goroutine with the same phase walks stepActive uses (deliverLinks,
// allocate, transmit in engine.go). Everything that crosses an island
// boundary is exchanged through deterministic mailboxes drained in
// ascending global index order at per-cycle barriers, so the engine is
// bit-for-bit identical to the serial engines: same delivery order into
// the statistics collector, same fault log, same RNG consumption, same
// checkpoints.
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
//     worker wakes never share a word. A serially-exchanged link is
//     woken in the plain serialWake bitmap of the waking endpoint's
//     island — push wakes from l.Src, returnCredit from l.Dst — so the
//     two sides of a cut link write different bitmaps; the coordinator
//     ORs them into the serial set before the serial delivery pass.
//     Bit-sets are idempotent and order-free, so the merged wake state
//     is schedule-independent.
//
// Everything else either touches only the owning island's state or is a
// phase-stable cross-island read (VC allocation reads downstream input
// queues, which no one mutates during phase 2), with the per-phase
// barriers providing the happens-before edges the race detector checks.
//
// Single-island partitions and traced runs (a Tracer observes per-flit
// movement order) run the same cycle with the islands stepped one after
// another on the caller's goroutine. That is ascending global order, so
// phase 3 handles Rel-owning routers and ejections in place.
//
// The island assignment, mailboxes and active sets are all derived
// state: Snapshot does not record them, Restore rebuilds them, and
// checkpoint files stay byte-identical across all three engines.

// ejection is one deferred packet delivery: the ejecting router's index
// keys the merge back into global ascending order at the barrier drain.
type ejection struct {
	router int32
	p      *packet.Packet
}

// islandState is the engine state of the parallel-islands stepper. It is
// derived from the fabric (EnableIslands, rebuildActive) and never
// checkpointed.
type islandState struct {
	k int

	// routerIsland[idx] is the owning island of Routers[idx]; islands are
	// contiguous index ranges.
	routerIsland []int32

	// linkIsland[id] is the owning island of Links[id], or -1 for links
	// exchanged serially (inter-island cut or Rel-protected). Recomputed
	// by classify once per run epoch — the reliability protocol attaches
	// after Build, so classification is lazy.
	linkIsland []int32
	classified bool

	// Per-island active sets: full-size bitmaps in which only the owning
	// island's bits are ever set, so workers never share a word. The
	// union across islands (plus serialLink and serialWake) is exactly
	// the state the serial engines keep in Fabric.routerActive/linkActive.
	rActive [][]uint64
	lActive [][]uint64

	// serialLink is the active set of serially-exchanged links, walked
	// only by the coordinator. serialWake[w] holds the serial-link wakes
	// issued from island w's routers until the coordinator folds them in.
	serialLink []uint64
	serialWake [][]uint64

	// serialMask marks routers whose phase 3 must run on the coordinator
	// (they own a Rel-protected output link); workerMask is its complement.
	serialMask, workerMask []uint64

	// eject[w] collects worker w's deferred ejections (parallel phase 3);
	// ejectSerial[w] the coordinator's (serial phase-3 pass). Both are
	// appended in ascending router order and merged at the drain.
	eject       [][]ejection
	ejectSerial [][]ejection

	// parallel is set for a cycle whose phases run on worker goroutines:
	// phase 3 then skips serialMask routers and defers ejections.
	parallel bool

	// moved[w] is island w's flit-movement flag for the deadlock watchdog.
	moved []bool
}

// EnableIslands partitions the fabric into (at most) k islands of whole
// chiplets, balanced by router count, and selects the parallel-islands
// cycle engine for subsequent Steps. chipletOf[i] is the chiplet index
// of Routers[i] and must be non-decreasing (router indices are
// contiguous per chiplet — the topology builder's layout). k is clamped
// to the chiplet count; k == 1 runs the same engine without worker
// goroutines. Call between cycles only (normally right after Build);
// the engine state is derived, so Snapshot/Restore are unaffected.
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

	is := &islandState{
		k:            k,
		routerIsland: make([]int32, n),
		linkIsland:   make([]int32, len(f.Links)),
		rActive:      make([][]uint64, k),
		lActive:      make([][]uint64, k),
		serialLink:   make([]uint64, len(f.linkActive)),
		serialWake:   make([][]uint64, k),
		serialMask:   make([]uint64, len(f.routerActive)),
		workerMask:   make([]uint64, len(f.routerActive)),
		eject:        make([][]ejection, k),
		ejectSerial:  make([][]ejection, k),
		moved:        make([]bool, k),
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
			is.routerIsland[i] = int32(w)
		}
		if w < k-1 && (end*k >= n*(w+1) || numC-(c+1) == k-1-w) {
			w++
		}
	}
	for w := 0; w < k; w++ {
		is.rActive[w] = make([]uint64, len(f.routerActive))
		is.lActive[w] = make([]uint64, len(f.linkActive))
		is.serialWake[w] = make([]uint64, len(f.linkActive))
	}
	f.isl = is
	f.rebuildActive()
	// The fault engine attaches LinkRels after Build, so the first Step
	// classifies again.
	is.classified = false
}

// Islands returns the island count of the parallel engine, or 0 when it
// is disabled.
func (f *Fabric) Islands() int {
	if f.isl == nil {
		return 0
	}
	return f.isl.k
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
		f.rebuildActive()
	}
	assign = make([]int, len(f.Routers))
	for i, w := range is.routerIsland {
		assign[i] = int(w)
	}
	serial = make([]bool, len(f.Links))
	for i, w := range is.linkIsland {
		serial[i] = w < 0
	}
	return assign, serial
}

// ActiveSets returns copies of the engine's effective active sets —
// under the islands engine, the union of every island's bitmaps plus
// the serial link set and the pending serial-link wakes. The union must
// always equal the bitmaps the serial active-set engine would hold in
// the same state (the partition invariant FuzzIslandPartition checks).
func (f *Fabric) ActiveSets() (routers, links []uint64) {
	routers = make([]uint64, len(f.routerActive))
	links = make([]uint64, len(f.linkActive))
	is := f.isl
	if is == nil {
		copy(routers, f.routerActive)
		copy(links, f.linkActive)
		return routers, links
	}
	or := func(dst, src []uint64) {
		for i, word := range src {
			dst[i] |= word
		}
	}
	for w := 0; w < is.k; w++ {
		or(routers, is.rActive[w])
		or(links, is.lActive[w])
		or(links, is.serialWake[w])
	}
	or(links, is.serialLink)
	return routers, links
}

// wakeRouter marks r live in its island's active set. Only serial
// contexts (injection, the coordinator's serial passes) and the worker
// owning r's island ever call this, so the plain word write is safe:
// phase 1 wakes the receiving router, which is island-local for links a
// worker delivers, and phase 3 wakes only the processed router itself.
func (is *islandState) wakeRouter(r *Router) {
	is.rActive[is.routerIsland[r.idx]][r.idx>>6] |= 1 << uint(r.idx&63)
}

// wakeLink marks l live. Island-internal links are only ever woken by
// their own island's worker (push and returnCredit both originate at an
// endpoint, and internal links have both endpoints in one island); a
// serially-exchanged link's wake goes to the serialWake bitmap of from's
// island, which only that island's worker (or the coordinator) writes.
func (is *islandState) wakeLink(l *Link, from *Router) {
	w, set := is.linkIsland[l.ID], is.lActive
	if w < 0 {
		w, set = is.routerIsland[from.idx], is.serialWake
	}
	set[w][l.ID>>6] |= 1 << uint(l.ID&63)
}

// classify splits links into island-internal and serial sets and finds
// the routers whose phase 3 must run serially. Classification is lazy
// because the reliability protocol (fault engine) attaches LinkRels
// after Build; it reruns, through rebuildActive, at the first Step after
// EnableIslands or Restore, so no link bit is ever pending in a
// set of a stale classification.
func (is *islandState) classify(f *Fabric) {
	for _, l := range f.Links {
		w := int32(-1)
		if l.Rel == nil {
			if a := is.routerIsland[l.Src.idx]; a == is.routerIsland[l.Dst.idx] {
				w = a
			}
		}
		is.linkIsland[l.ID] = w
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

// reset zeroes every derived set and forces reclassification; the caller
// (rebuildActive) re-wakes live components afterwards.
func (is *islandState) reset() {
	for w := 0; w < is.k; w++ {
		clear(is.rActive[w])
		clear(is.lActive[w])
		clear(is.serialWake[w])
		is.eject[w] = is.eject[w][:0]
		is.ejectSerial[w] = is.ejectSerial[w][:0]
		is.moved[w] = false
	}
	clear(is.serialLink)
	is.parallel = false
	is.classified = false
}

// pushEject defers one packet delivery to the barrier drain. Parallel
// routers append to their island's worker-owned list, serial-pass
// routers to the coordinator's; both lists are filled in ascending
// router order and merged back together at the drain.
func (is *islandState) pushEject(r *Router, p *packet.Packet) {
	w := is.routerIsland[r.idx]
	e := ejection{router: int32(r.idx), p: p}
	if is.serialMask[r.idx>>6]&(1<<uint(r.idx&63)) != 0 {
		is.ejectSerial[w] = append(is.ejectSerial[w], e)
	} else {
		is.eject[w] = append(is.eject[w], e)
	}
}

// stepIslands advances the fabric by one cycle under the islands engine.
func (f *Fabric) stepIslands() {
	is := f.isl
	if !is.classified {
		f.rebuildActive()
	}
	f.Now++
	now := f.Now

	// Serial link exchange: fold the islands' wakes into the serial set,
	// then deliver every cut and Rel-protected link in ascending global
	// link ID — the mailbox drain. This runs before the island phases so
	// no worker touches a router an exchange is mutating; per-link
	// delivery is commutative (each link owns its destination input port
	// and source credit counters), so splitting the serial links out of
	// the per-island sweeps is unobservable.
	for w := 0; w < is.k; w++ {
		for i, word := range is.serialWake[w] {
			is.serialLink[i] |= word
		}
		clear(is.serialWake[w])
	}
	moved := f.deliverLinks(is.serialLink, now)

	is.parallel = is.k > 1 && f.Tracer == nil
	f.islandPhase(1, now)
	f.islandPhase(2, now)
	f.islandPhase(3, now)

	if is.parallel {
		// Serial phase-3 pass: routers owning Rel-protected output links,
		// in ascending index order, so fault-log records and per-link
		// corruption RNG draws happen in exactly the serial engines' order.
		for w := 0; w < is.k; w++ {
			if f.transmit(is.rActive[w], is.workerMask, now) {
				moved = true
			}
		}

		// Drain deferred ejections in ascending island order — by
		// contiguity, ascending global router order, the exact Sink call
		// order of the serial engines. Each island's two lists (parallel
		// and serial pass) are individually ascending; merge them by
		// router index.
		for w := 0; w < is.k; w++ {
			par, ser := is.eject[w], is.ejectSerial[w]
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
			is.eject[w] = par[:0]
			is.ejectSerial[w] = ser[:0]
		}
	}

	for w := 0; w < is.k; w++ {
		if is.moved[w] {
			moved = true
			is.moved[w] = false
		}
	}
	f.finishStep(now, moved)
}

// islandPhase runs one phase for every island: on k goroutines with a
// barrier at the end (the caller's doubles as island 0's worker) in a
// parallel cycle, else island after island in ascending order.
func (f *Fabric) islandPhase(phase int, now int64) {
	is := f.isl
	if !is.parallel {
		for w := 0; w < is.k; w++ {
			f.islandWork(phase, w, now)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(is.k - 1)
	for w := 1; w < is.k; w++ {
		go func(w int) {
			defer wg.Done()
			f.islandWork(phase, w, now)
		}(w)
	}
	f.islandWork(phase, 0, now)
	wg.Wait()
}

// islandWork runs phase 1 (link delivery), 2 (VC allocation) or 3
// (switch allocation) over island w's active sets. Only island w's state
// is written, apart from the single-producer link fifos and deferred
// ejections of phase 3 described in the file comment.
func (f *Fabric) islandWork(phase, w int, now int64) {
	is := f.isl
	switch phase {
	case 1:
		if f.deliverLinks(is.lActive[w], now) {
			is.moved[w] = true
		}
	case 2:
		f.allocate(is.rActive[w], now)
	default:
		var skip []uint64
		if is.parallel {
			skip = is.serialMask
		}
		if f.transmit(is.rActive[w], skip, now) {
			is.moved[w] = true
		}
	}
}
