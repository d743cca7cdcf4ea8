package router

import "math/bits"

// This file is the active-set cycle engine: the throughput-oriented
// counterpart of stepReference. Instead of walking every link and router
// each cycle, the fabric keeps two bitmaps (routerActive, linkActive)
// naming the components that may have work. The bitmaps are maintained
// eagerly — every state transition that creates future work sets the
// bit — and lazily pruned by the engine once a component is provably
// idle. Iterating set bits with bits.TrailingZeros64 visits components
// in strictly ascending index order, i.e. in exactly the order the
// reference stepper uses, which is what makes the two engines
// bit-identical (the delivery order into the statistics collector's
// floating-point accumulators is part of the observable behaviour).
//
// The invariants, and why skipping a clear bit is sound, are spelled
// out in doc.go.

// wakeRouter marks r live for the cycle engine (idempotent, O(1)).
// Called by VC.startHead whenever a head packet enters the pipeline.
// While the islands engine has the sets split, the bit lands in the
// owning island's bitmap instead (see islands.go for why that is
// race-free).
func (f *Fabric) wakeRouter(r *Router) {
	if f.split != nil {
		f.split.wakeRouter(r)
		return
	}
	f.routerActive[r.idx>>6] |= 1 << uint(r.idx&63)
}

// wakeLink marks l live for the cycle engine (idempotent, O(1)).
// Called by Link.push (from = l.Src) and Link.returnCredit (from = l.Dst)
// whenever traffic enters the link's pipelines; while the islands
// engine has the sets split, it files the wake under from's island.
func (f *Fabric) wakeLink(l *Link, from *Router) {
	if f.split != nil {
		f.split.wakeLink(l, from)
		return
	}
	f.linkActive[l.ID>>6] |= 1 << uint(l.ID&63)
}

// stepActive advances the fabric by one cycle visiting only active
// components. The phase structure is identical to stepReference:
// link delivery, then VC allocation, then switch allocation, then the
// watchdog/audit tail.
func (f *Fabric) stepActive() {
	f.Now++
	now := f.Now
	moved := f.deliverLinks(f.linkActive, now)
	f.allocate(f.routerActive, now)
	if f.transmit(f.routerActive, nil, now) {
		moved = true
	}
	f.finishStep(now, moved)
}

// The three phase walks below are the only code that runs a phase over
// an active set; stepActive calls them on the fabric's bitmaps and
// stepIslands on each island's. Each visits the set bits of act in
// ascending index order — the reference order — and clears the bit of a
// component left with nothing to do.

// deliverLinks is phase 1, link delivery. Delivering can wake routers
// (flit arrival starts a head pipeline) but never another link, so a
// snapshot of each word is safe to iterate. A link whose pipelines
// drained completely leaves the set; push and returnCredit re-add it.
func (f *Fabric) deliverLinks(act []uint64, now int64) bool {
	moved := false
	for wi, w := range act {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			l := f.Links[wi<<6|b]
			if l.deliver(now) {
				moved = true
			}
			if !l.pendingWork() {
				act[wi] &^= 1 << uint(b)
			}
		}
	}
	return moved
}

// allocate is phase 2, VC allocation. Granting a VC never wakes another
// router, so the phase sees a stable set. Routers stay in the set here
// even if only grants remain — transmit decides departure.
func (f *Fabric) allocate(act []uint64, now int64) {
	for wi, w := range act {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			f.Routers[wi<<6|b].vcAllocate(now)
		}
	}
}

// transmit is phase 3, switch allocation and transmission, for the
// routers of act not set in skip (nil skips none; skipped bits stay
// set). Ascending order is observable: delivery feeds float accumulators
// in the stats collector. Transfers wake links and possibly the router's
// own next head, never a different router. A router with no waiting
// heads and no grants left has every VC idle and leaves the set.
func (f *Fabric) transmit(act, skip []uint64, now int64) bool {
	moved := false
	for wi, w := range act {
		if skip != nil {
			w &^= skip[wi]
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r := f.Routers[wi<<6|b]
			if r.switchAllocate(now) {
				moved = true
			}
			if !r.busy() {
				act[wi] &^= 1 << uint(b)
			}
		}
	}
	return moved
}

// rebuildActive reconstructs the active sets and each router's counters
// and wait-set (rebuildDerived) from the fabric's current state. All of
// them are derived state — deliberately not checkpointed; Restore calls
// this after laying snapshot state onto the fabric.
func (f *Fabric) rebuildActive() {
	clear(f.routerActive)
	clear(f.linkActive)
	if f.isl != nil {
		// Island bitmaps and the link classification are derived state
		// too: zero them and merge the sets, so every wake below lands in
		// the fabric's bitmaps and the next parallel cycle reclassifies
		// (a link may have gained or lost a reliability protocol since
		// the last epoch) before it scatters them.
		f.isl.reset()
		f.split = nil
	}
	for _, r := range f.Routers {
		r.rebuildDerived()
		if r.busy() {
			f.wakeRouter(r)
		}
	}
	for _, l := range f.Links {
		if l.pendingWork() {
			f.wakeLink(l, l.Src)
		}
	}
}
