package verify

import (
	"runtime"
	"sync"
)

// forcedBlocks, when positive, replaces GOMAXPROCS as the block count of
// pass 1. Only tests set it, to show that the report does not depend on
// the block count.
var forcedBlocks int

// noChipletMemo turns the destination-chiplet memo (memoFor) off whatever
// the routing declares. Only tests set it, to show that the report does
// not depend on the memo.
var noChipletMemo bool

// pass1 runs pass 1 over k = min(GOMAXPROCS, destinations) contiguous
// blocks of g.dests, each on its own goroutine and its own analyzer, and
// merges them in block order into block 0's, which reports into rep and
// is returned for pass 2. This file holds the certifier's only
// concurrency (see DESIGN.md, "Static verification").
//
// A round reads nothing another round writes except what merge combines:
// C1, the off-grid channel numbering, the pass-1 record and the report's
// counts, bounds and witnesses. Merging in block order is merging in
// round order, so the result is the one traversal's whatever k is. Each
// block recovers its own panic; the first panicking block in block order
// holds the first panicking round, so pass1 merges the blocks up to and
// including it (that one only as far as it got) and re-panics with its
// value, which Run reports as it reports a panic of a single traversal.
// At most GOMAXPROCS blocks hold per-round scratch at once; a finished
// block other than block 0 keeps only what merge reads.
func pass1(g *grid, rep *Report) *analyzer {
	procs := runtime.GOMAXPROCS(0)
	k := procs
	if forcedBlocks > 0 {
		k = forcedBlocks
	}
	k = max(1, min(k, len(g.dests)))
	var streams []StateStream
	if g.opt.Sink != nil {
		streams = g.opt.Sink.Streams(k)
	}
	blocks := make([]*analyzer, k)
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for i := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := rep
			if i > 0 {
				r = &Report{EscapeRequired: rep.EscapeRequired}
			}
			var sink StateStream
			if streams != nil {
				sink = streams[i]
			}
			b := newAnalyzer(g, r, sink)
			b.runBlock(i*len(g.dests)/k, (i+1)*len(g.dests)/k)
			if i > 0 {
				b.roundScratch, b.seen = roundScratch{}, nil
			}
			blocks[i] = b
		}()
	}
	wg.Wait()
	a := blocks[0]
	for _, b := range blocks {
		if b != a {
			a.merge(b)
		}
		if b.pv != nil {
			panic(b.pv)
		}
	}
	return a
}

// runBlock runs the pass-1 rounds of destinations dests[lo:hi], recovering
// a panic into a.pv (never nil for a panic: panic(nil) recovers as a
// *runtime.PanicNilError).
func (a *analyzer) runBlock(lo, hi int) {
	defer func() { a.pv = recover() }()
	a.nround = int32(lo * len(a.tags))
	for i := lo; i < hi; i++ {
		dst := a.dests[i]
		a.memoFor(i, hi)
		for _, tag := range a.tags {
			a.round(dst, tag)
		}
	}
}

// merge appends block b, whose rounds directly follow a's, to a, leaving
// a as it would be had it run b's rounds itself: b's off-grid channels
// are numbered on in b's first-seen order, C1 is the union, b's record
// entries keep their (global) rounds and are dropped where a already
// recorded the same dependency, States add up, the hop bounds take the
// larger, and each witness category keeps its first MaxWitnesses with
// the rest counted in Truncated.
func (a *analyzer) merge(b *analyzer) {
	ids := make([]int32, len(b.extraCh))
	for i, ch := range b.extraCh {
		ids[i] = a.intern(ch.From, ch.To, ch.VC)
	}
	global := func(id int32) int32 {
		if id < a.ndense {
			return id
		}
		return ids[id-a.ndense]
	}
	for id, in := range b.c1 {
		if !in {
			continue
		}
		if g := global(int32(id)); !a.c1[g] {
			a.c1[g] = true
			a.nc1++
		}
	}
	for _, e := range b.rec {
		if e.to == contUnasked {
			a.addUnasked(b.unasked[e.from], e.round)
		} else {
			a.addDepRec(e.from, global(e.to), e.round)
		}
	}
	r, s := a.rep, b.rep
	r.States += s.States
	r.EscapeHopBound = max(r.EscapeHopBound, s.EscapeHopBound)
	r.AdaptiveHopBound = max(r.AdaptiveHopBound, s.AdaptiveHopBound)
	r.Truncated += s.Truncated
	r.MissingEscape = keepFirst(a, r.MissingEscape, s.MissingEscape)
	r.DeadEnds = keepFirst(a, r.DeadEnds, s.DeadEnds)
	r.Unreachable = keepFirst(a, r.Unreachable, s.Unreachable)
	r.Livelock = keepFirst(a, r.Livelock, s.Livelock)
	r.VCViolations = keepFirst(a, r.VCViolations, s.VCViolations)
}

// keepFirst appends to have as many of more as the witness cap leaves
// room for and counts the rest in a's Truncated, as room does one at a
// time.
func keepFirst[T any](a *analyzer, have, more []T) []T {
	n := min(len(more), max(a.opt.MaxWitnesses-len(have), 0))
	a.rep.Truncated += len(more) - n
	return append(have, more[:n]...)
}
