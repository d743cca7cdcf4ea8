package router

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"chipletnet/internal/packet"
)

// settleGoroutines waits up to two seconds for runtime.NumGoroutine to
// fall to want, collecting garbage between polls so that cleanups of
// unreachable fabrics run, and reports the last count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return n
}

// quietGoroutines collects the fabrics earlier tests left unclosed and
// returns the goroutine count once it holds still.
func quietGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// loadedLine returns a 6-router line under the islands engine at k
// islands with a backlog that keeps it busy for hundreds of cycles.
func loadedLine(k int) *Fabric {
	f := buildLine(6, 2, 32, 2, 3)
	engine{name: fmt.Sprintf("islands-%d", k), islands: k}.apply(f)
	for i := 0; i < 20; i++ {
		f.Routers[0].Inject(mkPacket(uint64(i), 0, 5, 32, 0), 0)
	}
	return f
}

// TestIslandWorkersPersist checks that a parallel cycle starts K-1
// workers once and reuses them, that Close stops them and that the next
// parallel cycle starts them again.
func TestIslandWorkersPersist(t *testing.T) {
	base := quietGoroutines()
	f := loadedLine(3)
	runCycles(f, 1)
	if got := workers(f); got != 2 {
		t.Fatalf("after one parallel cycle %d workers, want 2", got)
	}
	first := f.isl.crew
	runCycles(f, 50)
	if f.isl.crew != first {
		t.Fatal("the workers were replaced between parallel cycles")
	}
	f.Close()
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after Close, want %d", n, base)
	}
	f.Close() // idempotent
	runCycles(f, 1)
	if got := workers(f); got != 2 {
		t.Fatalf("a parallel cycle after Close runs %d workers, want 2", got)
	}
	f.Close()
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after the second Close, want %d", n, base)
	}
}

// TestIslandGrainKeepsIdleCyclesInline checks the per-cycle switch: a
// grain above the active router count steps serially and starts no
// worker; lowering it sends the next cycle to the workers.
func TestIslandGrainKeepsIdleCyclesInline(t *testing.T) {
	f := loadedLine(2)
	defer f.Close()
	f.IslandGrain = len(f.Routers) + 1
	runCycles(f, 20)
	if got := workers(f); got != 0 {
		t.Fatalf("grain above the router count started %d workers", got)
	}
	f.IslandGrain = 1
	runCycles(f, 1)
	if got := workers(f); got != 1 {
		t.Fatalf("grain 1 on a busy line runs %d workers, want 1", got)
	}
}

// TestIslandGrainSwitchesActiveSets checks that the active sets live in one
// place at a time: in the fabric's bitmaps after a serial cycle, in the
// islands' after a parallel one, and that a run under a grain between
// its busiest and idlest cycles switches both ways and still drains.
func TestIslandGrainSwitchesActiveSets(t *testing.T) {
	f := buildLine(6, 2, 32, 2, 3)
	grainEngine.apply(f)
	defer f.Close()
	empty := func(sets ...[]uint64) bool {
		for _, set := range sets {
			for _, w := range set {
				if w != 0 {
					return false
				}
			}
		}
		return true
	}
	serial, parallel := 0, 0
	for cy := int64(0); cy < 800; cy++ {
		if cy < 300 && cy%4 == 0 {
			f.Routers[cy%3].Inject(mkPacket(uint64(cy), int(cy%3), 5, 16, cy), cy)
		}
		f.Step()
		islands := [][]uint64{f.isl.serialLink}
		for w := range f.isl.islands {
			s := &f.isl.islands[w]
			islands = append(islands, s.rActive, s.lActive, s.serialWake)
		}
		if f.split == nil {
			serial++
			if !empty(islands...) {
				t.Fatalf("cycle %d ran serially with bits left in the island sets", f.Now)
			}
		} else {
			parallel++
			if !empty(f.routerActive, f.linkActive) {
				t.Fatalf("cycle %d ran in parallel with bits left in the fabric's sets", f.Now)
			}
		}
	}
	if serial == 0 || parallel == 0 {
		t.Fatalf("%d serial and %d parallel cycles, want both", serial, parallel)
	}
	if f.InFlight() != 0 {
		t.Fatalf("%d packets still in flight", f.InFlight())
	}
}

// TestIslandGrainMergeKeepsSerialWakes steps a line under the islands
// engine (K = 2: routers 0-2 and 3-5, so link 2->3 is the cut) beside
// the same line under the active-set engine, flipping the grain every
// cycle, and compares the link active sets after every cycle. Each
// packet is one bundle long, so the cut link is pushed once per packet
// and its Dst returns no credit until the bundle has arrived: when the
// push falls in a parallel cycle, the wake waits in island 0's
// serialWake, and nothing re-arms the link in the serial cycle after
// it. Packets enter 7 cycles apart, so their pushes fall on both cycle
// parities. A merge that clears serialWake without ORing it into the
// fabric's linkActive (dropping `or(f.linkActive, s.serialWake)` in
// islandState.merge) fails here at the first serial cycle after such a
// push, while FuzzIslandPartition's seeds pass, because there a later
// credit return on the link re-arms it before its flit is due.
func TestIslandGrainMergeKeepsSerialWakes(t *testing.T) {
	serial := buildLine(6, 2, 32, 2, 3)
	isl := buildLine(6, 2, 32, 2, 3)
	engine{name: "islands-2", islands: 2}.apply(isl)
	defer isl.Close()
	for cy := int64(0); cy < 120; cy++ {
		if cy < 40 && cy%7 == 0 {
			for _, f := range []*Fabric{serial, isl} {
				f.Routers[0].Inject(mkPacket(uint64(cy), 0, 5, 2, cy), cy)
			}
		}
		isl.IslandGrain = 0
		if cy%2 == 1 {
			isl.IslandGrain = math.MaxInt
		}
		serial.Step()
		isl.Step()
		_, want := serial.ActiveSets()
		_, got := isl.ActiveSets()
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d (parallel %v): link active set %x, active-set engine %x",
				isl.Now, isl.split != nil, got, want)
		}
	}
	if serial.InFlight() != 0 || isl.InFlight() != 0 {
		t.Fatalf("%d and %d packets still in flight", serial.InFlight(), isl.InFlight())
	}
}

// TestUnclosedFabricReleasesWorkers checks that a fabric stepped by hand
// and dropped without Close stops its workers once it is collected.
func TestUnclosedFabricReleasesWorkers(t *testing.T) {
	base := quietGoroutines()
	func() {
		f := loadedLine(4)
		runCycles(f, 10)
		if got := workers(f); got != 3 {
			t.Fatalf("%d workers, want 3", got)
		}
	}()
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after the fabric became unreachable, want %d", n, base)
	}
}

// panicRouting is lineRouting that panics at the given routers once
// the fabric reaches cycle *at.
type panicRouting struct {
	lineRouting
	nodes []int
	at    *int64
}

func (p panicRouting) Candidates(r *Router, inPort int, pk *packet.Packet, buf []Candidate) []Candidate {
	for _, n := range p.nodes {
		if r.Node == n && r.Fabric.Now >= *p.at {
			panic(fmt.Sprintf("routing panic at router %d", r.Node))
		}
	}
	return p.lineRouting.Candidates(r, inPort, pk, buf)
}

// TestWorkerPanicRaisedOnCaller checks that a panic during a parallel
// phase comes out of Step on the caller's goroutine, whichever island
// raised it, that it is the panic the active-set engine raises (the
// lowest router's when routers in both islands panic in one phase), and
// that no worker keeps a panic to raise at a later phase, and that
// Close then stops the workers. At K = 2 routers 0-2 are island 0 (the
// caller) and 3-5 island 1; at K = 3 routers 2-3 and 4-5 are islands 1
// and 2, both on workers. Packets injected at routers 1, 2 and 4 in the
// same cycle reach VC allocation in the same phase.
func TestWorkerPanicRaisedOnCaller(t *testing.T) {
	run := func(t *testing.T, e engine, nodes []int) any {
		f := buildLine(6, 2, 32, 2, 3)
		e.apply(f)
		defer f.Close()
		at := int64(1 << 62)
		f.Routing = panicRouting{nodes: nodes, at: &at}
		runCycles(f, 5)
		at = f.Now + 1
		f.Routers[1].Inject(mkPacket(1, 1, 2, 8, f.Now), f.Now)
		f.Routers[2].Inject(mkPacket(2, 2, 3, 8, f.Now), f.Now)
		f.Routers[4].Inject(mkPacket(3, 4, 5, 8, f.Now), f.Now)
		var got any
		func() {
			defer func() { got = recover() }()
			runCycles(f, 20)
		}()
		if is := f.isl; is != nil && is.crew != nil {
			for i := range is.crew.workers {
				if p := is.crew.workers[i].panicked; p != nil {
					t.Errorf("worker of island %d still holds panic %v", i+1, p)
				}
			}
		}
		return got
	}
	for _, tc := range []struct {
		name  string
		k     int
		nodes []int
		want  string
	}{
		{"worker", 2, []int{4}, "routing panic at router 4"},
		{"caller", 2, []int{1}, "routing panic at router 1"},
		{"both", 2, []int{1, 4}, "routing panic at router 1"},
		{"two-workers", 3, []int{2, 4}, "routing panic at router 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, activeEngine, tc.nodes); got != tc.want {
				t.Fatalf("active engine panicked with %v, want %q", got, tc.want)
			}
			base := quietGoroutines()
			e := engine{name: fmt.Sprintf("islands-%d", tc.k), islands: tc.k}
			if got := run(t, e, tc.nodes); got != tc.want {
				t.Fatalf("islands engine panicked with %v, want %q", got, tc.want)
			}
			if n := settleGoroutines(base); n != base {
				t.Fatalf("%d goroutines after Close, want %d", n, base)
			}
		})
	}
}
