package router

import (
	"fmt"
	"math/bits"
	"testing"

	"chipletnet/internal/packet"
	"chipletnet/internal/rng"
)

// delivery is one sink event: which packet ejected at which cycle.
type delivery struct {
	id uint64
	at int64
}

// engine selects a cycle engine for the in-package tests: the reference
// stepper, the active-set engine, or the islands engine with the given
// island count over one-router chiplets (chipletOf[i] = i) and grain.
type engine struct {
	name    string
	ref     bool
	islands int
	grain   int
}

func (e engine) apply(f *Fabric) {
	f.UseReference = e.ref
	f.IslandGrain = e.grain
	if e.islands > 0 {
		chipletOf := make([]int, len(f.Routers))
		for i := range chipletOf {
			chipletOf[i] = i
		}
		f.EnableIslands(e.islands, chipletOf)
	}
}

var (
	refEngine    = engine{name: "reference", ref: true}
	activeEngine = engine{name: "active"}
	// grainEngine runs a cycle in parallel only when at least 3 of the
	// line's routers are active, so a run switches between serial and
	// parallel cycles as its load rises and falls.
	grainEngine = engine{name: "islands-2-g3", islands: 2, grain: 3}
)

// eventLog is a recording Tracer (and fault-log stand-in): every event
// as one line, in call order.
type eventLog []string

func (l *eventLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func (l *eventLog) PacketInjected(p *packet.Packet, node int, now int64) {
	l.add("inject %d at %d t%d", p.ID, node, now)
}

func (l *eventLog) FlitsMoved(p *packet.Packet, from, to, vc, n int, head bool, now int64) {
	l.add("move %d %d->%d vc%d n%d head=%v t%d", p.ID, from, to, vc, n, head, now)
}

func (l *eventLog) PacketDelivered(p *packet.Packet, now int64) {
	l.add("deliver %d t%d", p.ID, now)
}

// driveLine runs a fixed deterministic workload (bursty injections from
// several sources) on a freshly built line fabric under engine e and
// returns the full delivery trace plus the event log. Links 1 and 3 run
// the reliability protocol, attached after the engine is selected (as the
// fault engine does after Build), with a deterministic corruption source
// whose calls are logged; traced also attaches the log as the Tracer.
func driveLine(e engine, traced bool) ([]delivery, eventLog, *Fabric) {
	f := buildLine(6, 2, 32, 2, 3)
	e.apply(f)
	var trace []delivery
	var events eventLog
	f.Sink = func(p *packet.Packet, now int64) { trace = append(trace, delivery{p.ID, now}) }
	if traced {
		f.Tracer = &events
	}
	for _, id := range []int{1, 3} {
		f.Links[id].Rel = &LinkRel{Timeout: 28, BackoffMax: 64, Corrupt: func(now int64, n int) int {
			events.add("corrupt-draw link %d t%d n%d", id, now, n)
			if now%9 == 0 {
				return 1
			}
			return 0
		}}
	}
	f.CreditAudit = true
	id := uint64(0)
	for cy := int64(1); cy <= 600; cy++ {
		// A deterministic, bursty pattern touching several sources,
		// destinations and packet lengths (including multi-packet bursts
		// in one cycle and ejections at the Rel-owning router 1).
		if cy%7 == 0 {
			id++
			f.Routers[0].Inject(mkPacket(id, 0, 5, 32, cy), cy)
		}
		if cy%11 == 0 {
			id++
			f.Routers[0].Inject(mkPacket(id, 0, 1, 8, cy), cy)
		}
		if cy%13 == 0 {
			id++
			f.Routers[2].Inject(mkPacket(id, 2, 4, 8, cy), cy)
		}
		if cy%31 == 0 {
			id++
			f.Routers[1].Inject(mkPacket(id, 1, 5, 16, cy), cy)
			id++
			f.Routers[3].Inject(mkPacket(id, 3, 5, 16, cy), cy)
		}
		f.Step()
	}
	for f.InFlight() > 0 && f.Now < 5000 {
		f.Step()
	}
	return trace, events, f
}

// TestActiveSetMatchesReference is the package-level differential check:
// the active-set engine and the islands engine at K = 1, 2, 3 and at K =
// 2 with a grain that mixes serial and parallel cycles — with and
// without a recording Tracer — must produce the exact same delivery trace
// (IDs and cycles), Tracer and corruption-draw event sequence, and final
// fabric state as the reference stepper on a shared workload. The
// full-system matrix lives at the module root (engine_equiv_test.go);
// this is the fast inner guard.
func TestActiveSetMatchesReference(t *testing.T) {
	for _, traced := range []bool{false, true} {
		ref, refEvents, fRef := driveLine(refEngine, traced)
		if fRef.InFlight() != 0 {
			t.Fatal("reference workload did not drain")
		}
		for _, e := range []engine{activeEngine, {"islands-1", false, 1, 0}, {"islands-2", false, 2, 0}, {"islands-3", false, 3, 0}, grainEngine} {
			t.Run(fmt.Sprintf("%s/traced=%v", e.name, traced), func(t *testing.T) {
				got, events, f := driveLine(e, traced)
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Fatalf("delivery trace differs from the reference\n got %v\nwant %v", got, ref)
				}
				if len(events) != len(refEvents) {
					t.Fatalf("%d events, reference %d", len(events), len(refEvents))
				}
				for i := range events {
					if events[i] != refEvents[i] {
						t.Fatalf("event %d: %q, reference %q", i, events[i], refEvents[i])
					}
				}
				if f.Now != fRef.Now {
					t.Errorf("final cycle %d, reference %d", f.Now, fRef.Now)
				}
				if f.BufferedFlits() != fRef.BufferedFlits() || f.InFlight() != fRef.InFlight() {
					t.Errorf("final occupancy %d flits/%d in flight, reference %d/%d",
						f.BufferedFlits(), f.InFlight(), fRef.BufferedFlits(), fRef.InFlight())
				}
				if _, serial := f.IslandLayout(); serial != nil && (!serial[1] || !serial[3]) {
					t.Errorf("Rel-protected links not exchanged serially: %v", serial)
				}
			})
		}
	}
}

// TestDrainedFabricLeavesActiveSets verifies the active-set invariant
// from the other side: once traffic drains, every router and link must
// have left the work-lists (an idle fabric cycle costs O(words), not
// O(components)). Under the islands engine ActiveSets is the union of
// the per-island, serial and per-island serial-wake sets, so no bit of
// any of them may remain.
func TestDrainedFabricLeavesActiveSets(t *testing.T) {
	for _, e := range []engine{activeEngine, {"islands-2", false, 2, 0}, grainEngine} {
		t.Run(e.name, func(t *testing.T) {
			_, _, f := driveLine(e, false)
			if f.InFlight() != 0 {
				t.Fatal("workload did not drain")
			}
			// In-flight credits and acks outlive the last delivery by the
			// link latency; a few extra steps retire them and prune the
			// just-emptied entries.
			runCycles(f, 16)
			routers, links := f.ActiveSets()
			for i, w := range routers {
				if w != 0 {
					t.Errorf("router active set word %d = %b after drain", i, w)
				}
			}
			for i, w := range links {
				if w != 0 {
					t.Errorf("link active set word %d = %b after drain", i, w)
				}
			}
		})
	}
}

// TestStepSteadyStateZeroAlloc enforces the zero-alloc policy from
// doc.go: advancing a warmed-up fabric under load must not allocate,
// under the active-set engine, the islands engine's sequential K=1 path
// and its parallel K=2 path (every cycle handed to the persistent
// worker). AllocsPerRun is unreliable under the race detector, so the
// assertion is skipped there (the equivalence suites still run).
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, e := range []engine{activeEngine, {"islands-1", false, 1, 0}, {"islands-2", false, 2, 0}} {
		t.Run(e.name, func(t *testing.T) {
			f := buildLine(6, 2, 32, 2, 3)
			e.apply(f)
			f.CreditAudit = true // the audit must be zero-alloc too
			// A deep backlog: 60 packets x 32 flits over a 2 flit/cycle
			// line keep the fabric busy for ~1000 cycles.
			for i := 0; i < 60; i++ {
				f.Routers[0].Inject(mkPacket(uint64(i), 0, 5, 32, 0), 0)
				if i%3 == 0 {
					f.Routers[2].Inject(mkPacket(uint64(1000+i), 2, 5, 32, 0), 0)
				}
			}
			defer f.Close()
			runCycles(f, 100) // warm: fifos, grant lists, scratch and workers reach capacity
			allocs := testing.AllocsPerRun(400, func() { f.Step() })
			if allocs != 0 {
				t.Errorf("steady-state Step allocates %.1f times per cycle, want 0", allocs)
			}
			if f.InFlight() == 0 {
				t.Fatal("backlog drained before measurement ended; the test measured an idle fabric")
			}
			if want := e.islands - 1; e.islands > 1 && workers(f) != want {
				t.Fatalf("%d island workers, want %d: the cycles did not run in parallel", workers(f), want)
			}
		})
	}
}

// TestAuditCreditsDoesNotAllocateAfterWarmup pins the satellite fix: the
// per-cycle credit audit reuses fabric-owned scratch buffers.
func TestAuditCreditsDoesNotAllocateAfterWarmup(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	f := buildLine(4, 2, 32, 2, 1)
	f.Sink = func(p *packet.Packet, now int64) {}
	f.Routers[0].Inject(mkPacket(1, 0, 3, 32, 0), 0)
	runCycles(f, 10)
	if err := f.AuditCredits(); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.AuditCredits(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AuditCredits allocates %.1f times per call, want 0", allocs)
	}
}

// checkMasks compares every input port's wait-set with the set of its
// VCs in vcRouting and the router's waiting and grants counters (which
// end the allocators' scans) with the VC states and grant lists, and
// checks that every router with a waiting or granted VC is in the
// engine's active set.
func checkMasks(t *testing.T, f *Fabric, when string) {
	t.Helper()
	active, _ := f.ActiveSets()
	for _, r := range f.Routers {
		waiting, grants := 0, 0
		for _, o := range r.Out {
			grants += len(o.granted)
		}
		for _, ip := range r.In {
			waiting += bits.OnesCount32(ip.waitSet)
			var want uint32
			for _, v := range ip.VCs {
				if v.state == vcRouting {
					want |= 1 << uint(v.Index)
				}
			}
			if ip.waitSet != want {
				t.Fatalf("%s: router %d port %d wait-set %b, VCs in routing %b", when, r.Node, ip.Index, ip.waitSet, want)
			}
		}
		if r.waiting != waiting || r.grants != grants {
			t.Fatalf("%s: router %d counts %d waiting / %d grants, state has %d / %d", when, r.Node, r.waiting, r.grants, waiting, grants)
		}
		if r.busy() && active[r.idx>>6]&(1<<uint(r.idx&63)) == 0 {
			t.Fatalf("%s: busy router %d is not in the active set", when, r.Node)
		}
	}
}

// TestActiveSetMasksMatchState checks the derived masks — each input
// port's wait-set, and the active set's cover of busy routers — after
// every cycle of a randomized backlog on a line of 32-VC ports, under the active engine and the
// islands engine at K = 2 (every cycle parallel, and with a grain that
// mixes serial and parallel cycles), and right after Restore rewinds the
// busy fabric to a snapshot taken 50 cycles earlier, whose masks differ.
func TestActiveSetMasksMatchState(t *testing.T) {
	for _, e := range []engine{activeEngine, {"islands-2", false, 2, 0}, grainEngine} {
		t.Run(e.name, func(t *testing.T) {
			const n = 6
			f := buildLine(n, maxPortVCs, 32, 2, 2)
			e.apply(f)
			f.Sink = func(*packet.Packet, int64) {}
			f.CreditAudit = true
			rnd := rng.New(7)
			var st FabricState
			var tbl *packet.Table
			id := uint64(0)
			for cy := 1; cy <= 300 || (f.InFlight() > 0 && cy < 20000); cy++ {
				if cy <= 300 {
					for k := rnd.Intn(3); k > 0; k-- {
						src := rnd.Intn(n)
						id++
						f.Routers[src].Inject(mkPacket(id, src, src+rnd.Intn(n-src), 1+rnd.Intn(16), f.Now), f.Now)
					}
				}
				f.Step()
				checkMasks(t, f, fmt.Sprintf("cycle %d", f.Now))
				switch cy {
				case 200:
					tbl = packet.NewTable()
					st = f.Snapshot(tbl)
				case 250:
					if err := f.Restore(&st, packet.Materialize(tbl.List())); err != nil {
						t.Fatal(err)
					}
					checkMasks(t, f, "after Restore")
					live := 0
					for _, r := range f.Routers {
						live += r.waiting + r.grants
					}
					if live == 0 {
						t.Fatal("snapshot holds no waiting or granted VC; the restore check is vacuous")
					}
				}
			}
			if f.InFlight() != 0 {
				t.Fatalf("%d packets still in flight", f.InFlight())
			}
		})
	}
}

// scanRouting records the order VC allocation visits head packets in and
// grants nothing (its one candidate admits no VC).
type scanRouting struct{ order *[]uint64 }

func (s scanRouting) Candidates(r *Router, inPort int, p *packet.Packet, buf []Candidate) []Candidate {
	*s.order = append(*s.order, p.ID)
	return append(buf, Candidate{Port: 0})
}

func (scanRouting) SafeAt(*Router, int, *packet.Packet) bool { return true }

// TestVCAllocateScanOrder pins the wait-set walk to the rotated port
// order with ascending VCs that a full scan of the ports visits, at every
// rotation. All three engines share vcAllocate, so the reference engine
// cannot catch a wrong order.
func TestVCAllocateScanOrder(t *testing.T) {
	f := NewFabric()
	r := f.NewRouter(0)
	r.AddOutPort()
	f.MakeEjection(r, 0, 1, 1)
	for _, vcs := range []int{1, 3, 0, maxPortVCs, 5, 14, 2} {
		r.AddInPort(vcs, 1<<20)
	}
	var order []uint64
	f.Routing = scanRouting{&order}
	// Every third VC holds a waiting head; packet IDs name VCs.
	n := 0
	for _, ip := range r.In {
		for _, v := range ip.VCs {
			if n%3 == 0 {
				v.receive(mkPacket(uint64(100*ip.Index+v.Index), 0, 0, 1, 0), 1, 0)
			}
			n++
		}
	}
	for rot := 0; rot < 2*len(r.In); rot++ {
		var want []uint64
		start := r.vaOffset % len(r.In)
		for k := range r.In {
			ip := r.In[(start+k)%len(r.In)]
			for _, v := range ip.VCs {
				if v.state == vcRouting {
					want = append(want, uint64(100*ip.Index+v.Index))
				}
			}
		}
		order = order[:0]
		r.vcAllocate(10)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("rotation %d: visited %v, want %v", rot, order, want)
		}
	}
}
