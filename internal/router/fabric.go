package router

import (
	"fmt"

	"chipletnet/internal/packet"
)

// ejectCredits is the effectively-infinite credit count of ejection ports.
const ejectCredits = 1 << 30

// Fabric is a complete interconnection network: the routers, the links
// between them, the routing algorithm, and the cycle engine that advances
// them in lockstep. One Fabric runs one simulation; it is not safe for
// concurrent use (run independent Fabrics on separate goroutines instead).
type Fabric struct {
	Routers []*Router
	Links   []*Link

	// Routing is the routing algorithm consulted at the RC/VA stages.
	Routing Routing
	// SafeUnsafe enables the safe/unsafe flow-control policy
	// (Algorithm 5) at VC allocation.
	SafeUnsafe bool
	// OffChipVAExtra is the extra VC-allocation latency (cycles) for
	// candidates whose output link leaves the chiplet (§VI-A: "the
	// cross-chiplet VC allocation ... consume[s] more clock cycles").
	OffChipVAExtra int

	// Sink receives every delivered packet (tail flit consumed at the
	// destination). Set by the runner to the statistics collector.
	Sink func(p *packet.Packet, now int64)

	// Tracer, when non-nil, observes packet lifecycle events (injection,
	// per-link movement, delivery). Tracing is off the hot path only via
	// the nil check, so leave it nil for measurement runs.
	Tracer Tracer

	// Now is the current cycle, starting at 1 on the first Step.
	Now int64

	// DeadlockThreshold is the number of consecutive cycles without any
	// flit movement (while packets are in flight) after which the fabric
	// declares a deadlock. Zero disables detection.
	DeadlockThreshold int64
	// CreditAudit enables the per-cycle credit-conservation invariant
	// check (AuditCredits): a retransmission or flow-control bug that
	// leaks or double-returns a credit panics immediately with a
	// diagnosis instead of deadlocking silently thousands of cycles
	// later. Debug aid; costs one pass over all links per cycle.
	CreditAudit bool
	// Deadlocked is set when the watchdog fires.
	Deadlocked bool
	// Deadlock is the diagnostic snapshot taken the first time the
	// watchdog fires: the blocked routers and virtual channels, and the
	// oldest waiting packet. Nil while the fabric is live.
	Deadlock *DeadlockReport

	// UseReference selects the naive reference stepper (stepReference)
	// instead of the active-set engine. The two are observationally
	// identical (see doc.go); the reference exists as the oracle for the
	// differential-equivalence suite and for bisecting engine bugs.
	UseReference bool

	// IslandGrain is the islands engine's per-cycle switch: a cycle runs
	// its islands on the worker goroutines only when at least IslandGrain
	// routers are active at its start, and is a plain active-set cycle
	// (stepActive) on the caller's goroutine otherwise. Zero runs every
	// cycle in parallel. Either way the results are the same.
	IslandGrain int

	// isl, when non-nil, selects the parallel-islands engine
	// (EnableIslands, islands.go): the fabric is partitioned into
	// contiguous-chiplet islands stepped on worker goroutines with a
	// deterministic boundary exchange per cycle. Observationally
	// identical to both serial engines. UseReference wins if both are
	// set (the oracle must stay bisectable against any engine). Close
	// stops its workers.
	isl *islandState
	// split is isl while the active sets live in the islands' bitmaps
	// (the last cycle ran in parallel), nil while they live in
	// routerActive/linkActive; wakes go wherever it says.
	split *islandState

	inFlight     int
	lastProgress int64

	// routerActive and linkActive are the engine's active sets: bit i set
	// means Routers[i] (resp. Links[i]) may have work this cycle. Bits are
	// set by wakeRouter/wakeLink at every state transition that creates
	// work and cleared by the engine once a component is provably idle.
	// Iteration is always in ascending index order, so the active-set
	// engine visits live components in exactly the reference order.
	routerActive []uint64
	linkActive   []uint64

	// auditCharged/auditReturning are AuditCredits scratch buffers, kept
	// on the fabric so a per-cycle audit (-checkcredits) does not allocate.
	auditCharged, auditReturning []int
}

// NewFabric returns an empty fabric with deadlock detection enabled.
func NewFabric() *Fabric {
	return &Fabric{DeadlockThreshold: 2000}
}

// NewRouter appends a router implementing global node id and returns it.
func (f *Fabric) NewRouter(node int) *Router {
	r := &Router{Node: node, Fabric: f, idx: len(f.Routers), vaOffset: node}
	f.Routers = append(f.Routers, r)
	for len(f.routerActive)*64 < len(f.Routers) {
		f.routerActive = append(f.routerActive, 0)
	}
	return r
}

// ConnectPorts creates a unidirectional link from src output port srcPort to
// dst input port dstPort. The destination input port must already exist (its
// VC capacities size the sender's credit counters). The source output port
// must exist and be unused.
func (f *Fabric) ConnectPorts(src *Router, srcPort int, dst *Router, dstPort, bandwidth, latency int, offChip bool) *Link {
	if latency < 1 {
		panic("router: link latency must be >= 1")
	}
	if bandwidth < 1 {
		panic("router: link bandwidth must be >= 1")
	}
	op := src.Out[srcPort]
	if op.Link != nil {
		panic(fmt.Sprintf("router %d: output port %d already connected", src.Node, srcPort))
	}
	ip := dst.In[dstPort]
	if ip.Link != nil {
		panic(fmt.Sprintf("router %d: input port %d already connected", dst.Node, dstPort))
	}
	l := &Link{
		ID:  len(f.Links),
		Src: src, SrcPort: srcPort,
		Dst: dst, DstPort: dstPort,
		Bandwidth: bandwidth,
		Latency:   latency,
		OffChip:   offChip,
	}
	op.Link = l
	op.Credits = make([]int, len(ip.VCs))
	op.Owner = make([]*VC, len(ip.VCs))
	for i, vc := range ip.VCs {
		op.Credits[i] = vc.Cap
	}
	ip.Link = l
	f.Links = append(f.Links, l)
	for len(f.linkActive)*64 < len(f.Links) {
		f.linkActive = append(f.linkActive, 0)
	}
	return l
}

// MakeEjection configures output port port of r as the local ejection sink
// with the given consumption bandwidth (flits/cycle). vcSlots bounds how
// many packets can eject concurrently (sharing the bandwidth).
func (f *Fabric) MakeEjection(r *Router, port, vcSlots, bandwidth int) {
	op := r.Out[port]
	op.EjectBandwidth = bandwidth
	op.Credits = make([]int, vcSlots)
	op.Owner = make([]*VC, vcSlots)
	for i := range op.Credits {
		op.Credits[i] = ejectCredits
	}
}

// InFlight returns the number of packets injected but not yet delivered.
func (f *Fabric) InFlight() int { return f.inFlight }

func (f *Fabric) deliver(p *packet.Packet, now int64) {
	f.inFlight--
	if f.Sink != nil {
		f.Sink(p, now)
	}
}

// deliverFrom is the ejection path out of router r. In a parallel
// islands cycle the delivery is deferred into r's island's ordered
// ejection list and replayed at the barrier drain in ascending router
// order — the Sink call order and inFlight accounting of the serial
// engines; in every other context it is Fabric.deliver.
func (f *Fabric) deliverFrom(r *Router, p *packet.Packet, now int64) {
	if is := f.split; is != nil {
		is.pushEject(r, p)
		return
	}
	f.deliver(p, now)
}

// Step advances the fabric by one cycle:
//
//  1. links deliver due flits and credits,
//  2. every router runs VC allocation for waiting head packets,
//  3. every router runs switch allocation + transmission,
//  4. the deadlock watchdog checks for progress.
//
// Injection (traffic generation) is the caller's responsibility and should
// happen before Step for the same cycle via Router.Inject.
//
// By default Step runs the active-set engine (stepActive), which visits
// only components that may have work; UseReference selects the naive
// reference stepper and EnableIslands the parallel-islands engine. All
// three produce bit-identical state trajectories — see the package
// documentation for the equivalence argument.
func (f *Fabric) Step() {
	switch {
	case f.UseReference:
		f.stepReference()
	case f.isl != nil:
		f.stepIslands()
	default:
		f.stepActive()
	}
}

// stepReference is the pre-optimisation cycle engine: it visits every
// link and every router unconditionally. It is retained verbatim as the
// oracle for the differential-equivalence suite (engine_equiv_test.go at
// the module root) and must not be "optimised" — its value is being
// obviously correct.
func (f *Fabric) stepReference() {
	f.Now++
	now := f.Now

	moved := false
	for _, l := range f.Links {
		if l.deliver(now) {
			moved = true
		}
	}
	for _, r := range f.Routers {
		r.vcAllocate(now)
	}
	for _, r := range f.Routers {
		if r.switchAllocate(now) {
			moved = true
		}
	}

	f.finishStep(now, moved)
}

// finishStep runs the common per-cycle tail: the deadlock watchdog and
// the optional credit-conservation audit.
func (f *Fabric) finishStep(now int64, moved bool) {
	if moved {
		f.lastProgress = now
	} else if f.DeadlockThreshold > 0 && f.inFlight > 0 &&
		now-f.lastProgress > f.DeadlockThreshold {
		if !f.Deadlocked {
			f.Deadlock = f.snapshotDeadlock(now)
		}
		f.Deadlocked = true
	}

	if f.CreditAudit {
		if err := f.AuditCredits(); err != nil {
			panic(err)
		}
	}
}

// AuditCredits verifies credit conservation for every link-connected
// (output port, downstream VC): the sender's credit counter, the flits
// charged but not yet buffered downstream, the credit returns in flight,
// and the downstream buffer occupancy must sum to the buffer capacity.
// The conservation law holds at every cycle boundary, faults and
// retransmissions included — a violation means a credit was leaked or
// double-returned.
func (f *Fabric) AuditCredits() error {
	charged, returning := f.auditCharged, f.auditReturning
	defer func() { f.auditCharged, f.auditReturning = charged, returning }()
	for _, l := range f.Links {
		ip := l.Dst.In[l.DstPort]
		op := l.Src.Out[l.SrcPort]
		n := len(ip.VCs)
		charged = zeroInts(charged, n)
		returning = zeroInts(returning, n)
		l.chargedFlits(charged)
		for i := 0; i < l.credits.Len(); i++ {
			c := l.credits.At(i)
			returning[c.VC] += c.N
		}
		for vcIdx, vc := range ip.VCs {
			got := op.Credits[vcIdx] + charged[vcIdx] + returning[vcIdx] + vc.flits
			if got != vc.Cap {
				return fmt.Errorf("router: credit conservation violated on link %d (%d->%d) vc %d at cycle %d: credits %d + in-transit %d + returning %d + buffered %d = %d, want capacity %d",
					l.ID, l.Src.Node, l.Dst.Node, vcIdx, f.Now,
					op.Credits[vcIdx], charged[vcIdx], returning[vcIdx], vc.flits, got, vc.Cap)
			}
		}
	}
	return nil
}

// zeroInts returns buf resized to n and zeroed, reallocating only when
// it must grow.
func zeroInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// maxBlockedWitnesses caps the per-report blocked-VC witness list; the
// totals keep counting beyond it.
const maxBlockedWitnesses = 16

// BlockedVC identifies one stalled virtual channel in a deadlock snapshot:
// the buffer it occupies, its head packet, and how many cycles that packet
// has been in the network.
type BlockedVC struct {
	Node, Port, VC int
	Packet         *packet.Packet
	Age            int64 // cycles since the head packet entered its source queue
	Buffered       int   // flits buffered in the VC
}

func (b BlockedVC) String() string {
	return fmt.Sprintf("router %d port %d vc %d: packet %d->%d waiting %d cycles (%d flits buffered)",
		b.Node, b.Port, b.VC, b.Packet.Src, b.Packet.Dst, b.Age, b.Buffered)
}

// DeadlockReport is the watchdog's diagnostic snapshot: which routers and
// virtual channels hold stalled packets when progress ceased, and the age
// of the oldest waiting packet. It names the resources of the deadlocked
// configuration so a report can be cross-checked against the static
// verifier's channel-dependency-cycle witness.
type DeadlockReport struct {
	// Cycle is when the watchdog fired; StallCycles how long the fabric
	// had already been without flit movement at that point.
	Cycle, StallCycles int64
	// InFlight is the number of undelivered packets.
	InFlight int
	// BlockedRouters and BlockedVCs count every stalled resource; Blocked
	// lists the first maxBlockedWitnesses of them in router order.
	BlockedRouters, BlockedVCs int
	Blocked                    []BlockedVC
	// Oldest is the longest-waiting head packet and OldestAge its age in
	// cycles at the snapshot.
	Oldest    *packet.Packet
	OldestAge int64
}

func (d *DeadlockReport) String() string {
	s := fmt.Sprintf("deadlock at cycle %d: no flit movement for %d cycles, %d packets in flight, %d blocked VCs on %d routers",
		d.Cycle, d.StallCycles, d.InFlight, d.BlockedVCs, d.BlockedRouters)
	if d.Oldest != nil {
		s += fmt.Sprintf("; oldest packet %d->%d waiting %d cycles", d.Oldest.Src, d.Oldest.Dst, d.OldestAge)
	}
	for _, b := range d.Blocked {
		s += "\n  " + b.String()
	}
	if d.BlockedVCs > len(d.Blocked) {
		s += fmt.Sprintf("\n  ... %d further blocked VCs", d.BlockedVCs-len(d.Blocked))
	}
	return s
}

// snapshotDeadlock walks every router's input VCs in deterministic index
// order and records the occupied ones — with no flit moving anywhere, every
// buffered packet is by definition stalled. It reads VC heads directly
// and allocates only the report itself and one witness slice of bounded
// capacity.
func (f *Fabric) snapshotDeadlock(now int64) *DeadlockReport {
	d := &DeadlockReport{
		Cycle:       now,
		StallCycles: now - f.lastProgress,
		InFlight:    f.inFlight,
		Blocked:     make([]BlockedVC, 0, maxBlockedWitnesses),
	}
	for _, r := range f.Routers {
		routerBlocked := false
		for pi, ip := range r.In {
			for vi, vc := range ip.VCs {
				h := vc.head()
				if h == nil {
					continue
				}
				routerBlocked = true
				d.BlockedVCs++
				age := now - h.p.CreatedAt
				if d.Oldest == nil || age > d.OldestAge {
					d.Oldest, d.OldestAge = h.p, age
				}
				if len(d.Blocked) < maxBlockedWitnesses {
					d.Blocked = append(d.Blocked, BlockedVC{
						Node: r.Node, Port: pi, VC: vi,
						Packet: h.p, Age: age, Buffered: vc.Occupied(),
					})
				}
			}
		}
		if routerBlocked {
			d.BlockedRouters++
		}
	}
	return d
}

// BufferedFlits returns the total flits buffered in all routers (excluding
// flits in flight on links); useful for invariant tests.
func (f *Fabric) BufferedFlits() int {
	n := 0
	for _, r := range f.Routers {
		n += r.BufferedFlits()
	}
	return n
}
