package router

import (
	"fmt"
	"math/bits"

	"chipletnet/internal/packet"
)

// vcState is the head-of-line pipeline state of a virtual channel.
type vcState uint8

const (
	vcIdle    vcState = iota // no packet at head
	vcRouting                // head packet arrived; routing computation in flight
	vcActive                 // VC allocation granted; competing for the switch
)

// pktInst is one packet resident (fully or partially) in an input VC buffer.
type pktInst struct {
	p        *packet.Packet
	received int  // flits that have arrived into this buffer
	sent     int  // flits forwarded out of this buffer
	safe     bool // Definition 4: has a minus-first path from this channel
}

// VC is one virtual channel of an input port: a flit FIFO plus the
// head-of-line pipeline state used by VC allocation and switch allocation.
type VC struct {
	Port  *InPort
	Index int
	// Cap is the buffer capacity in flits (Table II: 32 for internal
	// buffers, 64 for interface buffers; effectively unbounded for the
	// injection queue).
	Cap int

	q     fifo[pktInst]
	flits int // total flits currently buffered

	state     vcState
	readyAt   int64 // cycle at which the current pipeline stage completes
	grantedAt int64 // cycle VA was granted (FCFS key for the crossbar)
	outPort   *OutPort
	outVC     int

	scratch []Candidate // reusable candidate buffer
}

// Occupied returns the buffered flit count.
func (v *VC) Occupied() int { return v.flits }

// Packets returns the number of (possibly partial) packets buffered.
func (v *VC) Packets() int { return v.q.Len() }

// ForEachPacket calls fn for every packet resident (fully or partially)
// in this VC's buffer, in queue order.
func (v *VC) ForEachPacket(fn func(*packet.Packet)) {
	for i := 0; i < v.q.Len(); i++ {
		fn(v.q.At(i).p)
	}
}

// head returns the head packet instance, or nil.
func (v *VC) head() *pktInst {
	if v.q.Len() == 0 {
		return nil
	}
	return v.q.Front()
}

// InPort is a router input port: the receiving end of a link (or the local
// injection queue when Link is nil), holding one or more virtual channels.
type InPort struct {
	Router *Router
	Index  int
	Link   *Link // incoming link; nil for the local injection port
	VCs    []*VC

	// waitSet has bit i set exactly when VCs[i] is in the vcRouting
	// state, so VC allocation visits only waiting VCs. It is derived
	// state, like the fabric's active sets: never checkpointed, rebuilt
	// by Router.rebuildDerived.
	waitSet uint32
}

// maxPortVCs is the VC count an input port may hold: one waitSet bit
// each. Routing candidates name downstream VCs in a 32-bit mask too, and
// topology.LinkParams rejects more VCs at Build.
const maxPortVCs = 32

// allSafe reports whether the VC holds at least one packet and every
// queued packet is safe (Definition 4). Such a VC is a genuine progress
// guarantee: its head is safe and can always follow its minus-first path,
// and after it drains the next head is safe too, inductively until the VC
// frees up.
func (v *VC) allSafe() bool {
	if v.q.Len() == 0 {
		return false
	}
	for i := 0; i < v.q.Len(); i++ {
		if !v.q.At(i).safe {
			return false
		}
	}
	return true
}

// allSafeOrEmpty reports whether every queued packet (possibly none) is
// safe.
func (v *VC) allSafeOrEmpty() bool {
	for i := 0; i < v.q.Len(); i++ {
		if !v.q.At(i).safe {
			return false
		}
	}
	return true
}

// SafePackets counts the VCs of this input port that constitute a
// progress guarantee for the safe/unsafe flow control: non-empty queues
// consisting entirely of safe packets (Definition 4). A safe packet
// queued with unsafe company is no guarantee — an unsafe head blocks it,
// or its own departure leaves the unsafe remainder holding the buffer.
func (ip *InPort) SafePackets() int {
	n := 0
	for _, vc := range ip.VCs {
		if vc.allSafe() {
			n++
		}
	}
	return n
}

// OutPort is a router output port: the sending end of a link (or the local
// ejection sink when Link is nil). It tracks, per downstream VC, the credit
// count and the current owner for virtual cut-through allocation.
type OutPort struct {
	Router *Router
	Index  int
	Link   *Link // outgoing link; nil for the local ejection port

	// Credits[i] is the known free space (flits) of downstream VC i.
	Credits []int
	// Owner[i] is the input VC currently holding downstream VC i
	// (from VA grant until the tail flit is sent), or nil.
	Owner []*VC

	// EjectBandwidth is the flits/cycle the local sink consumes
	// (only meaningful when Link == nil).
	EjectBandwidth int

	// granted lists input VCs currently holding a VA grant on this
	// output (maintained by tryAllocate / transferOut so that switch
	// allocation scans only live contenders).
	granted []*VC
}

// bandwidth returns the per-cycle flit budget of this output.
func (o *OutPort) bandwidth() int {
	if o.Link != nil {
		return o.Link.Bandwidth
	}
	return o.EjectBandwidth
}

// available reports whether downstream VC vc can accept a whole packet of
// length pktLen right now (virtual cut-through admission).
func (o *OutPort) available(vc, pktLen int) bool {
	return o.Owner[vc] == nil && o.Credits[vc] >= pktLen
}

// AvailableVCs counts downstream VCs that could admit a packet of length
// pktLen (the "a" of Algorithm 5).
func (o *OutPort) AvailableVCs(pktLen int) int {
	n := 0
	for i := range o.Credits {
		if o.available(i, pktLen) {
			n++
		}
	}
	return n
}

// Router is an input-queued virtual-channel router with virtual cut-through
// switching, credit-based flow control, and a 4-stage pipeline
// (routing computation, VC allocation, switch allocation, transmission),
// following the typical VC router microarchitecture the paper assumes.
type Router struct {
	// Node is the global node ID this router implements.
	Node   int
	Fabric *Fabric
	In     []*InPort
	Out    []*OutPort

	// idx is the router's position in Fabric.Routers (the active-set
	// bitmap index).
	idx int
	// vaOffset rotates the VC-allocation scan start for fairness.
	vaOffset int
	// waiting counts VCs in the vcRouting state, letting the engine skip
	// routers with no pending VC allocation.
	waiting int
	// grants counts VCs in the vcActive state (holding a VA grant on one
	// of this router's output ports). A router with waiting == 0 and
	// grants == 0 has every VC idle and can safely be skipped by the
	// cycle engine: vcAllocate and switchAllocate are both no-ops then.
	grants int
	// island is the owning island under the islands engine.
	island int32
}

// rebuildDerived recomputes the router's counters and its ports'
// wait-sets from the VC states and grant lists (after Restore, or when an
// engine is switched).
func (r *Router) rebuildDerived() {
	r.waiting, r.grants = 0, 0
	for _, ip := range r.In {
		ip.waitSet = 0
		for _, v := range ip.VCs {
			if v.state == vcRouting {
				r.waiting++
				ip.waitSet |= 1 << uint(v.Index)
			}
		}
	}
	for _, o := range r.Out {
		r.grants += len(o.granted)
	}
}

// busy reports whether the router has any non-idle VC, i.e. whether the
// engine must visit it this cycle.
func (r *Router) busy() bool { return r.waiting > 0 || r.grants > 0 }

// AddInPort appends an input port with the given VC count and per-VC
// capacity and returns it.
func (r *Router) AddInPort(vcs, capFlits int) *InPort {
	if vcs > maxPortVCs {
		panic(fmt.Sprintf("router %d: %d VCs on one input port, at most %d", r.Node, vcs, maxPortVCs))
	}
	f := r.Fabric
	ip := f.inSlab.put(InPort{Router: r, Index: len(r.In), VCs: f.vcPtrs.carve(vcs)})
	for i := range ip.VCs {
		ip.VCs[i] = f.vcSlab.put(VC{Port: ip, Index: i, Cap: capFlits})
	}
	r.In = append(r.In, ip)
	return ip
}

// AddOutPort appends an output port and returns it. Credit counters are
// sized when the link is attached (or set up for ejection).
func (r *Router) AddOutPort() *OutPort {
	op := r.Fabric.outSlab.put(OutPort{Router: r, Index: len(r.Out)})
	r.Out = append(r.Out, op)
	return op
}

// receive accepts n flits of packet p into VC v at cycle now. Called by
// Link.deliver and by the injection path.
func (v *VC) receive(p *packet.Packet, n int, now int64) {
	v.flits += n
	if v.flits > v.Cap {
		panic(fmt.Sprintf("router %d: input buffer overflow at port %d vc %d (%d > %d)",
			v.Port.Router.Node, v.Port.Index, v.Index, v.flits, v.Cap))
	}
	// Continuation of the packet currently streaming into this VC?
	if v.q.Len() > 0 {
		last := v.q.At(v.q.Len() - 1)
		if last.p == p && last.received < p.Len {
			last.received += n
			return
		}
	}
	// New packet: mark safety on arrival (Definition 4) and enqueue.
	inst := pktInst{p: p, received: n}
	if r := v.Port.Router; r.Fabric.Routing != nil {
		inst.safe = r.Fabric.Routing.SafeAt(r, v.Port.Index, p)
	}
	v.q.Push(inst)
	if v.q.Len() == 1 {
		v.startHead(now)
	}
}

// Inject places a freshly created packet into the local injection queue
// (input port 0, VC 0). The whole packet is considered present in the
// source queue immediately; injection bandwidth is modeled by the switch
// allocation of the injection port.
func (r *Router) Inject(p *packet.Packet, now int64) {
	r.In[0].VCs[0].receive(p, p.Len, now)
	r.Fabric.inFlight++
	if t := r.Fabric.Tracer; t != nil {
		t.PacketInjected(p, r.Node, now)
	}
}

// startHead begins the pipeline for the packet now at the head of VC v:
// the routing-computation stage takes one cycle, VC allocation becomes
// eligible the cycle after that.
func (v *VC) startHead(now int64) {
	v.state = vcRouting
	v.readyAt = now + 2 // RC at now+1, VA eligible from now+2
	v.outPort = nil
	r := v.Port.Router
	r.waiting++
	v.Port.waitSet |= 1 << uint(v.Index)
	r.Fabric.wakeRouter(r)
}

// vcAllocate runs the VC-allocation stage for every waiting head packet of
// this router. Candidates come from the routing algorithm; admission is
// virtual cut-through (whole-packet credit) plus, when enabled, the
// safe/unsafe flow-control policy of Algorithm 5.
//
// The scan visits the input ports rotated to start at vaOffset and,
// within each port, the waiting VCs (its waitSet bits) in ascending
// order. A grant clears only the granted VC's own bit, so iterating a
// copy of the mask is exact.
func (r *Router) vcAllocate(now int64) {
	if r.waiting == 0 {
		return
	}
	nIn := len(r.In)
	start := r.vaOffset % nIn
	r.vaOffset++
	// left counts the waiting VCs not yet visited; the scan stops at the
	// last one instead of touching the remaining ports.
	left := r.waiting
	for k := 0; k < nIn && left > 0; k++ {
		ip := r.In[(start+k)%nIn]
		left -= bits.OnesCount32(ip.waitSet)
		for w := ip.waitSet; w != 0; w &= w - 1 {
			v := ip.VCs[bits.TrailingZeros32(w)]
			if now < v.readyAt {
				continue
			}
			if h := v.head(); h != nil {
				r.tryAllocate(v, h, now)
			}
		}
	}
}

// tryAllocate attempts VC allocation for head packet h of input VC v.
func (r *Router) tryAllocate(v *VC, h *pktInst, now int64) {
	f := r.Fabric
	cands := f.Routing.Candidates(r, v.Port.Index, h.p, v.scratch[:0])
	v.scratch = cands // keep grown buffer
	if len(cands) == 0 {
		panic(fmt.Sprintf("router %d: no route for packet %d (src %d dst %d) at port %d",
			r.Node, h.p.ID, h.p.Src, h.p.Dst, v.Port.Index))
	}
	for _, c := range cands {
		o := r.Out[c.Port]
		// Cross-chiplet VC allocation consumes extra cycles (§VI-A).
		if o.Link != nil && o.Link.OffChip && now < v.readyAt+int64(f.OffChipVAExtra) {
			continue
		}
		for vcIdx := 0; vcIdx < len(o.Credits); vcIdx++ {
			if c.VCMask&(1<<uint(vcIdx)) == 0 {
				continue
			}
			if !o.available(vcIdx, h.p.Len) {
				continue
			}
			if f.SafeUnsafe && o.Link != nil && !r.safeUnsafeAllows(o, vcIdx, h.p) {
				continue
			}
			// Grant.
			o.Owner[vcIdx] = v
			o.granted = append(o.granted, v)
			v.Port.waitSet &^= 1 << uint(v.Index)
			v.outPort = o
			v.outVC = vcIdx
			v.state = vcActive
			v.grantedAt = now
			v.readyAt = now + 1 // switch allocation from the next cycle
			r.waiting--
			r.grants++
			return
		}
	}
}

// safeUnsafeAllows implements Algorithm 5 (VC_Allocation(a, s)) for
// admitting packet p into downstream VC vcIdx of output o, generalized to
// buffers that hold more than one packet: after the placement, the
// downstream input port must retain either a whole-packet-available VC or
// a VC whose entire queue is safe (the inductive progress guarantee).
// The paper's three cases follow: a >= 2 always leaves a free VC;
// a == 1 requires another all-safe VC (s >= 1) or that the target VC
// stays all-safe with p appended (p safe at the next router).
func (r *Router) safeUnsafeAllows(o *OutPort, vcIdx int, p *packet.Packet) bool {
	if o.AvailableVCs(p.Len) >= 2 {
		return true
	}
	dst := o.Link.Dst
	ip := dst.In[o.Link.DstPort]
	for i, vc := range ip.VCs {
		if i != vcIdx && vc.allSafe() {
			return true
		}
	}
	// The target VC must remain an all-safe queue after p joins it.
	if !ip.VCs[vcIdx].allSafeOrEmpty() {
		return false
	}
	return r.Fabric.Routing.SafeAt(dst, o.Link.DstPort, p)
}

// switchAllocate runs switch allocation and transmission for every output
// port: among the input VCs granted to this output, the one with the oldest
// grant wins (first-come-first-serve, matching the paper's preemptively
// scheduled crossbar), and moves up to the port bandwidth in flits.
// It reports whether any flit moved.
func (r *Router) switchAllocate(now int64) bool {
	moved := false
	// left counts the grants on outputs not yet visited (a transfer only
	// ever releases grants), so the scan skips outputs without grants and
	// stops after the last output holding one.
	left := r.grants
	for i := 0; i < len(r.Out) && left > 0; i++ {
		o := r.Out[i]
		if len(o.granted) == 0 {
			continue
		}
		left -= len(o.granted)
		if r.transferOut(o, now) {
			moved = true
		}
	}
	return moved
}

// transferOut performs SA+ST for one output port.
func (r *Router) transferOut(o *OutPort, now int64) bool {
	// Find the FCFS winner among input VCs holding a grant on this output.
	var win *VC
	for _, v := range o.granted {
		if now < v.readyAt {
			continue
		}
		h := v.head()
		if h == nil || h.received == h.sent {
			continue // nothing buffered to send this cycle
		}
		if o.Link != nil && o.Credits[v.outVC] <= 0 {
			continue // downstream buffer full
		}
		if win == nil || v.grantedAt < win.grantedAt ||
			(v.grantedAt == win.grantedAt &&
				(v.Port.Index < win.Port.Index ||
					(v.Port.Index == win.Port.Index && v.Index < win.Index))) {
			win = v
		}
	}
	if win == nil {
		return false
	}
	h := win.head()
	n := h.received - h.sent
	if bw := o.bandwidth(); n > bw {
		n = bw
	}
	if o.Link != nil && n > o.Credits[win.outVC] {
		n = o.Credits[win.outVC]
	}
	if n <= 0 {
		return false
	}

	first := h.sent == 0
	h.sent += n
	win.flits -= n

	if first {
		if h.p.InjectedAt == 0 && win.Port.Link == nil && win.Port.Index == 0 {
			h.p.InjectedAt = now
		}
		if o.Link != nil {
			h.p.RouterHops++
			if o.Link.OffChip {
				h.p.OffChipHops++
			} else {
				h.p.OnChipHops++
			}
		}
	}

	if t := r.Fabric.Tracer; t != nil {
		to := -1
		if o.Link != nil {
			to = o.Link.Dst.Node
		}
		t.FlitsMoved(h.p, r.Node, to, win.outVC, n, first, now)
	}

	if o.Link != nil {
		o.Credits[win.outVC] -= n
		o.Link.push(h.p, n, win.outVC, now)
	} else if h.sent == h.p.Len {
		// Ejection: the tail flit has been consumed at the destination.
		h.p.DeliveredAt = now
		if t := r.Fabric.Tracer; t != nil {
			t.PacketDelivered(h.p, now)
		}
		r.Fabric.deliverFrom(r, h.p, now)
	}

	// Return credits to our upstream for the space we just freed.
	if win.Port.Link != nil {
		win.Port.Link.returnCredit(win.Index, n, now)
	}

	if h.sent == h.p.Len {
		// Tail sent: release the downstream VC and advance the queue.
		o.Owner[win.outVC] = nil
		for i, v := range o.granted {
			if v == win {
				o.granted[i] = o.granted[len(o.granted)-1]
				o.granted = o.granted[:len(o.granted)-1]
				break
			}
		}
		r.grants--
		win.q.Pop()
		win.outPort = nil
		if win.q.Len() > 0 {
			win.startHead(now)
		} else {
			win.state = vcIdle
		}
	}
	return true
}

// BufferedFlits returns the total flit occupancy of all input buffers.
func (r *Router) BufferedFlits() int {
	n := 0
	for _, ip := range r.In {
		for _, v := range ip.VCs {
			n += v.flits
		}
	}
	return n
}
