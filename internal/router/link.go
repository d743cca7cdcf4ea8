package router

import "chipletnet/internal/packet"

// Link is a unidirectional channel between an output port of one router and
// an input port of another. It models a fixed per-cycle bandwidth (enforced
// by the sender's switch allocator), a fixed latency, and the credit return
// path in the reverse direction (credits take the same latency).
//
// Flits are carried as bundles — (packet, count) pairs — rather than as
// individual flit objects; the receiving input VC reassembles packets by
// identity. This keeps simulation cost proportional to packets while staying
// cycle-accurate for buffer occupancy and bandwidth.
type Link struct {
	ID      int
	Src     *Router
	SrcPort int // output port index on Src
	Dst     *Router
	DstPort int // input port index on Dst

	// Bandwidth is the number of flits the link accepts per cycle.
	Bandwidth int
	// Latency is the flit traversal time in cycles (>= 1). Off-chip
	// (chiplet-to-chiplet) links typically use a larger latency.
	Latency int
	// OffChip marks chiplet-to-chiplet links; they are counted separately
	// by the energy model and may incur a VC-allocation penalty.
	OffChip bool
	// island is the owning island under the islands engine, or -1 when
	// the link is exchanged serially (islands.go, classify).
	island int32

	// Carried counts flits pushed onto the link over the whole run
	// (retransmitted copies included); utilization follows as
	// Carried / (Bandwidth * cycles).
	Carried int64

	// Rel, when non-nil, enables the link-level reliability protocol:
	// CRC-checked sequence-numbered bundles, cumulative ack/nack, and
	// go-back-N retransmission from a replay buffer with capped
	// exponential backoff. Nil models an ideal error-free channel (the
	// default; zero overhead and bit-identical to earlier behavior).
	Rel *LinkRel

	flits   fifo[flitBundle]
	credits fifo[creditBundle]
	acks    fifo[ackMsg]
}

// Utilization returns the fraction of the link's capacity used over the
// given number of cycles.
func (l *Link) Utilization(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(l.Carried) / (float64(l.Bandwidth) * float64(cycles))
}

type flitBundle struct {
	p        *packet.Packet
	n        int // flit count
	vc       int // destination VC index at Dst's input port
	arriveAt int64

	// Reliability-protocol header (meaningful only when Link.Rel != nil):
	// the bundle's sequence number and whether in-transit corruption
	// flipped bits the receiver's CRC will catch.
	seq     uint64
	corrupt bool
}

// creditBundle is one credit return on the wire. It is also its own
// checkpoint form (LinkState.Credits): the fields are exported so gob
// encodes them, under the names existing checkpoints carry.
type creditBundle struct {
	VC       int // VC index at Dst's input port whose buffer freed up
	N        int
	ArriveAt int64
}

// push enqueues n flits of p destined for downstream VC vc. The caller (the
// switch allocator) is responsible for respecting Bandwidth and has charged
// downstream credits for the flits — exactly once, retransmissions never
// re-charge.
func (l *Link) push(p *packet.Packet, n, vc int, now int64) {
	l.Src.Fabric.wakeLink(l, l.Src)
	if l.Rel != nil {
		l.Rel.send(l, p, n, vc, now)
		return
	}
	l.Carried += int64(n)
	l.flits.Push(flitBundle{p: p, n: n, vc: vc, arriveAt: now + int64(l.Latency)})
}

// returnCredit sends n credits for VC vc back to the link source.
func (l *Link) returnCredit(vc, n int, now int64) {
	l.Dst.Fabric.wakeLink(l, l.Dst)
	l.credits.Push(creditBundle{VC: vc, N: n, ArriveAt: now + int64(l.Latency)})
}

// pendingWork reports whether the link could still do anything on a
// future cycle: flits, credits, or acks in flight, or unacknowledged
// replay bundles whose timeout may fire. A link with no pending work is
// removed from the engine's active set; any push or returnCredit re-adds
// it (wakeLink). deliver on such a link is a guaranteed no-op.
func (l *Link) pendingWork() bool {
	return l.flits.Len() > 0 || l.credits.Len() > 0 || l.acks.Len() > 0 ||
		(l.Rel != nil && l.Rel.replay.Len() > 0)
}

// deliver moves all due flit bundles into Dst's input buffers and all due
// credits back to Src's output port. Under the reliability protocol it
// additionally runs CRC/sequence acceptance on arrivals, processes acks at
// the sender, and fires timeout-driven retransmissions. It reports whether
// anything moved (for the deadlock watchdog).
func (l *Link) deliver(now int64) bool {
	moved := false
	for l.flits.Len() > 0 && l.flits.Front().arriveAt <= now {
		b := l.flits.Pop()
		if l.Rel != nil && !l.Rel.receive(l, b, now) {
			continue // dropped: corrupted, duplicate, or out of order
		}
		l.Dst.In[l.DstPort].VCs[b.vc].receive(b.p, b.n, now)
		moved = true
	}
	for l.acks.Len() > 0 && l.acks.Front().ArriveAt <= now {
		a := l.acks.Pop()
		l.Rel.onAck(l, a, now)
	}
	if l.Rel != nil && l.Rel.timedOut(now) {
		l.Rel.retransmit(l, now)
	}
	for l.credits.Len() > 0 && l.credits.Front().ArriveAt <= now {
		c := l.credits.Pop()
		l.Src.Out[l.SrcPort].Credits[c.VC] += c.N
		moved = true
	}
	return moved
}

// InFlight returns the number of flits currently traversing the link.
func (l *Link) InFlight() int {
	n := 0
	for i := 0; i < l.flits.Len(); i++ {
		n += l.flits.At(i).n
	}
	return n
}

// chargedFlits adds to perVC (indexed by downstream VC) the flits the
// sender has charged credits for that the receiver has not yet buffered:
// unacknowledged-and-unaccepted replay bundles under the reliability
// protocol, wire contents otherwise. Replay entries below the receiver's
// accept horizon are excluded — their flits are already counted in the
// downstream buffer while the ack is still in flight.
func (l *Link) chargedFlits(perVC []int) {
	if l.Rel != nil {
		for i := 0; i < l.Rel.replay.Len(); i++ {
			e := l.Rel.replay.At(i)
			if e.seq >= l.Rel.expect {
				perVC[e.vc] += e.n
			}
		}
		return
	}
	for i := 0; i < l.flits.Len(); i++ {
		b := l.flits.At(i)
		perVC[b.vc] += b.n
	}
}

// Quiesced reports whether nothing is pending on the link: no flits on
// the wire, no unacknowledged replay bundles, and no acks or credit
// returns in flight. A quiesced link can be decommissioned without
// losing data.
func (l *Link) Quiesced() bool {
	return l.flits.Len() == 0 && l.credits.Len() == 0 && l.acks.Len() == 0 &&
		(l.Rel == nil || l.Rel.replay.Len() == 0)
}

// ForEachInFlight calls fn for every packet with flits on the wire or,
// under the reliability protocol, unacknowledged in the replay buffer
// (each packet may be reported more than once).
func (l *Link) ForEachInFlight(fn func(*packet.Packet)) {
	if l.Rel != nil {
		for i := 0; i < l.Rel.replay.Len(); i++ {
			fn(l.Rel.replay.At(i).p)
		}
		return
	}
	for i := 0; i < l.flits.Len(); i++ {
		fn(l.flits.At(i).p)
	}
}
