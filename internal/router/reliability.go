package router

import "chipletnet/internal/packet"

// LinkRel is the link-level reliability protocol state of one Link,
// modeling the lane protection a chiplet-to-chiplet (D2D) PHY provides:
// every flit bundle carries a CRC and a sequence number; the receiver
// accepts bundles strictly in order, acknowledging cumulatively, and
// nacks on CRC failure or sequence gap; the sender keeps unacknowledged
// bundles in a replay buffer and retransmits them go-back-N on nack or
// ack timeout, pacing repeated retransmissions with capped exponential
// backoff. Because both endpoints of a simulated link live in one
// process, one LinkRel holds sender and receiver state together.
//
// Credit reconciliation is structural: downstream credits are charged
// exactly once per flit, at the original push; retransmitted copies do
// not re-charge, and the receiver buffers each sequence number exactly
// once. A corrupted (dropped) bundle therefore never leaks a credit —
// its flits stay charged in the replay buffer until an accepted copy
// reaches the receiver's input VC. Fabric.AuditCredits checks the
// resulting conservation law every cycle when enabled.
//
// A nil *LinkRel on a Link models an ideal error-free channel and adds
// zero overhead — the default, preserving bit-identical results for
// runs without fault injection.
type LinkRel struct {
	// Corrupt draws the number of flits corrupted in transit for an
	// n-flit bundle transmission. It is consulted once per transmission,
	// retransmissions included, so a retransmitted bundle can be
	// corrupted again. Nil models an error-free channel (the protocol
	// machinery still runs, with identical timing).
	Corrupt func(now int64, n int) int
	// Timeout is the sender-side ack wait in cycles before the replay
	// window is retransmitted unprompted. It covers the tail-loss case:
	// a corrupted final bundle with nothing behind it to expose the
	// sequence gap at the receiver.
	Timeout int64
	// BackoffMax caps the exponential retransmission backoff in cycles.
	// It must stay well below the fabric's DeadlockThreshold so that a
	// backed-off link never looks like a deadlock to the watchdog.
	BackoffMax int64

	// CorruptedFlits and CorruptedBundles count in-transit corruption;
	// Retransmissions counts bundles retransmitted (every go-back-N copy),
	// Nacks the receiver's retransmission requests.
	CorruptedFlits   int64
	CorruptedBundles int64
	Retransmissions  int64
	Nacks            int64

	nextSeq uint64            // sender: next sequence number to assign
	expect  uint64            // receiver: next sequence number accepted
	replay  fifo[replayEntry] // sender: sent but unacknowledged bundles
	backoff int64             // current retransmission backoff (cycles)
	retryAt int64             // earliest cycle the window may resend again
}

// replayEntry is one bundle held in the sender's retransmission buffer
// from first transmission until its cumulative ack arrives.
type replayEntry struct {
	p      *packet.Packet
	n, vc  int
	seq    uint64
	sentAt int64 // cycle of the most recent (re)transmission
}

// ackMsg is one acknowledgment traveling the reverse direction of the
// link (same latency as the forward path). Seq is cumulative: for an
// ack, the highest accepted sequence number; for a nack, the sequence
// number the receiver expects next (everything below it is implicitly
// acknowledged). It is also its own checkpoint form (LinkState.Acks),
// with fields exported for gob under the names existing checkpoints
// carry.
type ackMsg struct {
	Seq      uint64
	Nack     bool
	ArriveAt int64
}

// send enqueues a fresh bundle in the replay buffer and transmits it.
// Credits were charged by the caller (the switch allocator), once.
func (r *LinkRel) send(l *Link, p *packet.Packet, n, vc int, now int64) {
	r.replay.Push(replayEntry{p: p, n: n, vc: vc, seq: r.nextSeq})
	r.nextSeq++
	r.transmit(l, r.replay.At(r.replay.Len()-1), now)
}

// transmit places one (re)transmission of a replay entry on the wire,
// drawing fresh in-transit corruption.
func (r *LinkRel) transmit(l *Link, e *replayEntry, now int64) {
	l.Carried += int64(e.n)
	corrupt := 0
	if r.Corrupt != nil {
		corrupt = r.Corrupt(now, e.n)
	}
	if corrupt > 0 {
		r.CorruptedFlits += int64(corrupt)
		r.CorruptedBundles++
	}
	e.sentAt = now
	l.flits.Push(flitBundle{
		p: e.p, n: e.n, vc: e.vc,
		seq: e.seq, corrupt: corrupt > 0,
		arriveAt: now + int64(l.Latency),
	})
}

// receive runs the receiver half of the protocol for one arrived bundle
// and reports whether the bundle should be delivered into the input VC.
func (r *LinkRel) receive(l *Link, b flitBundle, now int64) bool {
	lat := int64(l.Latency)
	switch {
	case b.corrupt:
		// CRC failure: drop and request retransmission from the next
		// expected bundle.
		r.Nacks++
		l.acks.Push(ackMsg{Seq: r.expect, Nack: true, ArriveAt: now + lat})
		return false
	case b.seq == r.expect:
		r.expect++
		l.acks.Push(ackMsg{Seq: b.seq, ArriveAt: now + lat})
		return true
	case b.seq < r.expect:
		// Stale duplicate of an already-accepted bundle (a retransmission
		// that crossed paths with its ack): re-ack so the sender releases
		// its replay buffer, deliver nothing. This is what makes delivery
		// exactly-once.
		l.acks.Push(ackMsg{Seq: r.expect - 1, ArriveAt: now + lat})
		return false
	default:
		// Sequence gap: an earlier bundle was dropped in transit.
		// Go-back-N discards everything after the gap.
		r.Nacks++
		l.acks.Push(ackMsg{Seq: r.expect, Nack: true, ArriveAt: now + lat})
		return false
	}
}

// onAck runs the sender half for one arrived ack or nack.
func (r *LinkRel) onAck(l *Link, a ackMsg, now int64) {
	if a.Nack {
		// Everything below the requested sequence number is implicitly
		// acknowledged; the rest is resent.
		for r.replay.Len() > 0 && r.replay.Front().seq < a.Seq {
			r.replay.Pop()
		}
		r.retransmit(l, now)
		return
	}
	progressed := false
	for r.replay.Len() > 0 && r.replay.Front().seq <= a.Seq {
		r.replay.Pop()
		progressed = true
	}
	if progressed {
		r.backoff = 0 // the channel is passing traffic again
	}
}

// timedOut reports whether the oldest unacknowledged bundle has waited
// past the ack timeout.
func (r *LinkRel) timedOut(now int64) bool {
	return r.replay.Len() > 0 && r.Timeout > 0 &&
		now-r.replay.Front().sentAt >= r.Timeout
}

// retransmit resends the whole unacknowledged window (go-back-N), paced
// by capped exponential backoff so duplicate nacks and persistent
// corruption do not flood the link with copies.
func (r *LinkRel) retransmit(l *Link, now int64) {
	if r.replay.Len() == 0 || now < r.retryAt {
		return
	}
	for i := 0; i < r.replay.Len(); i++ {
		r.transmit(l, r.replay.At(i), now)
		r.Retransmissions++
	}
	if r.backoff == 0 {
		r.backoff = 2*int64(l.Latency) + 2 // one round trip plus slack
	} else {
		r.backoff *= 2
	}
	if r.BackoffMax > 0 && r.backoff > r.BackoffMax {
		r.backoff = r.BackoffMax
	}
	r.retryAt = now + r.backoff
}
