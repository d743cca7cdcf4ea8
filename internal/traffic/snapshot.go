package traffic

import (
	"errors"
	"fmt"
)

// GeneratorState is the checkpoint form of a Source's cursor state. The
// Bernoulli generator uses the flat fields; the trace replayer and the
// AI-scale-out generator layer their cursor state in the optional
// sections (nil for the other kinds).
type GeneratorState struct {
	// Rands holds the per-endpoint injection stream states in endpoint
	// order.
	Rands          []uint64
	NextID         uint64
	NextMsg        uint64
	OfferedPackets int

	// Replay is the trace replayer's cursor state; nil for other sources.
	Replay *ReplayCursorState
	// AIScaleOut is the AI-scale-out generator's phase state; nil for
	// other sources.
	AIScaleOut *AIScaleOutState
}

// ReplayCursorState is the causal trace replayer's cursor: which entries
// have been activated, which are released-but-not-yet-injected, which are
// blocked on an undelivered dependency, and which injected packets map to
// which entries. All slices are in deterministic (sorted) order so the
// snapshot bytes are schedule-independent.
type ReplayCursorState struct {
	// Cursor indexes the first trace entry not yet activated.
	Cursor int
	// Delivered is a bitmap over trace entries (bit set = delivered).
	Delivered []uint64
	// Pending lists released entries awaiting their injection cycle,
	// sorted by (At, Entry).
	Pending []replayRelease
	// Waiting lists activated entries blocked on an undelivered
	// dependency, sorted by entry index.
	Waiting []int
	// InFlight maps injected packet ids to entry indices, sorted by Pkt.
	InFlight []ReplayFlightState
}

// ReplayFlightState is one injected, undelivered replayed packet.
type ReplayFlightState struct {
	Pkt   uint64
	Entry int
}

// AIScaleOutState is the AI-scale-out generator's phase-machine state:
// the position in the collective phase sequence plus the request/response
// bookkeeping of the latency class. Map-backed fields are flattened in
// sorted order.
type AIScaleOutState struct {
	// Phase counts collective phases started so far.
	Phase int
	// PhaseActive reports a collective phase currently in flight.
	PhaseActive bool
	// ComputeUntil is the cycle the post-phase compute gap ends.
	ComputeUntil int64
	// PendingDeps / Remaining / LastPkt are per-send phase state
	// (unmet dependency count, undelivered packet count, id of the
	// send's last injected packet or -1).
	PendingDeps []int
	Remaining   []int
	LastPkt     []int64
	// ReadySends lists sends released but not yet launched, in order.
	ReadySends []int
	// DeliveredSends counts fully delivered sends of the current phase.
	DeliveredSends int
	// PktSend maps collective packet ids to send ids, sorted by Pkt.
	PktSend []AIPktSendState
	// Responses lists scheduled request responses, sorted by (At, Dep).
	Responses []aiResponse
	// Requests maps in-flight request packet ids to their endpoints,
	// sorted by Pkt.
	Requests []AIRequestState
}

// AIPktSendState maps one in-flight collective packet to its send.
type AIPktSendState struct {
	Pkt  uint64
	Send int
}

// AIRequestState is one in-flight request packet.
type AIRequestState struct {
	Pkt      uint64
	Src, Dst int // endpoint indices of the original request
	Flits    int
}

// Snapshot captures the generator's cursor state: the per-endpoint
// injection stream positions and the packet/message id counters. The
// pattern, rate, and interleave policy are not captured — they are
// reconstructed from the configuration and hold no mutable state.
func (g *Generator) Snapshot() GeneratorState {
	st := GeneratorState{
		Rands:          make([]uint64, len(g.rands)),
		NextID:         g.nextID,
		NextMsg:        g.nextMsg,
		OfferedPackets: g.OfferedPackets,
	}
	for i, r := range g.rands {
		st.Rands[i] = r.State()
	}
	return st
}

// Restore lays snapshot state back onto a generator freshly constructed
// from the same configuration.
func (g *Generator) Restore(st *GeneratorState) error {
	if st.Replay != nil || st.AIScaleOut != nil {
		return errors.New("snapshot was taken from a different traffic source kind")
	}
	if len(st.Rands) != len(g.rands) {
		return fmt.Errorf("snapshot has %d injection streams, generator has %d",
			len(st.Rands), len(g.rands))
	}
	for i, s := range st.Rands {
		g.rands[i].SetState(s)
	}
	g.nextID = st.NextID
	g.nextMsg = st.NextMsg
	g.OfferedPackets = st.OfferedPackets
	return nil
}
