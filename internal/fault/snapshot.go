package fault

import (
	"fmt"
	"sort"
)

// FaultState is the checkpoint form of an Engine's schedule position and
// accounting.
type FaultState struct {
	// NextEvent indexes the first not-yet-applied schedule event.
	NextEvent int
	// Pending lists condemned channels still draining, by endpoints.
	Pending []CrossRef
	// Seen lists delivered packet ids in ascending order.
	Seen []uint64
	// Dropped counts corruption records not logged (past LogCap).
	Dropped int
	Log     []Record
	// Stats round-trips whole: Finish recomputes the layer-1 sums from the
	// restored per-link counters, but the remaining fields are
	// engine-owned.
	Stats Stats
	// Streams holds the per-link corruption stream states in the order
	// the engine attached them (ascending link id).
	Streams []LinkStreamState
}

// CrossRef identifies a chiplet-to-chiplet channel by endpoint node ids.
type CrossRef struct {
	A, B int
}

// LinkStreamState is one per-link corruption stream state.
type LinkStreamState struct {
	LinkID int
	State  uint64
}

// Snapshot captures the engine's schedule position, drain queue, delivery
// accounting, event log, and per-link corruption stream positions. The
// schedule itself and the LinkRel attachments are not captured — New
// rebuilds them deterministically from the same Config.
func (e *Engine) Snapshot() *FaultState {
	st := &FaultState{
		NextEvent: e.next,
		Dropped:   e.dropped,
		Log:       append([]Record(nil), e.Log...),
		Stats:     e.Stats,
	}
	for _, pd := range e.pending {
		st.Pending = append(st.Pending, CrossRef{A: pd.a, B: pd.b})
	}
	for id := range e.seen {
		st.Seen = append(st.Seen, id)
	}
	sort.Slice(st.Seen, func(i, j int) bool { return st.Seen[i] < st.Seen[j] })
	for _, ls := range e.streams {
		st.Streams = append(st.Streams, LinkStreamState{LinkID: ls.linkID, State: ls.r.State()})
	}
	return st
}

// Restore lays snapshot state back onto an engine freshly created by New
// from the same Config against the same rebuilt system. Call after Attach
// (which allocates the delivery-tracking set this fills).
func (e *Engine) Restore(st *FaultState) error {
	if st.NextEvent < 0 || st.NextEvent > len(e.events) {
		return fmt.Errorf("schedule position %d of %d events",
			st.NextEvent, len(e.events))
	}
	if len(st.Streams) != len(e.streams) {
		return fmt.Errorf("snapshot has %d corruption streams, engine has %d",
			len(st.Streams), len(e.streams))
	}
	for i, ss := range st.Streams {
		if e.streams[i].linkID != ss.LinkID {
			return fmt.Errorf("corruption stream %d covers link %d in snapshot, link %d in engine",
				i, ss.LinkID, e.streams[i].linkID)
		}
		e.streams[i].r.SetState(ss.State)
	}
	e.next = st.NextEvent
	e.pending = nil
	for _, cr := range st.Pending {
		la, lb := e.crossLinks(cr.A, cr.B)
		if la == nil && lb == nil {
			return fmt.Errorf("pending drain references missing channel %d-%d",
				cr.A, cr.B)
		}
		e.pending = append(e.pending, pendingDrain{a: cr.A, b: cr.B, la: la, lb: lb})
	}
	if e.seen == nil {
		e.seen = make(map[uint64]struct{}, len(st.Seen))
	}
	for _, id := range st.Seen {
		e.seen[id] = struct{}{}
	}
	e.dropped = st.Dropped
	e.Log = append([]Record(nil), st.Log...)
	e.Stats = st.Stats
	return nil
}
