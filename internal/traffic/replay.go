package traffic

import (
	"errors"
	"fmt"
	"sort"

	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/workload"
)

// Replayer injects a recorded workload trace with causality: every entry
// is injected at its recorded cycle, except that an entry with a
// dependency waits until the cycle after the dependency's delivery —
// response-after-request survives replay onto candidates with different
// timing. On a dependency-free trace replayed under the recording
// configuration, the injection stream (cycles, order, packet identity)
// reproduces the original run exactly.
//
// All cursor state round-trips through Snapshot/Restore, so checkpoints
// of replayed runs stay bit-identical. Deliveries reach the replayer
// through OnDeliver in the engines' deterministic sink order.
type Replayer struct {
	trace     *workload.Trace
	endpoints []int
	policy    interleave.Policy

	cursor    int
	delivered []uint64        // bitmap over entries
	pending   []replayRelease // released entries awaiting injection
	waiting   map[int64][]int // dep entry id -> blocked entry indices
	nwaiting  int
	inflight  map[uint64]int // packet id -> entry index

	nextID   uint64
	offered  int
	measured bool
	pool     *packet.Pool
}

// replayRelease is one released trace entry awaiting its injection cycle.
// It is also its own checkpoint form (ReplayCursorState.Pending): the
// fields are exported so gob encodes them, under the names existing
// checkpoints carry.
type replayRelease struct {
	Entry int
	At    int64
}

// NewReplayer creates a replayer for the trace over the given traffic
// endpoints (global node ids in dense endpoint order). The trace must
// address exactly this endpoint count — a trace recorded on one
// candidate replays on any candidate with the same endpoint count.
func NewReplayer(tr *workload.Trace, endpoints []int, pol interleave.Policy) (*Replayer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Endpoints != len(endpoints) {
		return nil, fmt.Errorf("traffic: trace addresses %d endpoints, system has %d", tr.Endpoints, len(endpoints))
	}
	return &Replayer{
		trace:     tr,
		endpoints: endpoints,
		policy:    pol,
		delivered: make([]uint64, (len(tr.Entries)+63)/64),
		waiting:   make(map[int64][]int),
		inflight:  make(map[uint64]int),
	}, nil
}

// SetMeasured implements Source.
func (r *Replayer) SetMeasured(on bool) { r.measured = on }

// SetPool implements Source.
func (r *Replayer) SetPool(pool *packet.Pool) { r.pool = pool }

// TotalPackets implements Source.
func (r *Replayer) TotalPackets() uint64 { return r.nextID }

// Offered implements Source.
func (r *Replayer) Offered() int { return r.offered }

// Remaining returns the number of trace entries not yet injected.
func (r *Replayer) Remaining() int {
	return len(r.trace.Entries) - r.cursor + r.nwaiting + len(r.pending)
}

func (r *Replayer) deliveredBit(id int64) bool {
	return r.delivered[id>>6]&(1<<uint(id&63)) != 0
}

// Tick implements Source: release due entries and advance the cursor.
func (r *Replayer) Tick(f *router.Fabric, now int64) {
	// Collect this cycle's injectable set: previously released entries
	// whose cycle has come, plus newly activated cursor entries.
	var due []int
	if len(r.pending) > 0 {
		keep := r.pending[:0]
		for _, rel := range r.pending {
			if rel.At <= now {
				due = append(due, rel.Entry)
			} else {
				keep = append(keep, rel)
			}
		}
		r.pending = keep
	}
	for r.cursor < len(r.trace.Entries) && r.trace.Entries[r.cursor].Cycle <= now {
		e := &r.trace.Entries[r.cursor]
		if e.Dep == packet.NoDep || r.deliveredBit(e.Dep) {
			due = append(due, r.cursor)
		} else {
			r.waiting[e.Dep] = append(r.waiting[e.Dep], r.cursor)
			r.nwaiting++
		}
		r.cursor++
	}
	// Entry-index order is the canonical injection order: it equals the
	// recorded order whenever dependencies do not reorder releases.
	sort.Ints(due)
	for _, idx := range due {
		r.inject(f, idx, now)
	}
}

func (r *Replayer) inject(f *router.Fabric, idx int, now int64) {
	e := &r.trace.Entries[idx]
	var p *packet.Packet
	if r.pool != nil {
		p = r.pool.Get()
	} else {
		p = new(packet.Packet)
	}
	*p = packet.Packet{
		ID:        r.nextID,
		MsgID:     e.Msg,
		SeqInMsg:  e.Seq,
		Src:       r.endpoints[e.Src],
		Dst:       r.endpoints[e.Dst],
		Tag:       r.policy.Tag(e.Msg, e.Seq),
		Len:       e.Flits,
		CreatedAt: now,
		Class:     e.Class,
		Dep:       e.Dep,
		Measured:  r.measured,
	}
	r.inflight[p.ID] = idx
	r.nextID++
	if r.measured {
		r.offered++
	}
	f.Routers[p.Src].Inject(p, now)
}

// OnDeliver implements Source: mark the entry delivered and release any
// entries that were waiting on it, for injection next cycle.
func (r *Replayer) OnDeliver(p *packet.Packet, now int64) {
	idx, ok := r.inflight[p.ID]
	if !ok {
		return
	}
	delete(r.inflight, p.ID)
	r.delivered[idx>>6] |= 1 << uint(idx&63)
	if ws, ok := r.waiting[int64(idx)]; ok {
		delete(r.waiting, int64(idx))
		r.nwaiting -= len(ws)
		for _, w := range ws {
			r.pending = append(r.pending, replayRelease{Entry: w, At: now + 1})
		}
	}
}

// Snapshot implements Source: the cursor, the delivery bitmap, and the
// release/waiting/in-flight bookkeeping, all in deterministic order.
func (r *Replayer) Snapshot() GeneratorState {
	rs := &ReplayCursorState{
		Cursor:    r.cursor,
		Delivered: append([]uint64(nil), r.delivered...),
		Pending:   append([]replayRelease(nil), r.pending...),
	}
	sort.Slice(rs.Pending, func(a, b int) bool {
		if rs.Pending[a].At != rs.Pending[b].At {
			return rs.Pending[a].At < rs.Pending[b].At
		}
		return rs.Pending[a].Entry < rs.Pending[b].Entry
	})
	for _, ws := range r.waiting {
		rs.Waiting = append(rs.Waiting, ws...)
	}
	sort.Ints(rs.Waiting)
	for pkt, entry := range r.inflight {
		rs.InFlight = append(rs.InFlight, ReplayFlightState{Pkt: pkt, Entry: entry})
	}
	sort.Slice(rs.InFlight, func(a, b int) bool { return rs.InFlight[a].Pkt < rs.InFlight[b].Pkt })
	return GeneratorState{
		NextID:         r.nextID,
		OfferedPackets: r.offered,
		Replay:         rs,
	}
}

// Restore implements Source.
func (r *Replayer) Restore(st *GeneratorState) error {
	rs := st.Replay
	if rs == nil {
		return errors.New("snapshot was not taken from a trace replayer")
	}
	n := len(r.trace.Entries)
	if rs.Cursor < 0 || rs.Cursor > n || len(rs.Delivered) != (n+63)/64 {
		return fmt.Errorf("snapshot cursor does not fit this trace (%d entries)", n)
	}
	r.cursor = rs.Cursor
	copy(r.delivered, rs.Delivered)
	for _, p := range rs.Pending {
		if p.Entry < 0 || p.Entry >= n {
			return fmt.Errorf("pending entry %d outside trace", p.Entry)
		}
	}
	r.pending = append(r.pending[:0], rs.Pending...)
	r.waiting = make(map[int64][]int)
	r.nwaiting = 0
	for _, w := range rs.Waiting {
		if w < 0 || w >= n {
			return fmt.Errorf("waiting entry %d outside trace", w)
		}
		dep := r.trace.Entries[w].Dep
		if dep == packet.NoDep {
			return fmt.Errorf("waiting entry %d has no dependency", w)
		}
		r.waiting[dep] = append(r.waiting[dep], w)
		r.nwaiting++
	}
	r.inflight = make(map[uint64]int, len(rs.InFlight))
	for _, fl := range rs.InFlight {
		if fl.Entry < 0 || fl.Entry >= n {
			return fmt.Errorf("in-flight entry %d outside trace", fl.Entry)
		}
		r.inflight[fl.Pkt] = fl.Entry
	}
	r.nextID = st.NextID
	r.offered = st.OfferedPackets
	return nil
}
