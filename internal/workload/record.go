package workload

import (
	"fmt"

	"chipletnet/internal/packet"
	"chipletnet/internal/router"
)

// Recorder cuts a workload trace from a live run. It implements
// router.Tracer but keeps only inject and deliver events (hop movements
// are path-analysis detail, not workload), so memory stays proportional
// to packets. Install it as the fabric Tracer before the run; packet
// pooling is automatically gated off while any Tracer is attached, so
// the recorded packet fields are never recycled under it.
type Recorder struct {
	endpointOf map[int]int // global node id -> dense endpoint index
	endpoints  int
	entries    []Entry
	delivered  []int64 // per entry: delivery cycle, -1 while in flight
	err        error   // first invariant violation, sticky
}

var _ router.Tracer = (*Recorder)(nil)

// NewRecorder returns a recorder for a run whose traffic endpoints are
// the given global node ids (in dense endpoint order, i.e. Topo.Cores).
func NewRecorder(endpoints []int) (*Recorder, error) {
	if len(endpoints) < 2 {
		return nil, fmt.Errorf("workload: recorder needs at least 2 endpoints")
	}
	r := &Recorder{
		endpointOf: make(map[int]int, len(endpoints)),
		endpoints:  len(endpoints),
	}
	for i, n := range endpoints {
		r.endpointOf[n] = i
	}
	return r, nil
}

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// PacketInjected implements router.Tracer: every injection becomes one
// trace entry. Packet ids must be dense injection order (every traffic
// source in this repository numbers them that way), so the entry index,
// the entry id and the packet id coincide.
func (r *Recorder) PacketInjected(p *packet.Packet, node int, now int64) {
	if r.err != nil {
		return
	}
	if p.ID != uint64(len(r.entries)) {
		r.fail(fmt.Errorf("workload: recording packet id %d as entry %d: ids must be dense injection order", p.ID, len(r.entries)))
		return
	}
	src, ok := r.endpointOf[node]
	if !ok {
		r.fail(fmt.Errorf("workload: packet %d injected at node %d, which is not a traffic endpoint", p.ID, node))
		return
	}
	dst, ok := r.endpointOf[p.Dst]
	if !ok {
		r.fail(fmt.Errorf("workload: packet %d addressed to node %d, which is not a traffic endpoint", p.ID, p.Dst))
		return
	}
	dep := p.Dep
	if dep < 0 || dep >= int64(p.ID) {
		// Packets predating dependency annotation (or self-referential
		// noise) record as dependency-free.
		dep = packet.NoDep
	}
	r.entries = append(r.entries, Entry{
		ID:    int64(p.ID),
		Cycle: p.CreatedAt,
		Src:   src,
		Dst:   dst,
		Flits: p.Len,
		Msg:   p.MsgID,
		Seq:   p.SeqInMsg,
		Class: p.Class,
		Dep:   dep,
	})
	r.delivered = append(r.delivered, -1)
}

// FlitsMoved implements router.Tracer; hop movements are not workload.
func (r *Recorder) FlitsMoved(p *packet.Packet, from, to, vc, n int, head bool, now int64) {}

// PacketDelivered implements router.Tracer.
func (r *Recorder) PacketDelivered(p *packet.Packet, now int64) {
	if r.err != nil {
		return
	}
	if p.ID >= uint64(len(r.delivered)) {
		r.fail(fmt.Errorf("workload: delivery of unrecorded packet %d", p.ID))
		return
	}
	r.delivered[p.ID] = now
}

// Trace returns the recorded workload, validated. The returned trace
// aliases the recorder's entries; record one run per Recorder.
func (r *Recorder) Trace() (*Trace, error) {
	if r.err != nil {
		return nil, r.err
	}
	t := &Trace{Version: FormatVersion, Endpoints: r.endpoints, Entries: r.entries}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// DeliveryCycles returns the recorded per-entry delivery cycles (-1 for
// packets still in flight when recording stopped) — the ground truth a
// replay of the same trace on the same configuration must reproduce.
func (r *Recorder) DeliveryCycles() []int64 { return r.delivered }
