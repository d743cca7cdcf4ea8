package traffic

import (
	"errors"
	"fmt"
	"sort"

	"chipletnet/internal/collective"
	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/rng"
	"chipletnet/internal/router"
	"chipletnet/internal/workload"
)

// AIScaleOut models an AI scale-out node's traffic: repeated collective
// phases (the gradient exchange), each followed by a compute gap, over a
// background of bulk memory traffic and latency-class request/response
// pairs — three QoS classes, each under its own injection budget:
//
//   - ClassCollective: the collective schedule itself, dependency-driven
//     exactly like internal/collective's driver (a send launches the
//     cycle after its last dependency is fully delivered).
//   - ClassBulk: per-endpoint Bernoulli memory traffic at MemRate
//     flits/node/cycle, uniformly addressed.
//   - ClassLatency: per-endpoint Bernoulli requests at ReqRate
//     flits/node/cycle; every delivered request triggers a dependent
//     response (injected the next cycle, annotated with the request's
//     packet id), so recorded traces carry real causal structure.
//
// Like every Source, it is fully deterministic for a given seed and its
// cursor state round-trips through Snapshot/Restore.
type AIScaleOut struct {
	endpoints []int
	pktFlits  int
	policy    interleave.Policy
	spec      workload.AIScaleOutSpec

	sends   []collective.Send
	waiters [][]int // per send: sends waiting on it
	roots   []int   // sends with no dependencies

	rands      []*rng.Rand
	pMem, pReq float64

	phase          int
	phaseActive    bool
	computeUntil   int64
	pendingDeps    []int
	remaining      []int
	lastPkt        []int64
	ready          []int
	deliveredSends int
	pktSend        map[uint64]int
	responses      []aiResponse
	requests       map[uint64]aiRequest

	nextID   uint64
	nextMsg  uint64
	offered  int
	measured bool
	pool     *packet.Pool
}

// aiResponse is one response awaiting injection (endpoint indices; Src
// is the responder, Dep the id of the request packet). It is also its
// own checkpoint form (AIScaleOutState.Responses): the fields are
// exported so gob encodes them, under the names existing checkpoints
// carry.
type aiResponse struct {
	At       int64
	Src, Dst int
	Flits    int
	Dep      int64
}

// aiRequest is one in-flight request (endpoint indices of the original
// request).
type aiRequest struct {
	src, dst int
	flits    int
}

// NewAIScaleOut creates the generator over the given traffic endpoints.
// The collective schedule is alg's over len(endpoints) participants;
// collective messages are segmented into packets of pktFlits.
func NewAIScaleOut(alg collective.Algorithm, spec workload.AIScaleOutSpec, endpoints []int, pktFlits int, pol interleave.Policy, seed uint64) (*AIScaleOut, error) {
	n := len(endpoints)
	if n < 2 {
		return nil, fmt.Errorf("traffic: aiscaleout needs at least 2 endpoints")
	}
	if pktFlits < 1 {
		return nil, fmt.Errorf("traffic: packet length must be positive")
	}
	if spec.ReqFlits < 1 {
		return nil, fmt.Errorf("traffic: aiscaleout request length must be positive")
	}
	sends, err := alg.Schedule(n)
	if err != nil {
		return nil, err
	}
	if err := collective.Validate(sends, n); err != nil {
		return nil, fmt.Errorf("traffic: collective schedule: %w", err)
	}
	a := &AIScaleOut{
		endpoints:   endpoints,
		pktFlits:    pktFlits,
		policy:      pol,
		spec:        spec,
		sends:       sends,
		waiters:     make([][]int, len(sends)),
		rands:       make([]*rng.Rand, n),
		pMem:        spec.MemRate / float64(pktFlits),
		pReq:        spec.ReqRate / float64(spec.ReqFlits),
		pendingDeps: make([]int, len(sends)),
		remaining:   make([]int, len(sends)),
		lastPkt:     make([]int64, len(sends)),
		pktSend:     make(map[uint64]int),
		requests:    make(map[uint64]aiRequest),
	}
	for i, s := range sends {
		for _, d := range s.Deps {
			a.waiters[d] = append(a.waiters[d], i)
		}
		if len(s.Deps) == 0 {
			a.roots = append(a.roots, i)
		}
	}
	root := rng.New(seed)
	for i := range a.rands {
		a.rands[i] = root.Split(uint64(i) + 1)
	}
	return a, nil
}

// SetMeasured implements Source.
func (a *AIScaleOut) SetMeasured(on bool) { a.measured = on }

// SetPool implements Source.
func (a *AIScaleOut) SetPool(pool *packet.Pool) { a.pool = pool }

// TotalPackets implements Source.
func (a *AIScaleOut) TotalPackets() uint64 { return a.nextID }

// Offered implements Source.
func (a *AIScaleOut) Offered() int { return a.offered }

// Phases returns the number of collective phases completed so far.
func (a *AIScaleOut) Phases() int {
	if a.phaseActive {
		return a.phase - 1
	}
	return a.phase
}

func (a *AIScaleOut) newPacket() *packet.Packet {
	if a.pool != nil {
		return a.pool.Get()
	}
	return new(packet.Packet)
}

// Tick implements Source: phase control, collective launches, due
// responses, then the per-endpoint background processes — all in a fixed
// deterministic order.
func (a *AIScaleOut) Tick(f *router.Fabric, now int64) {
	if !a.phaseActive && now > a.computeUntil && (a.spec.Phases == 0 || a.phase < a.spec.Phases) {
		a.startPhase()
	}
	if len(a.ready) > 0 {
		batch := a.ready
		a.ready = nil
		for _, id := range batch {
			a.launchSend(f, id, now)
		}
	}
	if len(a.responses) > 0 {
		var due []aiResponse
		keep := a.responses[:0]
		for _, r := range a.responses {
			if r.At <= now {
				due = append(due, r)
			} else {
				keep = append(keep, r)
			}
		}
		a.responses = keep
		// Canonical same-cycle order, (At, Dep): the order Snapshot
		// serializes, so a restored run injects identically to a live one.
		sort.Slice(due, func(i, j int) bool {
			if due[i].At != due[j].At {
				return due[i].At < due[j].At
			}
			return due[i].Dep < due[j].Dep
		})
		for _, r := range due {
			a.injectResponse(f, r, now)
		}
	}
	for i, node := range a.endpoints {
		r := a.rands[i]
		if a.pMem > 0 && r.Bernoulli(a.pMem) {
			dst := a.uniformDest(i, r)
			a.injectOne(f, node, a.endpoints[dst], a.pktFlits, packet.ClassBulk, packet.NoDep, now, nil)
		}
		if a.pReq > 0 && r.Bernoulli(a.pReq) {
			dst := a.uniformDest(i, r)
			req := aiRequest{src: i, dst: dst, flits: a.spec.ReqFlits}
			a.injectOne(f, node, a.endpoints[dst], a.spec.ReqFlits, packet.ClassLatency, packet.NoDep, now, &req)
		}
	}
}

// uniformDest picks a uniform destination endpoint other than self.
func (a *AIScaleOut) uniformDest(self int, r *rng.Rand) int {
	d := r.Intn(len(a.endpoints) - 1)
	if d >= self {
		d++
	}
	return d
}

// startPhase resets the per-send state and releases the schedule roots.
func (a *AIScaleOut) startPhase() {
	a.phase++
	a.phaseActive = true
	a.deliveredSends = 0
	for i, s := range a.sends {
		a.pendingDeps[i] = len(s.Deps)
		a.remaining[i] = 0
		a.lastPkt[i] = packet.NoDep
	}
	a.ready = append(a.ready[:0:0], a.roots...)
}

// launchSend injects every packet of one collective send. The trace
// dependency annotation is the last packet of the send's latest-injected
// dependency — an approximation of the all-deps-delivered barrier that
// the entry's recorded cycle lower-bounds.
func (a *AIScaleOut) launchSend(f *router.Fabric, id int, now int64) {
	s := &a.sends[id]
	dep := packet.NoDep
	for _, d := range s.Deps {
		if a.lastPkt[d] > dep {
			dep = a.lastPkt[d]
		}
	}
	packets := (s.Flits + a.pktFlits - 1) / a.pktFlits
	a.remaining[id] = packets
	msg := a.nextMsg
	a.nextMsg++
	left := s.Flits
	src := a.endpoints[s.Src]
	dst := a.endpoints[s.Dst]
	for seq := 0; seq < packets; seq++ {
		l := a.pktFlits
		if l > left {
			l = left
		}
		left -= l
		p := a.newPacket()
		*p = packet.Packet{
			ID:        a.nextID,
			MsgID:     msg,
			SeqInMsg:  seq,
			Src:       src,
			Dst:       dst,
			Tag:       a.policy.Tag(msg, seq),
			Len:       l,
			CreatedAt: now,
			Class:     packet.ClassCollective,
			Dep:       dep,
			Measured:  a.measured,
		}
		a.pktSend[p.ID] = id
		a.lastPkt[id] = int64(a.nextID)
		a.nextID++
		if a.measured {
			a.offered++
		}
		f.Routers[src].Inject(p, now)
	}
}

// injectResponse injects one latency-class response, annotated with the
// request packet it answers.
func (a *AIScaleOut) injectResponse(f *router.Fabric, r aiResponse, now int64) {
	a.injectOne(f, a.endpoints[r.Src], a.endpoints[r.Dst], r.Flits, packet.ClassLatency, r.Dep, now, nil)
}

// injectOne injects a single-packet message; req non-nil registers it as
// an in-flight request whose delivery will trigger a response.
func (a *AIScaleOut) injectOne(f *router.Fabric, src, dst, flits int, class uint8, dep int64, now int64, req *aiRequest) {
	msg := a.nextMsg
	a.nextMsg++
	p := a.newPacket()
	*p = packet.Packet{
		ID:        a.nextID,
		MsgID:     msg,
		SeqInMsg:  0,
		Src:       src,
		Dst:       dst,
		Tag:       a.policy.Tag(msg, 0),
		Len:       flits,
		CreatedAt: now,
		Class:     class,
		Dep:       dep,
		Measured:  a.measured,
	}
	if req != nil {
		a.requests[p.ID] = *req
	}
	a.nextID++
	if a.measured {
		a.offered++
	}
	f.Routers[src].Inject(p, now)
}

// OnDeliver implements Source: collective bookkeeping (send completion
// releases its waiters; phase completion opens the compute gap) and
// request completion (schedules the dependent response for next cycle).
func (a *AIScaleOut) OnDeliver(p *packet.Packet, now int64) {
	if id, ok := a.pktSend[p.ID]; ok {
		delete(a.pktSend, p.ID)
		a.remaining[id]--
		if a.remaining[id] > 0 {
			return
		}
		a.deliveredSends++
		for _, w := range a.waiters[id] {
			a.pendingDeps[w]--
			if a.pendingDeps[w] == 0 {
				a.ready = append(a.ready, w)
			}
		}
		if a.deliveredSends == len(a.sends) {
			a.phaseActive = false
			a.computeUntil = now + a.spec.ComputeCycles
		}
		return
	}
	if req, ok := a.requests[p.ID]; ok {
		delete(a.requests, p.ID)
		a.responses = append(a.responses, aiResponse{
			At:    now + 1,
			Src:   req.dst,
			Dst:   req.src,
			Flits: req.flits,
			Dep:   int64(p.ID),
		})
	}
}

// Snapshot implements Source: the phase machine, the per-send state and
// the request/response bookkeeping, map-backed parts flattened in sorted
// order so the snapshot bytes are canonical.
func (a *AIScaleOut) Snapshot() GeneratorState {
	as := &AIScaleOutState{
		Phase:          a.phase,
		PhaseActive:    a.phaseActive,
		ComputeUntil:   a.computeUntil,
		PendingDeps:    append([]int(nil), a.pendingDeps...),
		Remaining:      append([]int(nil), a.remaining...),
		LastPkt:        append([]int64(nil), a.lastPkt...),
		ReadySends:     append([]int(nil), a.ready...),
		DeliveredSends: a.deliveredSends,
		Responses:      append([]aiResponse(nil), a.responses...),
	}
	for pkt, send := range a.pktSend {
		as.PktSend = append(as.PktSend, AIPktSendState{Pkt: pkt, Send: send})
	}
	sort.Slice(as.PktSend, func(i, j int) bool { return as.PktSend[i].Pkt < as.PktSend[j].Pkt })
	sort.Slice(as.Responses, func(i, j int) bool {
		if as.Responses[i].At != as.Responses[j].At {
			return as.Responses[i].At < as.Responses[j].At
		}
		return as.Responses[i].Dep < as.Responses[j].Dep
	})
	for pkt, req := range a.requests {
		as.Requests = append(as.Requests, AIRequestState{Pkt: pkt, Src: req.src, Dst: req.dst, Flits: req.flits})
	}
	sort.Slice(as.Requests, func(i, j int) bool { return as.Requests[i].Pkt < as.Requests[j].Pkt })

	st := GeneratorState{
		Rands:          make([]uint64, len(a.rands)),
		NextID:         a.nextID,
		NextMsg:        a.nextMsg,
		OfferedPackets: a.offered,
		AIScaleOut:     as,
	}
	for i, r := range a.rands {
		st.Rands[i] = r.State()
	}
	return st
}

// Restore implements Source.
func (a *AIScaleOut) Restore(st *GeneratorState) error {
	as := st.AIScaleOut
	if as == nil {
		return errors.New("snapshot was not taken from an aiscaleout source")
	}
	if len(st.Rands) != len(a.rands) {
		return fmt.Errorf("snapshot has %d background streams, source has %d",
			len(st.Rands), len(a.rands))
	}
	n := len(a.sends)
	if len(as.PendingDeps) != n || len(as.Remaining) != n || len(as.LastPkt) != n {
		return fmt.Errorf("snapshot describes a %d-send schedule, source has %d",
			len(as.PendingDeps), n)
	}
	for _, s := range as.ReadySends {
		if s < 0 || s >= n {
			return fmt.Errorf("ready send %d outside schedule", s)
		}
	}
	for i, r := range st.Rands {
		a.rands[i].SetState(r)
	}
	a.phase = as.Phase
	a.phaseActive = as.PhaseActive
	a.computeUntil = as.ComputeUntil
	copy(a.pendingDeps, as.PendingDeps)
	copy(a.remaining, as.Remaining)
	copy(a.lastPkt, as.LastPkt)
	a.ready = append(a.ready[:0:0], as.ReadySends...)
	a.deliveredSends = as.DeliveredSends
	a.pktSend = make(map[uint64]int, len(as.PktSend))
	for _, ps := range as.PktSend {
		if ps.Send < 0 || ps.Send >= n {
			return fmt.Errorf("in-flight packet maps to send %d outside schedule", ps.Send)
		}
		a.pktSend[ps.Pkt] = ps.Send
	}
	a.responses = append(a.responses[:0], as.Responses...)
	a.requests = make(map[uint64]aiRequest, len(as.Requests))
	for _, r := range as.Requests {
		a.requests[r.Pkt] = aiRequest{src: r.Src, dst: r.Dst, flits: r.Flits}
	}
	a.nextID = st.NextID
	a.nextMsg = st.NextMsg
	a.offered = st.OfferedPackets
	return nil
}
