package router

import (
	"errors"
	"fmt"

	"chipletnet/internal/packet"
)

// FabricState is the checkpoint form of a Fabric's dynamic state. Packets
// are referenced by index into the checkpoint's packet table.
type FabricState struct {
	Now          int64
	LastProgress int64
	InFlight     int
	Routers      []RouterState
	Links        []LinkState
}

// RouterState is the dynamic state of one router. The pipeline-eligibility
// counter ("waiting") is recomputed on restore from the VC states.
type RouterState struct {
	VAOffset int
	In       []InPortState
	Out      []OutPortState
}

// InPortState holds the per-VC state of one input port.
type InPortState struct {
	VCs []VCState
}

// VCState is the buffer and head-of-line pipeline state of one virtual
// channel.
type VCState struct {
	Flits     int
	State     uint8
	ReadyAt   int64
	GrantedAt int64
	// OutPort is the granted output port index, or -1.
	OutPort int
	OutVC   int
	Queue   []PktInstState
}

// PktInstState is one (possibly partial) packet resident in a VC buffer.
type PktInstState struct {
	Pkt      int // packet-table index
	Received int
	Sent     int
	Safe     bool
}

// VCRef names an input VC of the same router: (input port, VC index).
type VCRef struct {
	Port, VC int
}

// OutPortState is the credit and allocation state of one output port.
type OutPortState struct {
	Credits []int
	// Owners[i] is the input VC holding downstream VC i, or {-1,-1}.
	Owners []VCRef
	// Granted lists input VCs holding a VA grant, in live order.
	Granted []VCRef
}

// LinkState is the dynamic state of one link: the in-flight pipelines in
// both directions plus the parameters fault events may have derated.
type LinkState struct {
	Bandwidth int
	Latency   int
	Carried   int64
	Flits     []FlitBundleState
	Credits   []creditBundle
	Acks      []ackMsg
	// Rel is nil when the link runs without the reliability protocol.
	Rel *LinkRelState
}

// FlitBundleState is one flit bundle on the wire.
type FlitBundleState struct {
	Pkt      int
	N        int
	VC       int
	ArriveAt int64
	Seq      uint64
	Corrupt  bool
}

// LinkRelState is the go-back-N reliability protocol state of one link.
type LinkRelState struct {
	CorruptedFlits   int64
	CorruptedBundles int64
	Retransmissions  int64
	Nacks            int64
	NextSeq          uint64
	Expect           uint64
	Backoff          int64
	RetryAt          int64
	Replay           []ReplayEntryState
}

// ReplayEntryState is one unacknowledged bundle in a sender's replay
// buffer.
type ReplayEntryState struct {
	Pkt    int
	N      int
	VC     int
	Seq    uint64
	SentAt int64
}

// Snapshot captures the fabric's complete dynamic state into a
// FabricState, interning every referenced packet in tbl.
// Structural state (routers, ports, links, routing) is not captured — the
// restore side rebuilds it from the configuration and only the dynamic
// state is laid back on top.
func (f *Fabric) Snapshot(tbl *packet.Table) FabricState {
	st := FabricState{
		Now:          f.Now,
		LastProgress: f.lastProgress,
		InFlight:     f.inFlight,
		Routers:      make([]RouterState, len(f.Routers)),
		Links:        make([]LinkState, len(f.Links)),
	}
	for i, r := range f.Routers {
		st.Routers[i] = r.snapshot(tbl)
	}
	for i, l := range f.Links {
		st.Links[i] = l.snapshot(tbl)
	}
	return st
}

func (r *Router) snapshot(tbl *packet.Table) RouterState {
	rs := RouterState{
		VAOffset: r.vaOffset,
		In:       make([]InPortState, len(r.In)),
		Out:      make([]OutPortState, len(r.Out)),
	}
	for pi, ip := range r.In {
		vcs := make([]VCState, len(ip.VCs))
		for vi, vc := range ip.VCs {
			vs := VCState{
				Flits:     vc.flits,
				State:     uint8(vc.state),
				ReadyAt:   vc.readyAt,
				GrantedAt: vc.grantedAt,
				OutPort:   -1,
				OutVC:     vc.outVC,
				Queue:     make([]PktInstState, vc.q.Len()),
			}
			if vc.outPort != nil {
				vs.OutPort = vc.outPort.Index
			}
			for qi := 0; qi < vc.q.Len(); qi++ {
				inst := vc.q.At(qi)
				vs.Queue[qi] = PktInstState{
					Pkt:      tbl.Ref(inst.p),
					Received: inst.received,
					Sent:     inst.sent,
					Safe:     inst.safe,
				}
			}
			vcs[vi] = vs
		}
		rs.In[pi] = InPortState{VCs: vcs}
	}
	for oi, o := range r.Out {
		os := OutPortState{
			Credits: append([]int(nil), o.Credits...),
			Owners:  make([]VCRef, len(o.Owner)),
			Granted: make([]VCRef, len(o.granted)),
		}
		for i, v := range o.Owner {
			os.Owners[i] = vcRef(v)
		}
		for i, v := range o.granted {
			os.Granted[i] = vcRef(v)
		}
		rs.Out[oi] = os
	}
	return rs
}

// vcRef names an input VC of its own router; grants and ownership never
// cross routers.
func vcRef(v *VC) VCRef {
	if v == nil {
		return VCRef{Port: -1, VC: -1}
	}
	return VCRef{Port: v.Port.Index, VC: v.Index}
}

func (l *Link) snapshot(tbl *packet.Table) LinkState {
	ls := LinkState{
		Bandwidth: l.Bandwidth,
		Latency:   l.Latency,
		Carried:   l.Carried,
		Flits:     make([]FlitBundleState, l.flits.Len()),
		Credits:   make([]creditBundle, l.credits.Len()),
		Acks:      make([]ackMsg, l.acks.Len()),
	}
	for i := 0; i < l.flits.Len(); i++ {
		b := l.flits.At(i)
		ls.Flits[i] = FlitBundleState{
			Pkt: tbl.Ref(b.p), N: b.n, VC: b.vc,
			ArriveAt: b.arriveAt, Seq: b.seq, Corrupt: b.corrupt,
		}
	}
	for i := range ls.Credits {
		ls.Credits[i] = *l.credits.At(i)
	}
	for i := range ls.Acks {
		ls.Acks[i] = *l.acks.At(i)
	}
	if l.Rel != nil {
		rel := &LinkRelState{
			CorruptedFlits:   l.Rel.CorruptedFlits,
			CorruptedBundles: l.Rel.CorruptedBundles,
			Retransmissions:  l.Rel.Retransmissions,
			Nacks:            l.Rel.Nacks,
			NextSeq:          l.Rel.nextSeq,
			Expect:           l.Rel.expect,
			Backoff:          l.Rel.backoff,
			RetryAt:          l.Rel.retryAt,
			Replay:           make([]ReplayEntryState, l.Rel.replay.Len()),
		}
		for i := 0; i < l.Rel.replay.Len(); i++ {
			e := l.Rel.replay.At(i)
			rel.Replay[i] = ReplayEntryState{
				Pkt: tbl.Ref(e.p), N: e.n, VC: e.vc, Seq: e.seq, SentAt: e.sentAt,
			}
		}
		ls.Rel = rel
	}
	return ls
}

// Restore lays snapshot state back onto a structurally identical fabric
// (same Build from the same configuration, reliability protocol already
// re-attached). pkts is the materialized packet table; it resolves every
// packet reference in st. A snapshot that does not fit the structure is
// rejected with an error.
func (f *Fabric) Restore(st *FabricState, pkts []*packet.Packet) error {
	if len(st.Routers) != len(f.Routers) || len(st.Links) != len(f.Links) {
		return fmt.Errorf("snapshot has %d routers / %d links, fabric has %d / %d",
			len(st.Routers), len(st.Links), len(f.Routers), len(f.Links))
	}
	pk := func(i int) (*packet.Packet, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= len(pkts) {
			return nil, fmt.Errorf("packet reference %d out of range (%d packets)",
				i, len(pkts))
		}
		return pkts[i], nil
	}
	for i, r := range f.Routers {
		if err := r.restore(&st.Routers[i], pk); err != nil {
			return fmt.Errorf("router %d: %w", r.Node, err)
		}
	}
	for i, l := range f.Links {
		if err := l.restore(&st.Links[i], pk); err != nil {
			return fmt.Errorf("link %d: %w", l.ID, err)
		}
	}
	f.Now = st.Now
	f.lastProgress = st.LastProgress
	f.inFlight = st.InFlight
	// The active sets and grants counters are derived state, not part of
	// the snapshot format; reconstruct them from what was just laid down.
	f.rebuildActive()
	return nil
}

func (r *Router) restore(rs *RouterState, pk func(int) (*packet.Packet, error)) error {
	if len(rs.In) != len(r.In) || len(rs.Out) != len(r.Out) {
		return fmt.Errorf("snapshot has %d in / %d out ports, router has %d / %d",
			len(rs.In), len(rs.Out), len(r.In), len(r.Out))
	}
	r.vaOffset = rs.VAOffset
	for pi, ip := range r.In {
		ps := &rs.In[pi]
		if len(ps.VCs) != len(ip.VCs) {
			return fmt.Errorf("port %d has %d VCs in snapshot, %d in router",
				pi, len(ps.VCs), len(ip.VCs))
		}
		for vi, vc := range ip.VCs {
			vs := &ps.VCs[vi]
			vc.flits = vs.Flits
			vc.state = vcState(vs.State)
			vc.readyAt = vs.ReadyAt
			vc.grantedAt = vs.GrantedAt
			vc.outVC = vs.OutVC
			vc.outPort = nil
			if vs.OutPort >= 0 {
				if vs.OutPort >= len(r.Out) {
					return fmt.Errorf("VC %d.%d granted to out port %d of %d",
						pi, vi, vs.OutPort, len(r.Out))
				}
				vc.outPort = r.Out[vs.OutPort]
			}
			vc.q = fifo[pktInst]{}
			for _, qs := range vs.Queue {
				p, err := pk(qs.Pkt)
				if err != nil {
					return err
				}
				if p == nil {
					return errors.New("nil packet in VC queue")
				}
				vc.q.Push(pktInst{p: p, received: qs.Received, sent: qs.Sent, safe: qs.Safe})
			}
		}
	}
	for oi, o := range r.Out {
		os := &rs.Out[oi]
		if len(os.Credits) != len(o.Credits) || len(os.Owners) != len(o.Owner) {
			return fmt.Errorf("out port %d has %d credits / %d owners in snapshot, %d / %d in router",
				oi, len(os.Credits), len(os.Owners), len(o.Credits), len(o.Owner))
		}
		copy(o.Credits, os.Credits)
		for i, ref := range os.Owners {
			v, err := r.vcByRef(ref)
			if err != nil {
				return err
			}
			o.Owner[i] = v
		}
		o.granted = o.granted[:0]
		for _, ref := range os.Granted {
			v, err := r.vcByRef(ref)
			if err != nil {
				return err
			}
			if v == nil {
				return errors.New("nil VC in grant list")
			}
			o.granted = append(o.granted, v)
		}
	}
	return nil
}

func (r *Router) vcByRef(ref VCRef) (*VC, error) {
	if ref.Port == -1 && ref.VC == -1 {
		return nil, nil
	}
	if ref.Port < 0 || ref.Port >= len(r.In) || ref.VC < 0 || ref.VC >= len(r.In[ref.Port].VCs) {
		return nil, fmt.Errorf("VC reference %d.%d out of range", ref.Port, ref.VC)
	}
	return r.In[ref.Port].VCs[ref.VC], nil
}

func (l *Link) restore(ls *LinkState, pk func(int) (*packet.Packet, error)) error {
	l.Bandwidth = ls.Bandwidth
	l.Latency = ls.Latency
	l.Carried = ls.Carried
	l.flits = fifo[flitBundle]{}
	for _, b := range ls.Flits {
		p, err := pk(b.Pkt)
		if err != nil {
			return err
		}
		l.flits.Push(flitBundle{p: p, n: b.N, vc: b.VC, arriveAt: b.ArriveAt, seq: b.Seq, corrupt: b.Corrupt})
	}
	l.credits = fifo[creditBundle]{}
	for _, c := range ls.Credits {
		l.credits.Push(c)
	}
	l.acks = fifo[ackMsg]{}
	for _, a := range ls.Acks {
		l.acks.Push(a)
	}
	if (ls.Rel != nil) != (l.Rel != nil) {
		return fmt.Errorf("reliability protocol %v in snapshot but %v on link",
			ls.Rel != nil, l.Rel != nil)
	}
	if ls.Rel != nil {
		// Fill into the existing LinkRel: its Corrupt closure (owned by the
		// fault engine) must survive the restore.
		rel := l.Rel
		rel.CorruptedFlits = ls.Rel.CorruptedFlits
		rel.CorruptedBundles = ls.Rel.CorruptedBundles
		rel.Retransmissions = ls.Rel.Retransmissions
		rel.Nacks = ls.Rel.Nacks
		rel.nextSeq = ls.Rel.NextSeq
		rel.expect = ls.Rel.Expect
		rel.backoff = ls.Rel.Backoff
		rel.retryAt = ls.Rel.RetryAt
		rel.replay = fifo[replayEntry]{}
		for _, e := range ls.Rel.Replay {
			p, err := pk(e.Pkt)
			if err != nil {
				return err
			}
			rel.replay.Push(replayEntry{p: p, n: e.N, vc: e.VC, seq: e.Seq, sentAt: e.SentAt})
		}
	}
	return nil
}

// DiagnosticReport takes a deadlock-style snapshot of the fabric's current
// blocked state on demand (without the watchdog having fired) — used to
// explain where traffic is stuck when a run is aborted externally, e.g. by
// a wall-clock timeout.
func (f *Fabric) DiagnosticReport() *DeadlockReport {
	return f.snapshotDeadlock(f.Now)
}
