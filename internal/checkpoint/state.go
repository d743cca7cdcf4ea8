package checkpoint

import "chipletnet/internal/packet"

// State is the complete dynamic state of one simulation at a cycle
// boundary: everything Simulate touches between cycles, captured so that a
// run restored from it finishes bit-identical to the uninterrupted run.
// Structural state (topology wiring, routing tables, traffic patterns) is
// NOT stored — it is rebuilt deterministically from the embedded Config —
// only the mutable state layered on top of it is.
type State struct {
	// Config is the root-package Config, JSON-encoded (the checkpoint
	// package cannot import the root package). Resume rebuilds the system
	// from it, so a snapshot is self-contained.
	Config []byte
	// Cycle is the last completed simulation cycle; resume continues at
	// Cycle+1.
	Cycle int64

	// Packets is the table of every packet referenced anywhere in the
	// snapshot (buffers, wires, replay windows), serialized once each;
	// all other sections reference packets by table index. Storing
	// packet.Packet itself checkpoints every field it has.
	Packets []packet.Packet

	Fabric FabricState
	Gen    GeneratorState
	Stats  CollectorState
	Topo   TopoState
	// Fault is nil when the run has no fault engine.
	Fault *FaultState
}

// FabricState is the dynamic state of router.Fabric.
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
	Credits   []CreditBundleState
	Acks      []AckState
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

// CreditBundleState is one credit return on the wire.
type CreditBundleState struct {
	VC       int
	N        int
	ArriveAt int64
}

// AckState is one ack/nack on the reverse path.
type AckState struct {
	Seq      uint64
	Nack     bool
	ArriveAt int64
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

// GeneratorState is the traffic source's cursor state. The Bernoulli
// generator uses the flat fields; the trace replayer and the AI-scale-out
// generator layer their cursor state in the optional sections (nil for
// the other kinds, so pre-existing snapshots decode unchanged).
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
	Pending []ReplayPendingState
	// Waiting lists activated entries blocked on an undelivered
	// dependency, sorted by entry index.
	Waiting []int
	// InFlight maps injected packet ids to entry indices, sorted by Pkt.
	InFlight []ReplayFlightState
}

// ReplayPendingState is one released trace entry awaiting injection.
type ReplayPendingState struct {
	Entry int
	At    int64
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
	Responses []AIResponseState
	// Requests maps in-flight request packet ids to their endpoints,
	// sorted by Pkt.
	Requests []AIRequestState
}

// AIPktSendState maps one in-flight collective packet to its send.
type AIPktSendState struct {
	Pkt  uint64
	Send int
}

// AIResponseState is one response scheduled for injection.
type AIResponseState struct {
	At       int64
	Src, Dst int // endpoint indices (responder first)
	Flits    int
	Dep      int64 // id of the request packet
}

// AIRequestState is one in-flight request packet.
type AIRequestState struct {
	Pkt      uint64
	Src, Dst int // endpoint indices of the original request
	Flits    int
}

// CollectorState is the statistics collector's accumulator state.
type CollectorState struct {
	Latencies         []float64
	SumLat            float64
	SumNet            float64
	MaxLat            int64
	MeasuredDelivered int
	DeliveredAll      int
	AcceptedFlits     int64
	SumRouters        float64
	SumOnChip         float64
	SumOffChip        float64

	// Per-class accumulators, indexed by traffic class. Snapshots written
	// before per-class accounting existed decode with these nil; Restore
	// treats absent sections as all-zero.
	ClassLatencies [][]float64
	ClassMax       []int64
	ClassDelivered []int
	ClassFlits     []int64
}

// TopoState is the fault-mutable part of the topology: interface-group
// membership (kills remove members), the pre-fault membership snapshot,
// and the condemned-interface set.
type TopoState struct {
	// Groups[c][g] lists group g of chiplet c's current members.
	Groups [][][]int
	// BaseGroups is the pre-fault snapshot, nil if never taken.
	BaseGroups [][][]int
	// Condemned lists condemned interface node ids in ascending order.
	Condemned []int
}

// FaultState is the fault engine's schedule position and accounting.
type FaultState struct {
	// NextEvent indexes the first not-yet-applied schedule event.
	NextEvent int
	// Pending lists condemned channels still draining, by endpoints.
	Pending []CrossRef
	// Seen lists delivered packet ids in ascending order.
	Seen []uint64
	// Dropped counts corruption records not logged (past LogCap).
	Dropped int
	Log     []FaultRecordState
	Stats   FaultStatsState
	// Streams holds the per-link corruption stream states in the order
	// the engine attached them (ascending link id).
	Streams []LinkStreamState
}

// CrossRef identifies a chiplet-to-chiplet channel by endpoint node ids.
type CrossRef struct {
	A, B int
}

// FaultRecordState mirrors fault.Record.
type FaultRecordState struct {
	Cycle  int64
	Kind   string
	A, B   int
	Detail string
}

// FaultStatsState mirrors fault.Stats. The layer-1 sums are recomputed by
// Finish from the restored per-link counters, but the remaining fields are
// engine-owned and must round-trip.
type FaultStatsState struct {
	CorruptedFlits      int64
	CorruptedBundles    int64
	Retransmissions     int64
	Nacks               int64
	LinksKilled         int
	LinksDegraded       int
	LinksDecommissioned int
	ReroutedPackets     int64
	DeliveredPackets    int
	DuplicatePackets    int
	LostPackets         int
}

// LinkStreamState is one per-link corruption stream state.
type LinkStreamState struct {
	LinkID int
	State  uint64
}

// PacketTable interns packets during snapshotting so each is serialized
// exactly once and referenced by index everywhere else.
type PacketTable struct {
	byPtr map[*packet.Packet]int
	list  []packet.Packet
}

// NewPacketTable returns an empty table.
func NewPacketTable() *PacketTable {
	return &PacketTable{byPtr: make(map[*packet.Packet]int)}
}

// Ref interns p and returns its table index; -1 for nil.
func (t *PacketTable) Ref(p *packet.Packet) int {
	if p == nil {
		return -1
	}
	if i, ok := t.byPtr[p]; ok {
		return i
	}
	i := len(t.list)
	t.byPtr[p] = i
	t.list = append(t.list, *p)
	return i
}

// List returns copies of the interned packets in reference order.
func (t *PacketTable) List() []packet.Packet { return t.list }

// Materialize rebuilds live packets from serialized copies, preserving
// table indices. Restore paths share the returned slice so a packet
// referenced from several places is one object again.
func Materialize(states []packet.Packet) []*packet.Packet {
	pkts := make([]*packet.Packet, len(states))
	for i := range states {
		p := states[i]
		pkts[i] = &p
	}
	return pkts
}
