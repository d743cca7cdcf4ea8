// Package packet defines the unit of data transfer in the simulator.
//
// The simulator is flit-level: a packet is a train of Len flits that moves
// through virtual-channel FIFOs and links. To keep memory and simulation
// cost proportional to packets rather than flits, individual flits are not
// materialized; buffers and links account for them with counters. A Packet
// therefore carries everything the routers, the routing algorithms and the
// statistics collectors need: addressing, the interleave tag, timestamps and
// hop counters.
package packet

// QoS traffic classes. Every packet belongs to exactly one class, set at
// injection by the traffic source; internal/stats keeps per-class latency
// and throughput figures so tail-latency objectives can be evaluated per
// class rather than over the aggregate.
const (
	// ClassBestEffort is the default class of the synthetic Bernoulli
	// patterns: no ordering or deadline expectations.
	ClassBestEffort uint8 = iota
	// ClassBulk is background bandwidth traffic (memory/DMA streams):
	// throughput matters, tail latency does not.
	ClassBulk
	// ClassLatency is latency-sensitive request/response traffic:
	// small packets whose p99/p999 is the figure of merit.
	ClassLatency
	// ClassCollective is collective-communication traffic (all-reduce,
	// all-gather, ...): completion time of the whole phase matters.
	ClassCollective
	// NumClasses bounds the class space; class values must be < NumClasses.
	NumClasses
)

// ClassName returns the canonical name of a traffic class.
func ClassName(c uint8) string {
	switch c {
	case ClassBestEffort:
		return "best-effort"
	case ClassBulk:
		return "bulk"
	case ClassLatency:
		return "latency"
	case ClassCollective:
		return "collective"
	}
	return "?"
}

// NoDep marks a packet (or trace entry) with no dependency.
const NoDep int64 = -1

// Packet is one network packet (a train of Len flits).
//
// A Packet is created by a traffic source, carried through the network by
// reference, and handed to the delivery sink when its tail flit is consumed
// at the destination. It must not be shared between concurrent simulations.
type Packet struct {
	// ID is unique per simulation run (assigned by the traffic source).
	ID uint64
	// MsgID identifies the message this packet belongs to. Several packets
	// can share a message; coarse-grained (message-level) interleaving keys
	// off this field.
	MsgID uint64
	// SeqInMsg is the packet's index within its message.
	SeqInMsg int

	// Src and Dst are global node IDs.
	Src, Dst int

	// Tag is the network-interleaving tag: the index of the physical
	// interface within the destination interface group that inter-chiplet
	// hops of this packet should use. Tag < 0 means "no preference" (the
	// routing algorithm picks a default). The tag is assigned at injection
	// time by an interleave.Policy.
	Tag int

	// Len is the packet length in flits.
	Len int

	// CreatedAt is the cycle the packet entered the source queue.
	// Latency is measured from CreatedAt so that source queueing counts,
	// as in the paper's simulator.
	CreatedAt int64
	// InjectedAt is the cycle the packet's head flit left the source queue
	// into the injection router (set by the router model).
	InjectedAt int64
	// DeliveredAt is the cycle the tail flit was consumed at Dst.
	DeliveredAt int64

	// Class is the QoS traffic class (< NumClasses), set at injection by
	// the traffic source. Routers ignore it; internal/stats aggregates
	// per-class figures and workload traces record it.
	Class uint8
	// Dep is the causal-dependency annotation for workload traces: the ID
	// of the packet whose delivery this packet's injection waited on, or
	// NoDep (-1). Carried through recording and replay (internal/workload);
	// routers ignore it.
	Dep int64

	// Measured marks packets created during the measurement window
	// (after warm-up); only these contribute to latency statistics.
	Measured bool

	// Rerouted marks packets whose exit-interface selection was changed by
	// fault-driven group degradation: the interface the pre-fault group
	// membership would have picked is gone, so the interleave re-weighted
	// the packet onto a survivor. Set by the routing layer; only meaningful
	// under fault injection.
	Rerouted bool

	// Hop counters, maintained by the router model as the head flit moves.
	RouterHops  int // routers traversed, excluding the source router
	OnChipHops  int // on-chip links traversed
	OffChipHops int // off-chip (chiplet-to-chiplet) links traversed
}

// Latency returns the packet delivery latency in cycles (source queueing
// included). It is only meaningful after delivery.
func (p *Packet) Latency() int64 { return p.DeliveredAt - p.CreatedAt }

// NetworkLatency returns the in-network latency (excluding source queueing).
func (p *Packet) NetworkLatency() int64 { return p.DeliveredAt - p.InjectedAt }

// Routers returns the total number of routers the packet visited,
// including the source router.
func (p *Packet) Routers() int { return p.RouterHops + 1 }
