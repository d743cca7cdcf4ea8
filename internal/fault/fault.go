// Package fault is the deterministic fault-injection engine: it drives
// transient flit corruption (per-flit bit-error rate), scheduled permanent
// link/interface failures, and link derating (bandwidth/latency) against a
// built system, and coordinates the two recovery layers that absorb them.
//
// Layer 1 is link-level reliability in internal/router (router.LinkRel):
// CRC-tagged sequence-numbered flit bundles, cumulative ack/nack, go-back-N
// retransmission with capped exponential backoff, and credit reconciliation
// so a dropped flit never leaks a credit. The engine attaches a LinkRel with
// a seeded per-link corruption stream to every link covered by a BER.
//
// Layer 2 is graceful degradation at the chiplet layer. A permanent failure
// goes through quiesce-then-decommission: the interface pair is first
// condemned (topology.CondemnCrossLink) — removed from group membership so
// interleaving re-weights new traffic across the survivors, while the
// physical channel stays usable as a fallback for packets that had already
// committed to a ring ride past every survivor. The degraded topology is
// immediately re-certified deadlock-free by internal/verify (refusal is a
// typed error, never a hang), and once no stranded traffic remains the
// interface is decommissioned for good.
//
// Everything is seeded through internal/rng: the same Config and seed
// reproduce the same faults, retransmissions and recovery bit-for-bit, and
// a disabled Config leaves the simulator's hot paths untouched.
package fault

import (
	"errors"
	"fmt"
	"sort"

	"chipletnet/internal/packet"
	"chipletnet/internal/rng"
	"chipletnet/internal/router"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

// Kind classifies fault events and log records.
type Kind string

const (
	// KindCorrupt is transient in-transit corruption caught by the
	// receiver's CRC (log records only; corruption is drawn from the BER,
	// not scheduled).
	KindCorrupt Kind = "corrupt"
	// KindLinkKill permanently fails a chiplet-to-chiplet channel at a
	// scheduled cycle.
	KindLinkKill Kind = "link-kill"
	// KindLinkDegrade derates a channel's bandwidth and/or latency at a
	// scheduled cycle.
	KindLinkDegrade Kind = "link-degrade"
	// KindDecommission records that a killed channel finished draining and
	// was fully removed (log records only).
	KindDecommission Kind = "link-decommissioned"
	// KindReverify records a successful deadlock-freedom re-certification
	// of the degraded topology (log records only).
	KindReverify Kind = "reverify"
)

// Event is one scheduled fault.
type Event struct {
	// Cycle is when the fault strikes (>= 1).
	Cycle int64
	// Kind is KindLinkKill or KindLinkDegrade.
	Kind Kind
	// A and B are the endpoint node ids of the chiplet-to-chiplet channel
	// (either order).
	A, B int
	// BandwidthDiv divides the link bandwidth (floored at 1 flit/cycle)
	// and LatencyMult multiplies the link latency; KindLinkDegrade only.
	// Zero means "leave unchanged".
	BandwidthDiv int
	LatencyMult  int
}

// Config parameterizes the engine. The zero value disables everything.
type Config struct {
	// BER is the per-flit corruption probability on chiplet-to-chiplet
	// links; OnChipBER the same for on-chip links. Either > 0 attaches the
	// link-level reliability protocol to the covered links.
	BER       float64
	OnChipBER float64
	// Seed roots the per-link corruption streams (independent of, and not
	// perturbing, the traffic streams).
	Seed uint64
	// Events is the fault schedule (applied in cycle order).
	Events []Event
	// RetransmitTimeout is the sender ack timeout in cycles; 0 derives
	// 4*latency+16 per link. BackoffMax caps the exponential retransmission
	// backoff; 0 means 256 cycles (well below the deadlock watchdog).
	RetransmitTimeout int64
	BackoffMax        int64
	// VerifyOff skips the mid-run deadlock-freedom re-certification after
	// permanent failures. VerifyMaxDests bounds its cost (0 means 8
	// sampled destinations).
	VerifyOff      bool
	VerifyMaxDests int
	// LogCap bounds the corruption records kept in the event log
	// (0 means 64); structural records (kill/degrade/decommission/
	// reverify) are always kept.
	LogCap int
}

// Enabled reports whether the configuration injects any fault.
func (c Config) Enabled() bool {
	return c.BER > 0 || c.OnChipBER > 0 || len(c.Events) > 0
}

// Record is one entry of the fault event log, JSON-ready for Result
// serialization.
type Record struct {
	Cycle  int64  `json:"cycle"`
	Kind   Kind   `json:"kind"`
	A      int    `json:"a,omitempty"`
	B      int    `json:"b,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Stats summarizes the faults injected and the recovery work they caused.
type Stats struct {
	// Layer-1 counters, summed over all protected links.
	CorruptedFlits   int64 `json:"corrupted_flits"`
	CorruptedBundles int64 `json:"corrupted_bundles"`
	Retransmissions  int64 `json:"retransmissions"`
	Nacks            int64 `json:"nacks"`
	// Layer-2 counters.
	LinksKilled         int   `json:"links_killed"`
	LinksDegraded       int   `json:"links_degraded"`
	LinksDecommissioned int   `json:"links_decommissioned"`
	ReroutedPackets     int64 `json:"rerouted_packets"`
	// End-to-end delivery accounting (sequence check at the sinks).
	DeliveredPackets int `json:"delivered_packets"`
	DuplicatePackets int `json:"duplicate_packets"`
	LostPackets      int `json:"lost_packets"`
}

// Typed failure classes. Errors returned by the engine wrap one of these;
// test with errors.Is.
var (
	// ErrPartitioned: a scheduled kill would disconnect an interface group
	// (no routable survivor), so the system would partition.
	ErrPartitioned = errors.New("fault: failure would partition the network")
	// ErrDegradedUnsafe: the degraded topology failed deadlock-freedom
	// re-certification; continuing could hang.
	ErrDegradedUnsafe = errors.New("fault: degraded topology is not certified deadlock-free")
	// ErrBadSchedule: the fault schedule itself is invalid (unknown link,
	// duplicate kill, bad parameters).
	ErrBadSchedule = errors.New("fault: invalid fault schedule")
)

// ExitPlanner is the routing-side hook the engine needs to decommission
// killed interfaces safely: which group an in-flight packet exits its
// current chiplet through. The grouped MFR routing implements it; the flat
// 2D-mesh baseline does not (it has no grouped redundancy to degrade onto),
// so kill events are rejected there.
type ExitPlanner interface {
	ExitGroup(chiplet int, p *packet.Packet) (group int, ok bool)
}

// Engine applies one fault schedule to one built system. Create with New,
// chain into the delivery path with Attach, call Step every cycle before
// Fabric.Step, and Finish after the run.
type Engine struct {
	// Log is the fault event log (corruption records capped at LogCap).
	Log []Record
	// Stats accumulates counters; Layer-1 sums are filled in by Finish.
	Stats Stats

	sys     *topology.System
	cfg     Config
	planner ExitPlanner
	events  []Event
	next    int
	pending []pendingDrain
	seen    map[uint64]struct{}
	dropped int // corruption records not logged (past LogCap)

	// streams holds the per-link corruption streams in attach order
	// (ascending link id). The LinkRel Corrupt closures draw from these;
	// keeping them addressable here lets a checkpoint capture and restore
	// their positions without touching the closures.
	streams []linkStream
}

// linkStream pairs a protected link with its corruption stream.
type linkStream struct {
	linkID int
	r      *rng.Rand
}

// pendingDrain tracks one condemned channel until it quiesces.
type pendingDrain struct {
	a, b   int
	la, lb *router.Link
}

// New validates the schedule, snapshots the pre-fault group membership,
// and attaches the reliability protocol to every link a BER covers.
func New(sys *topology.System, cfg Config) (*Engine, error) {
	if cfg.BER < 0 || cfg.BER >= 1 || cfg.OnChipBER < 0 || cfg.OnChipBER >= 1 {
		return nil, fmt.Errorf("%w: BER must be in [0,1), got %g off-chip / %g on-chip",
			ErrBadSchedule, cfg.BER, cfg.OnChipBER)
	}
	if cfg.LogCap == 0 {
		cfg.LogCap = 64
	}
	if cfg.VerifyMaxDests == 0 {
		cfg.VerifyMaxDests = 8
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 256
	}
	e := &Engine{sys: sys, cfg: cfg}

	cross := make(map[[2]int]bool)
	for _, p := range sys.CrossPairs() {
		cross[[2]int{p.A, p.B}] = true
	}
	killed := make(map[[2]int]bool)
	hasKill := false
	for _, ev := range cfg.Events {
		key := [2]int{min(ev.A, ev.B), max(ev.A, ev.B)}
		switch ev.Kind {
		case KindLinkKill, KindLinkDegrade:
			if !cross[key] {
				return nil, fmt.Errorf("%w: nodes %d and %d do not share a chiplet-to-chiplet channel",
					ErrBadSchedule, ev.A, ev.B)
			}
		default:
			return nil, fmt.Errorf("%w: event kind %q is not schedulable", ErrBadSchedule, ev.Kind)
		}
		if ev.Cycle < 1 {
			return nil, fmt.Errorf("%w: event cycle must be >= 1, got %d", ErrBadSchedule, ev.Cycle)
		}
		if ev.Kind == KindLinkKill {
			if killed[key] {
				return nil, fmt.Errorf("%w: link %d-%d killed twice", ErrBadSchedule, key[0], key[1])
			}
			killed[key] = true
			hasKill = true
		}
		if ev.Kind == KindLinkDegrade && (ev.BandwidthDiv < 0 || ev.LatencyMult < 0) {
			return nil, fmt.Errorf("%w: negative derating on link %d-%d", ErrBadSchedule, ev.A, ev.B)
		}
	}
	if hasKill {
		planner, ok := sys.Fabric.Routing.(ExitPlanner)
		if !ok {
			return nil, fmt.Errorf("%w: topology %v has no interface-group redundancy to absorb a permanent failure",
				ErrBadSchedule, sys.Kind)
		}
		e.planner = planner
		sys.SnapshotGroups()
	}
	e.events = append([]Event(nil), cfg.Events...)
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].Cycle < e.events[j].Cycle })

	e.protectLinks()
	return e, nil
}

// protectLinks attaches a LinkRel with a seeded corruption stream to every
// link the configured BERs cover.
func (e *Engine) protectLinks() {
	if e.cfg.BER <= 0 && e.cfg.OnChipBER <= 0 {
		return
	}
	root := rng.New(e.cfg.Seed ^ 0xfa_017_c0de)
	for _, l := range e.sys.Fabric.Links {
		ber := e.cfg.OnChipBER
		if l.OffChip {
			ber = e.cfg.BER
		}
		if ber <= 0 {
			continue
		}
		timeout := e.cfg.RetransmitTimeout
		if timeout == 0 {
			timeout = 4*int64(l.Latency) + 16
		}
		stream := root.Split(uint64(l.ID))
		e.streams = append(e.streams, linkStream{linkID: l.ID, r: stream})
		link, p := l, ber
		l.Rel = &router.LinkRel{
			Timeout:    timeout,
			BackoffMax: e.cfg.BackoffMax,
			Corrupt: func(now int64, n int) int {
				c := 0
				for i := 0; i < n; i++ {
					if stream.Bernoulli(p) {
						c++
					}
				}
				if c > 0 {
					e.record(Record{
						Cycle: now, Kind: KindCorrupt,
						A: link.Src.Node, B: link.Dst.Node,
						Detail: fmt.Sprintf("%d of %d flits corrupted in transit", c, n),
					})
				}
				return c
			},
		}
	}
}

// Attach chains the engine's delivery checks into the fabric's sink:
// duplicate detection by packet id (the sequence check of exactly-once
// delivery) and rerouted-packet accounting. Call after the statistics
// collector has installed its sink.
func (e *Engine) Attach(f *router.Fabric) {
	prev := f.Sink
	e.seen = make(map[uint64]struct{}, 4096)
	f.Sink = func(p *packet.Packet, now int64) {
		if _, dup := e.seen[p.ID]; dup {
			e.Stats.DuplicatePackets++
		} else {
			e.seen[p.ID] = struct{}{}
		}
		if p.Rerouted {
			e.Stats.ReroutedPackets++
		}
		if prev != nil {
			prev(p, now)
		}
	}
}

// Step applies the schedule's due events and polls condemned channels for
// drain completion. Call once per cycle, before Fabric.Step. A non-nil
// error (wrapping ErrPartitioned or ErrDegradedUnsafe) means the run must
// stop cleanly.
func (e *Engine) Step(now int64) error {
	for e.next < len(e.events) && e.events[e.next].Cycle <= now {
		ev := e.events[e.next]
		e.next++
		var err error
		switch ev.Kind {
		case KindLinkKill:
			err = e.kill(now, ev)
		case KindLinkDegrade:
			err = e.degrade(now, ev)
		}
		if err != nil {
			return err
		}
	}
	e.pollDrains(now)
	return nil
}

// kill condemns the channel, re-weights traffic onto the survivors, and
// re-certifies the degraded topology before the simulation resumes.
func (e *Engine) kill(now int64, ev Event) error {
	if err := e.sys.CondemnCrossLink(ev.A, ev.B); err != nil {
		return fmt.Errorf("%w: killing link %d-%d at cycle %d: %v",
			ErrPartitioned, ev.A, ev.B, now, err)
	}
	e.Stats.LinksKilled++
	e.record(Record{
		Cycle: now, Kind: KindLinkKill, A: ev.A, B: ev.B,
		Detail: "interface condemned; interleaving re-weighted onto group survivors",
	})
	la, lb := e.crossLinks(ev.A, ev.B)
	e.pending = append(e.pending, pendingDrain{a: ev.A, b: ev.B, la: la, lb: lb})
	if !e.cfg.VerifyOff {
		rep := verify.Run(e.sys, verify.Options{MaxDests: e.cfg.VerifyMaxDests})
		if err := rep.Err(); err != nil {
			return fmt.Errorf("%w: after killing link %d-%d at cycle %d: %v",
				ErrDegradedUnsafe, ev.A, ev.B, now, err)
		}
		e.record(Record{
			Cycle: now, Kind: KindReverify, A: ev.A, B: ev.B,
			Detail: "degraded topology re-certified deadlock-free",
		})
	}
	return nil
}

// degrade derates both directions of the channel in place.
func (e *Engine) degrade(now int64, ev Event) error {
	la, lb := e.crossLinks(ev.A, ev.B)
	if la == nil || lb == nil {
		return fmt.Errorf("%w: no channel between %d and %d", ErrBadSchedule, ev.A, ev.B)
	}
	for _, l := range [2]*router.Link{la, lb} {
		if ev.BandwidthDiv > 1 {
			l.Bandwidth = max(1, l.Bandwidth/ev.BandwidthDiv)
		}
		if ev.LatencyMult > 1 {
			l.Latency *= ev.LatencyMult
		}
	}
	e.Stats.LinksDegraded++
	e.record(Record{
		Cycle: now, Kind: KindLinkDegrade, A: ev.A, B: ev.B,
		Detail: fmt.Sprintf("bandwidth %d flits/cycle, latency %d cycles", la.Bandwidth, la.Latency),
	})
	return nil
}

// crossLinks returns the two directed links of the channel between a and b
// (a->b, b->a), nil when absent.
func (e *Engine) crossLinks(a, b int) (la, lb *router.Link) {
	f := e.sys.Fabric
	if pa := e.sys.CrossPort(a); pa >= 0 {
		if l := f.Routers[a].Out[pa].Link; l != nil && l.Dst.Node == b {
			la = l
		}
	}
	if pb := e.sys.CrossPort(b); pb >= 0 {
		if l := f.Routers[b].Out[pb].Link; l != nil && l.Dst.Node == a {
			lb = l
		}
	}
	return la, lb
}

// pollDrains decommissions condemned channels whose stranded traffic has
// fully drained.
func (e *Engine) pollDrains(now int64) {
	if len(e.pending) == 0 {
		return
	}
	kept := e.pending[:0]
	for _, pd := range e.pending {
		if e.drained(pd) {
			e.sys.DecommissionCrossLink(pd.a, pd.b)
			e.Stats.LinksDecommissioned++
			e.record(Record{
				Cycle: now, Kind: KindDecommission, A: pd.a, B: pd.b,
				Detail: "stranded traffic drained; interface fully decommissioned",
			})
		} else {
			kept = append(kept, pd)
		}
	}
	e.pending = kept
}

// drained reports whether nothing in flight still needs the condemned
// channel: both directions quiesced, no packet mid-transfer onto either,
// and no packet buffered past every surviving member of either endpoint's
// group that must exit through it.
func (e *Engine) drained(pd pendingDrain) bool {
	for _, l := range [2]*router.Link{pd.la, pd.lb} {
		if l == nil {
			continue
		}
		if !l.Quiesced() {
			return false
		}
		for _, owner := range l.Src.Out[l.SrcPort].Owner {
			if owner != nil {
				return false
			}
		}
	}
	return !e.stranded(pd.a) && !e.stranded(pd.b)
}

// stranded reports whether some in-flight packet on endpoint's chiplet has
// overshot every surviving member of its exit group and therefore still
// needs the condemned interface as its fallback exit: a packet buffered at
// (or on a wire into) a ring position past the group's last survivor whose
// exit group is the endpoint's.
func (e *Engine) stranded(endpoint int) bool {
	sys := e.sys
	n := &sys.Nodes[endpoint]
	c, g := n.Chiplet, n.Group
	maxPos := -1
	for _, id := range sys.Chiplets[c].Groups[g] {
		if pos := sys.Nodes[id].RingPos; pos > maxPos {
			maxPos = pos
		}
	}
	ring := sys.Chiplets[c].Ring
	found := false
	check := func(p *packet.Packet) {
		if !found {
			if g2, ok := e.planner.ExitGroup(c, p); ok && g2 == g {
				found = true
			}
		}
	}
	for pos := maxPos + 1; pos < len(ring) && !found; pos++ {
		r := sys.Fabric.Routers[ring[pos]]
		for _, ip := range r.In {
			for _, vc := range ip.VCs {
				vc.ForEachPacket(check)
			}
			if ip.Link != nil {
				ip.Link.ForEachInFlight(check)
			}
		}
	}
	return found
}

// Finish completes the statistics after the run: totalInjected is the
// number of packets the traffic generator created (measured or not),
// inFlight the packets still in the network when simulation stopped.
func (e *Engine) Finish(totalInjected uint64, inFlight int) {
	e.Stats.DeliveredPackets = len(e.seen)
	e.Stats.LostPackets = int(totalInjected) - len(e.seen) - inFlight
	for _, l := range e.sys.Fabric.Links {
		if l.Rel == nil {
			continue
		}
		e.Stats.CorruptedFlits += l.Rel.CorruptedFlits
		e.Stats.CorruptedBundles += l.Rel.CorruptedBundles
		e.Stats.Retransmissions += l.Rel.Retransmissions
		e.Stats.Nacks += l.Rel.Nacks
	}
	if e.dropped > 0 {
		e.Log = append(e.Log, Record{
			Kind:   KindCorrupt,
			Detail: fmt.Sprintf("%d further corruption events not logged (LogCap %d)", e.dropped, e.cfg.LogCap),
		})
	}
}

// record appends to the event log; corruption records are capped at
// LogCap, structural records always kept.
func (e *Engine) record(r Record) {
	if r.Kind == KindCorrupt && len(e.Log) >= e.cfg.LogCap {
		e.dropped++
		return
	}
	e.Log = append(e.Log, r)
}
