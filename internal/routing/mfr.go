package routing

import (
	"fmt"

	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/topology"
)

// Mode selects how deadlock freedom is enforced.
type Mode int

const (
	// DuatoEscape reserves VC0 as the MFR/NFR escape sub-network and uses
	// the remaining VCs as adaptive channels (Lemma 1).
	DuatoEscape Mode = iota
	// SafeUnsafe routes shortest paths on all VCs and relies on the
	// safe/unsafe flow-control policy at VC allocation (Algorithm 5).
	// The fabric's SafeUnsafe flag must be enabled alongside this mode.
	SafeUnsafe
)

func (m Mode) String() string {
	if m == SafeUnsafe {
		return "safe-unsafe"
	}
	return "duato-escape"
}

// Options configures routing construction.
type Options struct {
	Mode Mode
	// DisableNDMeshVCSeparation turns off the Theorem-1 VC separation of
	// d+/d- packets in nD-mesh interface segments. Only useful to
	// demonstrate why the separation exists; leave false for correct
	// operation. Requires AllowUnsafe.
	DisableNDMeshVCSeparation bool
	// AllowUnsafe opts into configurations whose escape sub-network is not
	// certified deadlock-free: the nD-mesh equal-channel mode above and
	// Duato-escape routing on irregular custom topologies. New rejects
	// them otherwise. The static verifier (internal/verify) and its
	// negative test fixtures exercise these modes through this opt-in.
	AllowUnsafe bool
}

// exitPlan describes, for a packet that must still leave its current
// chiplet, the interface group it should exit through and the admissible
// ring-position window for this stage.
type exitPlan struct {
	group int
	// segLo/segHi bound the ring positions a packet may occupy while in
	// this stage; positions above segHi have no legal escape continuation.
	segLo, segHi int
	// vcClass is the escape VC used on the chiplet-to-chiplet hop and on
	// ring hops inside [segLo, segHi] (nD-mesh d+/d- separation).
	vcClass int
	// bothWays permits plus-direction (decreasing position) rides toward
	// the exit group (nD-mesh within-segment moves, tree downward moves).
	bothWays bool
}

// chipletLogic is the per-topology policy consumed by the shared MFR
// machinery.
type chipletLogic interface {
	// exit plans the next chiplet-level hop for a packet at chiplet cv
	// whose destination chiplet differs.
	exit(cv int, p *packet.Packet) exitPlan
	// incomingMinusAllowed reports whether destination-chiplet ring rides
	// may use the minus direction (dragonfly restricts rides to plus to
	// keep its cross-channel dependencies acyclic).
	incomingMinusAllowed() bool
}

// mfr implements router.Routing for all grouped chiplet topologies.
type mfr struct {
	sys   *topology.System
	logic chipletLogic
	mode  Mode
	vcs   int
	// adaptiveMask covers VC1..VCn-1; zero when only one VC exists.
	adaptiveMask uint32
	ringLen      int
}

var _ router.Routing = (*mfr)(nil)

func newMFR(sys *topology.System, logic chipletLogic, opt Options) *mfr {
	vcs := sys.LP.VCs
	return &mfr{
		sys:          sys,
		logic:        logic,
		mode:         opt.Mode,
		vcs:          vcs,
		adaptiveMask: router.VCMaskAll(vcs) &^ 1,
		ringLen:      sys.Geo.RingLen(),
	}
}

func (m *mfr) node(id int) *topology.Node { return &m.sys.Nodes[id] }

// pick selects a group member by interleave tag.
func pick(members []int, tag int) int {
	return members[interleave.Index(len(members), tag)]
}

// exitPick selects the exit member of a group honoring the interleave
// tag; fromCore applies the core-reachability rule (a member at ring
// position 0 is unreachable from a core by minus-only moves).
func (m *mfr) exitPick(members []int, fromCore bool, tag int) int {
	if fromCore && len(members) > 1 && m.node(members[0]).RingPos == 0 {
		members = members[1:]
	}
	return pick(members, tag)
}

// markRerouted flags p as rerouted when fault-driven group degradation
// changed its exit selection: the member chosen from the current
// membership differs from what the pre-fault membership (BaseGroups)
// would have picked. No-op outside fault injection (BaseGroups nil), so
// fault-free runs stay bit-identical.
func (m *mfr) markRerouted(cv, group int, fromCore bool, chosen int, p *packet.Packet) {
	if p.Rerouted || m.sys.BaseGroups == nil {
		return
	}
	base := m.sys.BaseGroups[cv][group]
	if len(base) == len(m.sys.Chiplets[cv].Groups[group]) {
		return // group intact; selection cannot have changed
	}
	if m.exitPick(base, fromCore, p.Tag) != chosen {
		p.Rerouted = true
	}
}

// selectExit chooses the physical interface node of the planned exit group
// that packet p should leave chiplet cv through, honoring the interleave
// tag where the minus-first discipline allows.
func (m *mfr) selectExit(v, cv int, plan exitPlan, p *packet.Packet) int {
	e, ok := m.selectExitStrict(v, cv, plan, p)
	if !ok {
		panic(fmt.Sprintf("routing: node %d (ring pos %d) is beyond exit group %d of chiplet %d",
			v, m.node(v).RingPos, plan.group, cv))
	}
	return e
}

// selectExitStrict picks the exit member reachable under the minus-first
// discipline; ok is false when v has overshot a minus-only group — a state
// that only arises for packets roaming under safe/unsafe shortest-path
// routing (they are unsafe there by Definition 4).
func (m *mfr) selectExitStrict(v, cv int, plan exitPlan, p *packet.Packet) (int, bool) {
	members := m.sys.Chiplets[cv].Groups[plan.group]
	if len(members) == 0 {
		panic(fmt.Sprintf("routing: chiplet %d group %d has no linked interfaces", cv, plan.group))
	}
	nv := m.node(v)
	if nv.RingPos < 0 {
		// Cores reach the ring at positions >= 1 by minus-only moves, so
		// a member at ring position 0 is unreachable from a core.
		e := m.exitPick(members, true, p.Tag)
		m.markRerouted(cv, plan.group, true, e, p)
		return e, true
	}
	e := m.exitPick(members, false, p.Tag)
	m.markRerouted(cv, plan.group, false, e, p)
	if plan.bothWays || m.node(e).RingPos >= nv.RingPos {
		return e, true
	}
	// The tagged member is behind us on a minus-only ride: exit at the
	// nearest member at or ahead of our position instead.
	for _, mem := range members {
		if m.node(mem).RingPos >= nv.RingPos {
			return mem, true
		}
	}
	// A failure may have removed every member at or ahead of us after the
	// packet committed to its ride: fall back to a condemned interface,
	// kept physically usable exactly for these stragglers.
	if len(m.sys.Condemned) > 0 {
		if fb, ok := m.sys.FallbackExit(cv, plan.group, nv.RingPos); ok {
			p.Rerouted = true
			return fb, true
		}
	}
	return -1, false
}

// coreToRingStep returns the next hop of the minus-only path from core node
// v to a ring entry at position <= targetPos (CORE_TO_IF of Algorithm 3):
// mesh-negative moves to the chosen boundary entry, then the caller's ride
// covers the rest.
func (m *mfr) coreToRingStep(v, targetPos int) int {
	nv := m.node(v)
	x, y := nv.X, nv.Y
	P := m.ringLen
	if targetPos < 1 {
		targetPos = 1
	}
	// Bottom-row entry (eb, 0) at ring position eb.
	eb := min(x, targetPos)
	costB := (x - eb) + y + (targetPos - eb)
	// Left-column entry (0, bl) at ring position P-bl, feasible when the
	// reachable left window [P-y, P-1] starts at or below targetPos.
	useLeft := false
	var bl, costL int
	if P-y <= targetPos {
		el := min(targetPos, P-1)
		bl = P - el
		costL = x + (y - bl) + (targetPos - el)
		useLeft = costL < costB
	}
	var dir topology.Dir
	if useLeft {
		if y > bl {
			dir = topology.DirYMinus
		} else {
			dir = topology.DirXMinus
		}
	} else {
		if x > eb {
			dir = topology.DirXMinus
		} else {
			dir = topology.DirYMinus
		}
	}
	return m.meshNeighbor(v, dir)
}

func (m *mfr) meshNeighbor(v int, d topology.Dir) int {
	port := m.sys.MeshPort(v, d)
	if port < 0 {
		panic(fmt.Sprintf("routing: node %d has no %v port", v, d))
	}
	return m.node(v).Ports[port].To
}

// adjCore returns the core node adjacent to ring node v (stepping off the
// ring into the mesh interior), or -1 for corner nodes.
func (m *mfr) adjCore(v int) int {
	nv := m.node(v)
	g := m.sys.Geo
	x, y := nv.X, nv.Y
	switch {
	case y == 0 && x >= 1 && x <= g.W-2:
		return m.sys.NodeID(nv.Chiplet, x, 1)
	case y == g.H-1 && x >= 1 && x <= g.W-2:
		return m.sys.NodeID(nv.Chiplet, x, g.H-2)
	case x == 0 && y >= 1 && y <= g.H-2:
		return m.sys.NodeID(nv.Chiplet, 1, y)
	case x == g.W-1 && y >= 1 && y <= g.H-2:
		return m.sys.NodeID(nv.Chiplet, g.W-2, y)
	}
	return -1
}

// enterable reports whether ring node v can step off the ring onto a core
// from which the destination core (dx, dy) is reachable by plus-only moves
// (the IF_TO_CORE entry condition of Algorithm 3).
func (m *mfr) enterable(v, dx, dy int) (core int, ok bool) {
	c := m.adjCore(v)
	if c < 0 {
		return -1, false
	}
	nc := m.node(c)
	if nc.X <= dx && nc.Y <= dy {
		return c, true
	}
	return -1, false
}

// rideDistance scans the ring from position from in the given direction
// (without crossing the wrap between positions P-1 and 0) and returns the
// number of steps to the first position satisfying pred, or -1.
func (m *mfr) rideDistance(chip, from int, minus bool, pred func(node int) bool) int {
	ring := m.sys.Chiplets[chip].Ring
	if minus {
		for p, d := from+1, 1; p < len(ring); p, d = p+1, d+1 {
			if pred(ring[p]) {
				return d
			}
		}
	} else {
		for p, d := from-1, 1; p >= 0; p, d = p-1, d+1 {
			if pred(ring[p]) {
				return d
			}
		}
	}
	return -1
}

// escapeStep computes the next hop and escape VC index of the deadlock-free
// escape path for packet p at node v (v != p.Dst). This realizes MFR among
// chiplets (Algorithm 2), MFR within a chiplet (Algorithm 3), and the
// hypercube specialization (Algorithm 4), generalized over chipletLogic.
func (m *mfr) escapeStep(v int, p *packet.Packet) (next, vc int) {
	next, vc, ok := m.escapeStepOK(v, p)
	if !ok {
		panic(fmt.Sprintf("routing: node %d has no minus-first continuation for packet %d (src %d dst %d)",
			v, p.ID, p.Src, p.Dst))
	}
	return next, vc
}

// escapeStepOK is escapeStep returning ok=false (instead of panicking)
// from states with no minus-first continuation, which packets can reach
// under safe/unsafe shortest-path routing.
func (m *mfr) escapeStepOK(v int, p *packet.Packet) (next, vc int, ok bool) {
	nv := m.node(v)
	cv := nv.Chiplet
	cd := m.node(p.Dst).Chiplet

	if cv != cd {
		plan := m.logic.exit(cv, p)
		e, okExit := m.selectExitStrict(v, cv, plan, p)
		if !okExit {
			return 0, 0, false
		}
		if v == e {
			port := m.sys.CrossPort(v)
			if port < 0 {
				panic(fmt.Sprintf("routing: exit node %d has no cross port", v))
			}
			return nv.Ports[port].To, plan.vcClass, true
		}
		if nv.RingPos < 0 {
			return m.coreToRingStep(v, m.node(e).RingPos), 0, true
		}
		pe := m.node(e).RingPos
		minus := nv.RingPos < pe
		if !minus && !plan.bothWays {
			return 0, 0, false
		}
		next = m.sys.RingStep(v, minus)
		vc = 0
		if nv.RingPos >= plan.segLo && nv.RingPos <= plan.segHi &&
			m.node(next).RingPos >= plan.segLo && m.node(next).RingPos <= plan.segHi {
			vc = plan.vcClass
		}
		return next, vc, true
	}

	// Destination chiplet reached.
	nd := m.node(p.Dst)
	if nd.RingPos >= 0 {
		// IF destination: core nodes descend onto the ring, ring nodes
		// ride monotonically toward it (never crossing the wrap).
		if nv.RingPos < 0 {
			return m.coreToRingStep(v, nd.RingPos), 0, true
		}
		return m.sys.RingStep(v, nv.RingPos < nd.RingPos), 0, true
	}
	dx, dy := nd.X, nd.Y
	if nv.RingPos < 0 {
		// CORE_TO_CORE: negative-first among the interior cores.
		switch {
		case nv.X > dx:
			return m.meshNeighbor(v, topology.DirXMinus), 0, true
		case nv.Y > dy:
			return m.meshNeighbor(v, topology.DirYMinus), 0, true
		case nv.X < dx:
			return m.meshNeighbor(v, topology.DirXPlus), 0, true
		default:
			return m.meshNeighbor(v, topology.DirYPlus), 0, true
		}
	}
	// IF_TO_CORE: ride until an entry with coordinates <= destination,
	// then step into the core mesh (plus-only from there on).
	if c, okEnter := m.enterable(v, dx, dy); okEnter {
		return c, 0, true
	}
	pred := func(node int) bool {
		_, okEnter := m.enterable(node, dx, dy)
		return okEnter
	}
	dPlus := m.rideDistance(cv, nv.RingPos, false, pred)
	dMinus := -1
	if m.logic.incomingMinusAllowed() {
		dMinus = m.rideDistance(cv, nv.RingPos, true, pred)
	}
	minus := dMinus >= 0 && (dPlus < 0 || dMinus <= dPlus)
	if !minus && dPlus < 0 {
		return 0, 0, false
	}
	return m.sys.RingStep(v, minus), 0, true
}

// admissible reports whether node v is a legal position for packet p: an
// escape continuation exists from v. Core nodes and destination-chiplet
// nodes are always admissible; ring nodes of other chiplets must not have
// overshot the exit window.
func (m *mfr) admissible(v int, p *packet.Packet) bool {
	nv := m.node(v)
	if v == p.Dst || nv.RingPos < 0 {
		return true
	}
	cd := m.node(p.Dst).Chiplet
	if nv.Chiplet == cd {
		return true
	}
	plan := m.logic.exit(nv.Chiplet, p)
	hi := plan.segHi
	if !plan.bothWays {
		// On minus-only rides the packet can only exit through a usable
		// interface at or ahead of its position; link faults may have
		// removed members from the top of the group's static range, but
		// condemned (not yet decommissioned) interfaces still count.
		hi = m.sys.GroupMaxExitPos(nv.Chiplet, plan.group)
	}
	return nv.RingPos <= hi
}

// safetyOverrider lets a topology tighten the Definition-4 safety
// predicate beyond escape-continuation existence. The tree needs this: its
// escape discipline is deadlock-free only thanks to the reserved escape VC,
// so for the safe/unsafe flow control (which reserves nothing) only packets
// whose remaining route is acyclic by construction may count as safe.
type safetyOverrider interface {
	safeNode(v, dstChiplet int) bool
}

// SafeAt implements Definition 4 for the safe/unsafe flow control: the
// packet has a minus-first path *from the current channel*. The channel
// matters: a packet that arrived over a plus channel may not turn back to
// minus, so it is safe only if its remainder is plus-only. Packets that
// arrived over minus or equal channels (or sit in an injection queue) can
// start a fresh minus-then-plus path whenever their position is
// admissible. Safe packets are only a progress guarantee if that
// minus-first path is actually available to them, which is why the
// safe/unsafe candidate sets below always include the escape continuation
// alongside the shortest-path moves.
func (m *mfr) SafeAt(r *router.Router, inPort int, p *packet.Packet) bool {
	if !m.admissible(r.Node, p) {
		return false
	}
	if o, ok := m.logic.(safetyOverrider); ok {
		return o.safeNode(r.Node, m.node(p.Dst).Chiplet)
	}
	if !m.arrivedPlus(r, inPort) {
		return true
	}
	return m.plusOnlyRemainder(r.Node, p)
}

// arrivedPlus classifies the channel the packet occupies: true if the hop
// into this input port was a plus channel (label-increasing).
func (m *mfr) arrivedPlus(r *router.Router, inPort int) bool {
	if inPort == 0 {
		return false // injection queue
	}
	ip := r.In[inPort]
	if ip.Link == nil {
		return false
	}
	a := m.node(ip.Link.Src.Node)
	b := m.node(r.Node)
	if a.Chiplet != b.Chiplet {
		return false // chiplet-to-chiplet channels are equal channels
	}
	switch {
	case a.RingPos >= 0 && b.RingPos >= 0:
		// Plus ring hop: position decreased, or the wrap from the most
		// negative label back to -1.
		return b.RingPos == a.RingPos-1 ||
			(a.RingPos == m.ringLen-1 && b.RingPos == 0)
	case a.RingPos >= 0 && b.RingPos < 0:
		return true // ring -> core entries are plus channels
	case a.RingPos < 0 && b.RingPos < 0:
		return b.Label > a.Label
	default:
		return false // core -> ring is a minus channel
	}
}

// plusOnlyRemainder reports whether the packet can finish its journey
// using plus channels exclusively.
func (m *mfr) plusOnlyRemainder(v int, p *packet.Packet) bool {
	nv := m.node(v)
	nd := m.node(p.Dst)
	if nv.Chiplet != nd.Chiplet {
		return false
	}
	if nv.RingPos < 0 {
		if nd.RingPos >= 0 {
			return false // stepping onto the ring is a minus channel
		}
		return nv.X <= nd.X && nv.Y <= nd.Y
	}
	if nd.RingPos >= 0 {
		return nd.RingPos <= nv.RingPos // plus ride down the ring
	}
	if _, ok := m.enterable(v, nd.X, nd.Y); ok {
		return true
	}
	pred := func(node int) bool {
		_, ok := m.enterable(node, nd.X, nd.Y)
		return ok
	}
	return m.rideDistance(nv.Chiplet, nv.RingPos, false, pred) >= 0
}

// waypoint returns the within-chiplet node the packet is currently heading
// for: its exit interface while chiplets remain to cross, otherwise the
// destination.
func (m *mfr) waypoint(v int, p *packet.Packet) int {
	nv := m.node(v)
	cd := m.node(p.Dst).Chiplet
	if nv.Chiplet == cd {
		return p.Dst
	}
	plan := m.logic.exit(nv.Chiplet, p)
	if m.mode == SafeUnsafe {
		// Shortest-path mode: any member is reachable from anywhere, so
		// the interleave tag is honored unconditionally.
		members := m.sys.Chiplets[nv.Chiplet].Groups[plan.group]
		w := pick(members, p.Tag)
		m.markRerouted(nv.Chiplet, plan.group, false, w, p)
		return w
	}
	return m.selectExit(v, nv.Chiplet, plan, p)
}

func meshDist(a, b *topology.Node) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// productiveMoves appends candidates for every mesh move that reduces the
// distance to the waypoint (and the cross port when standing on the exit
// interface), filtered by admissibility when filter is true. mask selects
// the downstream VCs.
func (m *mfr) productiveMoves(r *router.Router, v int, p *packet.Packet, mask uint32, filter bool, buf []router.Candidate) []router.Candidate {
	if mask == 0 {
		return buf
	}
	nv := m.node(v)
	w := m.waypoint(v, p)
	if w == v {
		// Standing on the exit interface: the productive move is the
		// chiplet-to-chiplet hop. nD-mesh cross channels are reserved for
		// the direction-separated escape classes, so no adaptive mask
		// bits may remain after intersecting.
		port := m.sys.CrossPort(v)
		crossMask := mask & m.crossMask(v, p)
		if port >= 0 && crossMask != 0 {
			buf = append(buf, router.Candidate{Port: port, VCMask: crossMask})
		}
		return buf
	}
	nw := m.node(w)
	d0 := meshDist(nv, nw)
	for pi, pt := range nv.Ports {
		if pt.Dir == topology.DirLocal || pt.Dir == topology.DirCross || pt.OffChip {
			continue
		}
		nn := m.node(pt.To)
		if meshDist(nn, nw) >= d0 {
			continue
		}
		if filter && !m.admissible(pt.To, p) {
			continue
		}
		buf = append(buf, router.Candidate{Port: pi, VCMask: mask})
	}
	return buf
}

// crossMask returns the VC mask usable adaptively on the cross port at v
// for packet p: everything but VC0 normally; nothing when the topology
// reserves cross VCs for escape classes (nD-mesh and its torus variant).
func (m *mfr) crossMask(v int, p *packet.Packet) uint32 {
	if m.mode == SafeUnsafe {
		return router.VCMaskAll(m.vcs)
	}
	if m.sys.Kind == topology.NDMesh || m.sys.Kind == topology.NDTorus {
		return 0
	}
	return m.adaptiveMask
}

// adaptiveExtras lets a topology offer an additional adaptive-only exit
// plan (the torus wrap channel). The extra plan must keep the packet
// inside the primary plan's admissible region so the escape continuation
// survives. Returned by value: the shared logic instance is consulted
// concurrently under the islands engine.
type adaptiveExtras interface {
	extraExit(cv int, p *packet.Packet) (exitPlan, bool)
}

// extraMoves appends adaptive candidates steering toward an extra exit
// plan: mesh moves toward the selected exit member, or the cross hop when
// standing on it.
func (m *mfr) extraMoves(r *router.Router, v int, p *packet.Packet, plan exitPlan, filter bool, buf []router.Candidate) []router.Candidate {
	nv := m.node(v)
	if len(m.sys.Chiplets[nv.Chiplet].Groups[plan.group]) == 0 {
		return buf
	}
	e := m.selectExit(v, nv.Chiplet, plan, p)
	if v == e {
		port := m.sys.CrossPort(v)
		if port < 0 {
			return buf
		}
		mask := uint32(1) << uint(plan.vcClass)
		if m.mode == SafeUnsafe {
			mask = router.VCMaskAll(m.vcs)
		}
		return append(buf, router.Candidate{Port: port, VCMask: mask})
	}
	mask := m.adaptiveMask
	if m.mode == SafeUnsafe {
		mask = router.VCMaskAll(m.vcs)
	}
	if mask == 0 {
		return buf
	}
	ne := m.node(e)
	d0 := meshDist(nv, ne)
	for pi, pt := range nv.Ports {
		if pt.Dir == topology.DirLocal || pt.Dir == topology.DirCross || pt.OffChip {
			continue
		}
		nn := m.node(pt.To)
		if meshDist(nn, ne) >= d0 {
			continue
		}
		if filter && !m.admissible(pt.To, p) {
			continue
		}
		buf = append(buf, router.Candidate{Port: pi, VCMask: mask})
	}
	return buf
}

// creditScore sums the sender-side credit counters of the masked VCs on an
// output port — the adaptive selection strategy prefers the least congested
// admissible output.
func creditScore(r *router.Router, c router.Candidate) int {
	o := r.Out[c.Port]
	s := 0
	for i, cr := range o.Credits {
		if c.VCMask&(1<<uint(i)) != 0 {
			s += cr
		}
	}
	return s
}

// sortByCreditScore stably sorts candidates in place by descending
// creditScore: the same permutation sort.SliceStable with a greater-than
// comparator produces, but allocation-free (sort.SliceStable goes
// through reflect.Swapper, which allocates in the per-cycle VA hot
// path). Candidate lists are a handful of entries, so the insertion
// sort's quadratic worst case is irrelevant.
func sortByCreditScore(r *router.Router, buf []router.Candidate) {
	for i := 1; i < len(buf); i++ {
		c := buf[i]
		s := creditScore(r, c)
		j := i - 1
		for j >= 0 && creditScore(r, buf[j]) < s {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = c
	}
}

// Candidates implements router.Routing: the raw candidate set with the
// adaptive prefix reordered by live credit score (Duato's protocol prefers
// the least congested admissible output).
func (m *mfr) Candidates(r *router.Router, inPort int, p *packet.Packet, buf []router.Candidate) []router.Candidate {
	base := len(buf)
	buf, nsort := m.RawCandidates(r, p, buf)
	if nsort > 1 {
		sortByCreditScore(r, buf[base:base+nsort])
	}
	return buf
}

// RawCandidates returns the candidate set for packet p at router r before
// the credit-based adaptive reordering: the same candidates Candidates
// yields, in generation order, plus the count of leading candidates the
// Duato adaptive stage reorders by credit score. The candidate SET depends
// only on (node, destination, interleave tag) — never on the input port or
// the credit state — which is what lets the static certifier
// (internal/verify) walk it exhaustively and compile it into flat tables
// (Compiled) whose lookups re-sort the stored prefix against live credits
// and thereby reproduce Candidates bit-for-bit.
func (m *mfr) RawCandidates(r *router.Router, p *packet.Packet, buf []router.Candidate) ([]router.Candidate, int) {
	v := r.Node
	if v == p.Dst {
		return append(buf, router.Candidate{Port: 0, VCMask: router.VCMaskAll(len(r.Out[0].Credits))}), 0
	}

	// When the topology offers extra adaptive-only exits (torus wrap
	// channels on a strictly shorter route), they replace the primary
	// adaptive direction: adaptive channels chase the short wrap route
	// while the escape channel keeps pointing along the mesh, so a
	// congested wrap degrades to the longer path instead of thrashing
	// between the two directions.
	var extraPlan exitPlan
	haveExtra := false
	if extras, ok := m.logic.(adaptiveExtras); ok && m.node(v).Chiplet != m.node(p.Dst).Chiplet {
		extraPlan, haveExtra = extras.extraExit(m.node(v).Chiplet, p)
	}

	if m.mode == SafeUnsafe {
		// Shortest-path candidates on every VC, plus the minus-first
		// escape continuation: Algorithm 5's drain argument needs safe
		// packets to be able to follow their minus-first path when the
		// shortest-path moves are blocked.
		if haveExtra {
			buf = m.extraMoves(r, v, p, extraPlan, false, buf)
		}
		if len(buf) == 0 {
			buf = m.productiveMoves(r, v, p, router.VCMaskAll(m.vcs), false, buf)
		}
		next, _, okEsc := m.escapeStepOK(v, p)
		if !okEsc {
			return buf, 0
		}
		if port := m.sys.PortTo(v, next); port >= 0 {
			dup := false
			for _, c := range buf {
				if c.Port == port {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, router.Candidate{Port: port, VCMask: router.VCMaskAll(m.vcs), Escape: true})
			}
		}
		return buf, 0
	}

	// Duato's protocol: adaptive candidates first (reordered by credit
	// score at lookup time), escape last.
	base := len(buf)
	if haveExtra {
		buf = m.extraMoves(r, v, p, extraPlan, true, buf)
	} else {
		buf = m.productiveMoves(r, v, p, m.adaptiveMask, true, buf)
	}
	nsort := len(buf) - base
	next, vc := m.escapeStep(v, p)
	port := m.sys.PortTo(v, next)
	if port < 0 {
		panic(fmt.Sprintf("routing: escape step %d -> %d is not a link", v, next))
	}
	return append(buf, router.Candidate{Port: port, VCMask: 1 << uint(vc), Escape: true}), nsort
}

// EscapeStep exposes the minus-first escape function for static analysis
// (internal/verify): the next hop and escape VC class for packet p at node
// v, or ok=false from states with no minus-first continuation. It never
// panics and does not mutate routing state.
func (m *mfr) EscapeStep(v int, p *packet.Packet) (next, vc int, ok bool) {
	return m.escapeStepOK(v, p)
}

// EscapeRequired reports whether every state packets can reach must offer
// an escape continuation: true under Duato's protocol, false under the
// safe/unsafe flow control (where packets may roam past the minus-first
// windows and rely on Algorithm 5 instead).
func (m *mfr) EscapeRequired() bool { return m.mode == DuatoEscape }

// RoutesByChiplet declares verify.ChipletRouter: MFR among chiplets
// (Algorithms 2 and 4) picks the exit plan from the current and the
// destination chiplet and the interleave tag, never from the destination
// node, so off the destination chiplet both the candidate set and the
// escape step depend on the destination only through its chiplet.
// TestOffChipletInvariance checks this on every topology family.
func (m *mfr) RoutesByChiplet() bool { return true }

// ExitGroup returns the interface group packet p leaves chiplet cv
// through, or ok=false when cv already is the destination chiplet. The
// fault engine uses it to detect in-flight packets still committed to a
// condemned interface before decommissioning it. It does not mutate
// routing state.
func (m *mfr) ExitGroup(cv int, p *packet.Packet) (group int, ok bool) {
	if m.node(p.Dst).Chiplet == cv {
		return 0, false
	}
	return m.logic.exit(cv, p).group, true
}
