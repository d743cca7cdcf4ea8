// Package verify is the static routing certifier: one exhaustive traversal
// of the (node, destination, tag) state space that proves, before a single
// cycle is simulated, that the routing function installed on a built
// system is deadlock-free, totally reachable, livelock-free and
// VC-disciplined — and that, from the same traversal, feeds the compiled
// per-router routing tables of internal/routing.
//
// The deadlock obligation implements Duato's criterion for virtual
// cut-through switching: a routing function is deadlock-free if its escape
// sub-network C1 — the channels supplied by the escape function — has an
// acyclic extended channel dependency graph. "Extended" means the
// dependency c -> c' is recorded whenever any packet can occupy c (however
// it got there, including via adaptive hops) and its escape function
// supplies c' next; under virtual cut-through a packet holds exactly one
// buffer while requesting the next, so only these direct dependencies
// matter.
//
// The analyzer enumerates routing behavior exhaustively per (destination,
// interleave tag) round in two global passes; only the first traverses the
// rounds and asks the routing function. Tags are
// reduced to equivalence classes first: every tag use in the routing layer
// goes through interleave.Index (tag modulo the group membership size, with
// the core-reachability rule shrinking the modulus by one), so TagClasses
// rounds cover every distinguishable behavior exactly.
//
//  1. a link-level BFS from every injection point over the routing
//     function's candidate sets discovers the reachable states; the escape
//     step of each reachable state contributes its target channel to C1.
//     The same pass checks full reachability (every source reaches the
//     destination in the candidate graph), escape completeness,
//     termination and VC monotonicity of the escape walks (Duato mode),
//     livelock freedom (the adaptive candidate sub-graph of each round
//     must be acyclic, yielding a certified adaptive hop bound), dead-end
//     states, and VC-range discipline. When Options.Sink is set, every
//     visited state's raw candidate set is also streamed out — this is how
//     routing.Compile obtains certified tables from the same traversal.
//     Under Duato's protocol each round also records its potential
//     dependencies for pass 2.
//  2. dependency edges are emitted against the now-complete C1. Under
//     Duato's protocol the extended rule applies: every candidate channel
//     that lies in C1 can be occupied and depends on the occupant's next
//     escape channel at the far node. Pass 2 replays the record pass 1
//     made of those (channel, continuation) pairs and keeps the ones whose
//     channel lies in C1, which is what a second BFS would add. Under the
//     safe/unsafe flow control the escape network is not a reserved
//     resource class, so the analysis certifies the minus-first structure
//     itself (Theorem 1's object, which Definition 4's safety argument
//     relies on): edges chain the consecutive channels of each pure
//     minus-first walk from an injection core to the destination.
//
// Injection channels belong to C1 but no link channel ever feeds them, so
// they cannot participate in a cycle and are left out of the graph.
//
// Pass 1 runs on every CPU: its rounds are split into contiguous blocks
// of destinations, each traversed on its own goroutine with its own
// bookkeeping, and the blocks are merged in round order before pass 2
// (blocks.go), so nothing the analysis reports depends on how many ran.
//
// Some bookkeeping keeps the traversal cheap without changing what it
// reports. Each round memoizes the escape step per node, filled the first
// time the round asks, so EscapeStep is called on the same states in the
// same order as without the memo (and a panicking state panics at the
// same point), and memoizes the escape walk per node (checkEscapeWalk).
// When the routing is a ChipletRouter, each block also memoizes, for the
// destination chiplet its rounds are in, the candidate set and escape step
// of every (node, tag class) off that chiplet (memoFor): the consecutive
// destinations of one chiplet ask the routing function there once.
// Channels are interned to dense int32 ids (pair id times the VC count
// plus the VC), so C1, the CDG adjacency and cycle search run on slices;
// ids turn back into Channel values only in witnesses, and traversal, DFS
// and witness order are unchanged. What the BFS needs of an output port
// (far node, downstream VC count, pair) is read from the fabric once.
//
// The verdict is a structured Report carrying concrete witnesses (in
// deterministic sorted order) when any proof obligation fails, and an
// exportable content-addressable Certificate when all of them hold.
package verify

import (
	"fmt"
	"math/bits"
	"sort"

	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/topology"
)

// EscapeAnalyzer is the interface a routing implementation must expose, on
// top of router.Routing, to be statically analyzable. Both routing
// families in internal/routing (MFR and the flat-mesh NFR baseline)
// implement it.
type EscapeAnalyzer interface {
	router.Routing
	// EscapeStep returns the escape next hop and VC for packet p at node
	// v, or ok=false from states with no escape continuation. It must be
	// side-effect free (Run calls it from several goroutines at once) and
	// must not panic on reachable states.
	EscapeStep(v int, p *packet.Packet) (next, vc int, ok bool)
	// EscapeRequired reports whether deadlock freedom relies on the
	// escape sub-network (Duato's protocol) rather than on flow control.
	EscapeRequired() bool
}

// RawCandidater exposes a routing function's candidate set before any
// credit-based runtime reordering: the same candidates router.Routing's
// Candidates yields, in generation order, plus the count of leading
// candidates the lookup reorders by live credit score. A routing
// implementation must expose it for its tables to be compilable
// (routing.Compile): the stored set plus the re-sortable prefix length is
// exactly what reproduces Candidates bit-for-bit at lookup time. Like
// EscapeStep, it is called from several goroutines at once.
type RawCandidater interface {
	RawCandidates(r *router.Router, p *packet.Packet, buf []router.Candidate) ([]router.Candidate, int)
}

// ChipletRouter is the optional interface of a routing that steers a
// packet by its destination's chiplet until the packet reaches that
// chiplet. RoutesByChiplet returning true declares that at every node
// outside the destination's chiplet the candidate set (RawCandidates, or
// Candidates without it) and EscapeStep depend on the destination only
// through its chiplet, a panic counting as an answer. Run then asks the
// routing once per such (node, tag class) and destination chiplet instead
// of once per destination. A routing that looks at the destination node
// before reaching its chiplet must not declare it.
type ChipletRouter interface {
	RoutesByChiplet() bool
}

// StateSink receives every routing state the certifying traversal visits.
// Pass 1 runs in k blocks of destinations at once (see Run), so the
// states arrive on k streams: Run calls Streams once, before the
// traversal, and block i sends its states, in its traversal order, to the
// i-th stream from one goroutine. Each state belongs to exactly one block
// (its destination does), so a stream never sees another block's states
// and a sink whose streams write only per-state or per-stream storage
// needs no lock. Everything the streams receive for one state comes from
// one round, in the order a single traversal would send it; across states
// the interleaving depends on k.
type StateSink interface {
	Streams(k int) []StateStream
}

// StateStream receives the states of one pass-1 block: node holds a
// packet for destination dst with interleave-tag class tag (in [0,
// TagClasses)), and the routing function offers the raw candidate set
// cands of which the first nsort are credit-sortable. The cands slice is
// reused across calls — implementations must copy what they keep.
// Ejection states (node == dst) are not streamed.
type StateStream interface {
	State(node, dst, tag int, cands []router.Candidate, nsort int)
}

// Options tunes analysis cost. The zero value analyzes everything.
type Options struct {
	// MaxDests bounds the analyzed destination cores (0 = all).
	// Destinations are sampled evenly across the core list, preserving
	// chiplet coverage.
	MaxDests int
	// MaxSources bounds the escape-walk sources per destination (0 =
	// all). Candidate-graph reachability always covers every source.
	MaxSources int
	// MaxWitnesses caps recorded findings per category (default 8).
	MaxWitnesses int
	// Sink, when non-nil, receives every visited routing state with its
	// raw candidate set, one stream per pass-1 block (see StateSink).
	// Requires the routing to implement RawCandidater; the analysis
	// reports Unsupported otherwise. Combine with zero
	// MaxDests/MaxSources for complete tables.
	Sink StateSink
}

// Run statically analyzes the routing installed on sys.Fabric and returns
// the structured verdict. The system must be built but not yet simulated;
// the analysis only reads routing state and does not mutate the fabric.
// Panics escaping the routing function are recovered into Report.Panic.
//
// Pass 1 runs on k = min(GOMAXPROCS, destinations) goroutines, each over
// one contiguous block of the analyzed destinations (see pass1), so the
// routing function's Candidates, RawCandidates and EscapeStep are called
// concurrently and must only read shared state. The blocks are merged in
// round order before pass 2, so the report, the certificate and what the
// sink receives per state do not depend on k.
func Run(sys *topology.System, opt Options) (rep *Report) {
	rep = &Report{Topology: sys.Kind.String()}
	if opt.MaxWitnesses <= 0 {
		opt.MaxWitnesses = 8
	}
	defer func() {
		if p := recover(); p != nil {
			rep.Panic = fmt.Sprint(p)
		}
	}()
	if sys.Fabric == nil || sys.Fabric.Routing == nil {
		rep.Unsupported = "system has no routing installed (build it first)"
		return rep
	}
	rt, ok := sys.Fabric.Routing.(EscapeAnalyzer)
	if !ok {
		rep.Unsupported = fmt.Sprintf("routing %T does not expose EscapeStep for static analysis", sys.Fabric.Routing)
		return rep
	}
	raw, _ := sys.Fabric.Routing.(RawCandidater)
	if opt.Sink != nil && raw == nil {
		rep.Unsupported = fmt.Sprintf("routing %T does not expose RawCandidates for table compilation", sys.Fabric.Routing)
		return rep
	}
	g := newGrid(sys, rt, raw, opt)
	rep.EscapeRequired = rt.EscapeRequired()
	rep.Dests, rep.Tags = len(g.dests), len(g.tags)

	// Pass 1: reachable states, C1, reachability and discipline checks;
	// under Duato's protocol each round also records its link hops.
	a := pass1(g, rep)
	// Pass 2: dependency edges against the now-complete C1.
	a.adj = make([][]int32, len(a.c1))
	a.edges = make(map[uint64]int32)
	if rep.EscapeRequired {
		a.replay()
	} else {
		for i, dst := range a.dests {
			a.memoFor(i, len(a.dests))
			for _, tag := range a.tags {
				a.emitWalkDeps(dst, tag)
			}
		}
	}
	rep.EscapeChannels = a.nc1
	rep.DepEdges = len(a.edgeInfo)
	a.findCycle()
	a.finalize()
	return rep
}

// grid is what every block of the traversal reads and none writes: the
// system and its routing, the analyzed destinations, sources and tags,
// and the channel id grid.
type grid struct {
	sys     *topology.System
	rt      EscapeAnalyzer
	raw     RawCandidater // nil when the routing has no raw accessor
	opt     Options
	routers []*router.Router // indexed by global node id
	chiplet []int32          // node -> chiplet index
	// byChiplet: the routing declares ChipletRouter, so the blocks may
	// memoize its answers off the destination chiplet (memoFor).
	byChiplet bool

	dests, sources, tags []int

	// Channels are interned to dense ids. Port i of node v carries pair
	// pairBase[v]+i (node v owns pairs [pairBase[v], pairBase[v+1])), and
	// channel (v, to, vc) is pair*stride+vc for the first port of v
	// leading to to and vc in [0, stride). A channel off that grid (not a
	// link, or its VC out of range — only a defective escape function
	// names one) gets the next id past the grid from the analyzer's
	// extra. Ids are internal: witnesses convert back to Channel.
	pairBase []int32
	pairFrom []int32    // pair -> owning node
	pairs    []pairInfo // pair -> its output port's link, read once from the fabric
	stride   int32
	ndense   int32
}

// analyzer is one block of pass 1 (see pass1) and, for block 0, the
// whole analysis after it: blocks 1..k-1 merge into it, and it runs
// pass 2, the cycle search and the witness ordering.
type analyzer struct {
	*grid
	rep  *Report
	sink StateStream // this block's stream of opt.Sink, or nil

	// extra numbers the off-grid channels this analyzer has seen, past
	// the grid, in first-seen order (extraCh).
	extra   map[Channel]int32
	extraCh []Channel

	// c1 is the escape sub-network: every channel some escape step
	// targets, indexed by channel id; nc1 counts its members.
	c1  []bool
	nc1 int
	// adj is the CDG adjacency by channel id; order lists its non-empty
	// rows in first-insertion order so cycle detection is deterministic.
	// edges maps from<<32|to to the edge's index in edgeInfo, which holds
	// the first inducing (dst, tag). Pass 2 allocates adj and edges.
	adj      [][]int32
	order    []int32
	edges    map[uint64]int32
	edgeInfo [][2]int

	// The pass-1 record pass 2 replays under Duato's protocol (see
	// replay): rec holds the potential dependencies of all rounds in
	// first-occurrence order, seen per candidate channel 1 + the index in
	// rec of the last entry from it (0: none), and unasked the hops whose
	// continuation pass 1 never asked. nround is the global index of the
	// next pass-1 round (dests-major, tags-minor).
	nround  int32
	rec     []depRec
	seen    []int32
	unasked []linkHop

	// pv is the value a panicking round of this block panicked with.
	pv any

	roundScratch
}

// roundScratch is what one pass-1 round uses and the next one resets.
type roundScratch struct {
	// Per-round escape memo: the round's escape step at node v, filled the
	// first time the round asks for it (escState 0 unknown, escOK,
	// escNone), with the step's channel id in escCh (-1 when its VC is out
	// of range).
	pkt      packet.Packet
	escState []int8
	escNext  []int
	escVC    []int
	escCh    []int32

	// Per-round escape-walk memo (see checkEscapeWalk): walkState 0
	// unknown, walkReach (walkVal = hops to the destination) or walkStuck
	// (walkVal = the node without an escape step the walk ends at), and
	// walkViol, the first node u of the walk whose successor breaks VC
	// order (-1 none).
	walkState []int8
	walkVal   []int32
	walkViol  []int32
	path      []int32

	// hops collects the current round's link hops (see record).
	hops []linkHop

	// The destination-chiplet memo (see memoFor): while memoOn, memo holds
	// per (node, tag class) the routing's answers at the nodes off
	// chiplet memoChip, each valid while its stamp equals memoGen, and
	// memoCands the memoized candidate sets back to back.
	memoOn    bool
	memoChip  int32
	memoGen   uint32
	memo      []offState
	memoCands []router.Candidate

	visited []bool
	mark    []bool
	queue   []int
	radj    [][]int // reverse candidate adjacency (reachability)
	aadj    [][]int // forward adaptive-only adjacency (livelock)
	acolor  []int8
	adepth  []int32
	cands   []router.Candidate
}

// pairInfo is what the traversal needs of one output port: the node its
// link leads to (-1 for the local port), the downstream VC count, and the
// pair channels of the hop are interned under (the first port of the same
// node leading to the same node).
type pairInfo struct {
	far, vcs, first int32
}

// offState is what the destination-chiplet memo keeps of one (node, tag
// class) state off the destination chiplet: its candidate set
// memoCands[lo:hi] with the sortable prefix length nsort, valid while
// candGen is the analyzer's memoGen, and its escape step (ok, next, vc
// and the step's channel id ch, -1 when its VC is out of range), valid
// while escGen is.
type offState struct {
	candGen, escGen uint32
	lo, hi, nsort   int32
	next, vc, ch    int32
	ok              bool
}

// linkHop is one link hop of a pass-1 round: the pair its channels are
// interned under (pairInfo.first) and its candidate VC mask, clipped to
// the downstream VCs and the channel grid.
type linkHop struct {
	pair int32
	mask uint32
}

// depRec is one potential dependency of the extended CDG: candidate
// channel from, if it lies in C1, depends on escape channel to, first
// induced in pass-1 round round (dests-major, tags-minor). prev chains
// the entries from the same channel (see addDepRec). to == contUnasked
// marks a hop whose continuation pass 1 never asked; from then indexes
// analyzer.unasked. 16 bytes, no pointers.
type depRec struct {
	from, to, round, prev int32
}

const (
	escOK   = 1
	escNone = 2

	walkReach = 1
	walkStuck = 2

	contUnasked = -2
)

func newGrid(sys *topology.System, rt EscapeAnalyzer, raw RawCandidater, opt Options) *grid {
	n := len(sys.Nodes)
	g := &grid{
		sys:      sys,
		rt:       rt,
		raw:      raw,
		opt:      opt,
		routers:  make([]*router.Router, n),
		chiplet:  make([]int32, n),
		dests:    sampleInts(sys.Cores, opt.MaxDests),
		sources:  sampleInts(sys.Cores, opt.MaxSources),
		tags:     tagSet(sys),
		pairBase: make([]int32, n+1),
		stride:   int32(max(sys.LP.VCs, 1)),
	}
	for _, r := range sys.Fabric.Routers {
		g.routers[r.Node] = r
	}
	if cr, ok := rt.(ChipletRouter); ok && !noChipletMemo {
		g.byChiplet = cr.RoutesByChiplet()
	}
	for v := range sys.Nodes {
		g.chiplet[v] = int32(sys.Nodes[v].Chiplet)
		g.pairBase[v] = int32(len(g.pairFrom))
		for range sys.Nodes[v].Ports {
			g.pairFrom = append(g.pairFrom, int32(v))
		}
	}
	g.pairBase[n] = int32(len(g.pairFrom))
	g.pairs = make([]pairInfo, len(g.pairFrom))
	for v := range sys.Nodes {
		for i := range sys.Nodes[v].Ports {
			o := g.routers[v].Out[i]
			pi := pairInfo{far: -1, vcs: int32(len(o.Credits)), first: -1}
			if o.Link != nil {
				pi.far = int32(o.Link.Dst.Node)
				pi.first = g.pair(v, o.Link.Dst.Node)
			}
			g.pairs[g.pairBase[v]+int32(i)] = pi
		}
	}
	g.ndense = int32(len(g.pairFrom)) * g.stride
	return g
}

// newAnalyzer returns a pass-1 block over g that reports into rep and
// streams its states into sink.
func newAnalyzer(g *grid, rep *Report, sink StateStream) *analyzer {
	n := len(g.sys.Nodes)
	return &analyzer{
		grid:  g,
		rep:   rep,
		sink:  sink,
		extra: make(map[Channel]int32),
		c1:    make([]bool, g.ndense),
		seen:  make([]int32, g.ndense),
		roundScratch: roundScratch{
			escState:  make([]int8, n),
			escNext:   make([]int, n),
			escVC:     make([]int, n),
			escCh:     make([]int32, n),
			walkState: make([]int8, n),
			walkVal:   make([]int32, n),
			walkViol:  make([]int32, n),
			visited:   make([]bool, n),
			mark:      make([]bool, n),
			queue:     make([]int, 0, n),
			radj:      make([][]int, n),
			aadj:      make([][]int, n),
			acolor:    make([]int8, n),
			adepth:    make([]int32, n),
		},
	}
}

// pair returns the pair id of the first port of from leading to to, or -1.
func (g *grid) pair(from, to int) int32 {
	for i, pt := range g.sys.Nodes[from].Ports {
		if pt.To == to {
			return g.pairBase[from] + int32(i)
		}
	}
	return -1
}

// id returns the id of channel (from, to, vc) given its pair id pr
// (a.pair(from, to)), or -1 for an off-grid channel not yet interned.
func (a *analyzer) id(pr int32, from, to, vc int) int32 {
	if pr >= 0 && vc >= 0 && vc < int(a.stride) {
		return pr*a.stride + int32(vc)
	}
	if id, ok := a.extra[Channel{from, to, vc}]; ok {
		return id
	}
	return -1
}

// intern returns the id of channel (from, to, vc), numbering an off-grid
// channel past the grid the first time it is seen.
func (a *analyzer) intern(from, to, vc int) int32 {
	if id := a.id(a.pair(from, to), from, to, vc); id >= 0 {
		return id
	}
	id := a.ndense + int32(len(a.extraCh))
	ch := Channel{from, to, vc}
	a.extra[ch] = id
	a.extraCh = append(a.extraCh, ch)
	a.c1 = append(a.c1, false)
	if a.adj != nil {
		a.adj = append(a.adj, nil)
	}
	return id
}

// channel converts a channel id back to its Channel.
func (a *analyzer) channel(id int32) Channel {
	if id >= a.ndense {
		return a.extraCh[id-a.ndense]
	}
	pr, vc := id/a.stride, id%a.stride
	from := a.pairFrom[pr]
	return Channel{int(from), a.sys.Nodes[from].Ports[pr-a.pairBase[from]].To, int(vc)}
}

// startRound resets the escape memo and the probe packet for a new
// (destination, tag) round.
func (a *analyzer) startRound(dst, tag int) {
	clear(a.escState)
	a.pkt = packet.Packet{Src: -1, Dst: dst, Tag: tag, Len: 1}
}

// memoFor sets the destination-chiplet memo up for the rounds of
// destination dests[i], whose traversal goes on to dests[i+1] if i+1 < hi.
// The memo is kept while the destination chiplet stays the same and is
// reset when it changes; it is only filled when the routing declares
// ChipletRouter and the chiplet's next destination follows in the same
// traversal, so a traversal that samples one destination per chiplet
// pays nothing for it.
func (a *analyzer) memoFor(i, hi int) {
	c := a.chiplet[a.dests[i]]
	if a.memoOn && a.memoChip == c {
		return
	}
	a.memoOn = a.byChiplet && i+1 < hi && a.chiplet[a.dests[i+1]] == c
	if !a.memoOn {
		return
	}
	if a.memo == nil {
		a.memo = make([]offState, len(a.sys.Nodes)*len(a.tags))
	}
	a.memoChip = c
	a.memoGen++
	a.memoCands = a.memoCands[:0]
}

// offMemo returns the memo entry of the round's state at v, or nil when
// the memo is off or v lies in the destination chiplet. Tags are their
// own class indexes (tagSet).
func (a *analyzer) offMemo(v int) *offState {
	if !a.memoOn || a.chiplet[v] == a.memoChip {
		return nil
	}
	return &a.memo[v*len(a.tags)+a.pkt.Tag]
}

// candidates returns the round's raw candidate set at v and the length of
// its credit-sortable prefix, from the destination-chiplet memo when it
// holds them. The slice is valid until the next call.
func (a *analyzer) candidates(v int) ([]router.Candidate, int) {
	m := a.offMemo(v)
	if m != nil && m.candGen == a.memoGen {
		return a.memoCands[m.lo:m.hi], int(m.nsort)
	}
	nsort := 0
	if a.raw != nil {
		a.cands, nsort = a.raw.RawCandidates(a.routers[v], &a.pkt, a.cands[:0])
	} else {
		a.cands = a.rt.Candidates(a.routers[v], 0, &a.pkt, a.cands[:0])
	}
	if m != nil {
		m.candGen, m.lo, m.nsort = a.memoGen, int32(len(a.memoCands)), int32(nsort)
		a.memoCands = append(a.memoCands, a.cands...)
		m.hi = int32(len(a.memoCands))
	}
	return a.cands, nsort
}

// escape returns the escape step of the round's packet at v. The routing
// function is asked once per state and round, at the point the traversal
// first needs the answer, so a panicking state panics exactly where an
// unmemoized traversal would.
func (a *analyzer) escape(v int) (next, vc int, ok bool) {
	switch a.escState[v] {
	case escOK:
		return a.escNext[v], a.escVC[v], true
	case escNone:
		return 0, 0, false
	}
	var ch int32
	next, vc, ok, ch = a.escapeStep(v)
	if !ok {
		a.escState[v] = escNone
		return next, vc, ok
	}
	a.escState[v], a.escNext[v], a.escVC[v], a.escCh[v] = escOK, next, vc, ch
	return next, vc, ok
}

// escapeStep asks the routing for the escape step at v, or takes it from
// the destination-chiplet memo, with the step's channel id (-1 when its
// VC is out of range).
func (a *analyzer) escapeStep(v int) (next, vc int, ok bool, ch int32) {
	m := a.offMemo(v)
	if m != nil && m.escGen == a.memoGen {
		return int(m.next), int(m.vc), m.ok, m.ch
	}
	next, vc, ok = a.rt.EscapeStep(v, &a.pkt)
	ch = -1
	if ok && vc >= 0 && vc < a.sys.LP.VCs {
		ch = a.intern(v, next, vc)
	}
	if m != nil {
		m.escGen, m.ok, m.next, m.vc, m.ch = a.memoGen, ok, int32(next), int32(vc), ch
	}
	return next, vc, ok, ch
}

// round runs pass 1 of one (destination, tag) round: a BFS over the
// candidate graph from every injection point that grows C1 and runs the
// per-round checks. Under Duato's protocol it also appends the round's
// link hops to the record pass 2 replays (see replay).
func (a *analyzer) round(dst, tag int) {
	a.startRound(dst, tag)
	n := len(a.sys.Nodes)
	for i := 0; i < n; i++ {
		a.visited[i] = false
		a.radj[i] = a.radj[i][:0]
		a.aadj[i] = a.aadj[i][:0]
	}
	queue := a.queue[:0]
	for _, src := range a.sys.Cores {
		if !a.visited[src] {
			a.visited[src] = true
			queue = append(queue, src)
		}
	}
	vcs := a.sys.LP.VCs
	duato := a.rep.EscapeRequired
	grid := router.VCMaskAll(int(a.stride))
	a.hops = a.hops[:0]
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v == dst {
			continue // delivered: no further channel requests
		}
		cands, nsort := a.candidates(v)
		if len(cands) == 0 {
			a.addDeadEnd(StateRef{v, dst, tag})
			continue
		}
		a.rep.States++
		if a.sink != nil {
			a.sink.State(v, dst, tag, cands, nsort)
		}
		if _, evc, eok := a.escape(v); eok {
			if evc < 0 || evc >= vcs {
				a.addVCViolation(fmt.Sprintf("escape VC %d outside [0,%d) at %v",
					evc, vcs, StateRef{v, dst, tag}))
			} else if id := a.escCh[v]; !a.c1[id] {
				a.c1[id] = true
				a.nc1++
			}
		} else if duato {
			a.addMissingEscape(StateRef{v, dst, tag})
		}
		ports := a.pairs[a.pairBase[v]:a.pairBase[v+1]]
		for _, c := range cands {
			pi := ports[c.Port]
			if pi.far < 0 {
				a.addVCViolation(fmt.Sprintf("ejection candidate away from destination at %v",
					StateRef{v, dst, tag}))
				continue
			}
			to := int(pi.far)
			mask := c.VCMask
			if excess := mask &^ router.VCMaskAll(int(pi.vcs)); excess != 0 {
				a.addVCViolation(fmt.Sprintf("candidate VC mask %#x exceeds the %d downstream VCs at %v",
					c.VCMask, pi.vcs, StateRef{v, dst, tag}))
				mask &^= excess
			}
			if duato && to != dst && mask&grid != 0 {
				a.hops = append(a.hops, linkHop{pair: pi.first, mask: mask & grid})
			}
			a.radj[to] = append(a.radj[to], v)
			if !c.Escape {
				a.aadj[v] = append(a.aadj[v], to)
			}
			if !a.visited[to] {
				a.visited[to] = true
				queue = append(queue, to)
			}
		}
	}
	a.queue = queue
	a.checkReach(dst, tag)
	a.checkLivelock(dst, tag)
	if duato {
		a.checkEscapeWalk(dst, tag)
		a.record()
	}
	a.nround++
}

// record appends the round's potential dependencies to the record. Each
// hop's far node has its escape continuation in the round's memo; every
// candidate channel of the hop may depend on it, if the channel turns out
// to lie in C1. A pair already recorded is not recorded again: whether
// it becomes an edge depends only on C1, so its first occurrence decides
// both the edge and the (dst, tag) that induced it. A far node the round
// never asked (a dead end off every escape walk) is recorded as the hop
// itself, for pass 2 to ask.
func (a *analyzer) record() {
	round := a.nround
	for _, h := range a.hops {
		to := a.pairs[h.pair].far
		var cont int32
		switch a.escState[to] {
		case escOK:
			cont = a.escCh[to]
		case escNone:
			cont = -1
		default:
			a.addUnasked(h, round)
			continue
		}
		if cont < 0 {
			continue
		}
		base := h.pair * a.stride
		for m := h.mask; m != 0; m &= m - 1 {
			a.addDepRec(base+int32(bits.TrailingZeros32(m)), cont, round)
		}
	}
}

// addDepRec records the potential dependency from -> to, first induced in
// round, unless it is already recorded: the entries from one channel are
// chained through prev from seen[from], so the check walks only those.
func (a *analyzer) addDepRec(from, to, round int32) {
	for i := a.seen[from]; i != 0; i = a.rec[i-1].prev {
		if a.rec[i-1].to == to {
			return
		}
	}
	a.rec = append(a.rec, depRec{from: from, to: to, round: round, prev: a.seen[from]})
	a.seen[from] = int32(len(a.rec))
}

// addUnasked records hop h of round, whose continuation was never asked.
func (a *analyzer) addUnasked(h linkHop, round int32) {
	a.rec = append(a.rec, depRec{from: int32(len(a.unasked)), to: contUnasked, round: round})
	a.unasked = append(a.unasked, h)
}

// replay is pass 2 under Duato's protocol: the extended CDG. A packet can
// occupy any candidate channel; from one that lies in C1 its next request
// is its escape continuation at the far node. Replaying the pass-1 record
// against the now-complete C1 adds the edges a second BFS over every
// round would add, in the same order and with the same (dst, tag),
// without asking the routing function again — except for the unasked
// hops, asked here where that second traversal would first have asked
// them.
func (a *analyzer) replay() {
	for _, e := range a.rec {
		dst, tag := a.dests[int(e.round)/len(a.tags)], a.tags[int(e.round)%len(a.tags)]
		if e.to != contUnasked {
			if a.c1[e.from] {
				a.addDep(e.from, e.to, dst, tag)
			}
			continue
		}
		h := a.unasked[e.from]
		a.pkt = packet.Packet{Src: -1, Dst: dst, Tag: tag, Len: 1}
		to := int(a.pairs[h.pair].far)
		nn, nvc, ok := a.rt.EscapeStep(to, &a.pkt)
		if !ok || nvc < 0 || nvc >= a.sys.LP.VCs {
			continue
		}
		tgt := a.intern(to, nn, nvc)
		base := h.pair * a.stride
		for m := h.mask; m != 0; m &= m - 1 {
			if ch := base + int32(bits.TrailingZeros32(m)); a.c1[ch] {
				a.addDep(ch, tgt, dst, tag)
			}
		}
	}
}

// checkReach verifies every core can reach dst in the candidate graph, via
// a reverse BFS from dst over the reverse adjacency the round recorded.
func (a *analyzer) checkReach(dst, tag int) {
	n := len(a.sys.Nodes)
	for i := 0; i < n; i++ {
		a.mark[i] = false
	}
	a.mark[dst] = true
	queue := append(a.queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		for _, u := range a.radj[queue[head]] {
			if !a.mark[u] {
				a.mark[u] = true
				queue = append(queue, u)
			}
		}
	}
	a.queue = queue
	for _, src := range a.sys.Cores {
		if src != dst && !a.mark[src] {
			a.addUnreach(ReachFailure{Src: src, Dst: dst, Tag: tag,
				Reason: "no admissible candidate path"})
		}
	}
}

// checkLivelock proves livelock freedom of one round: the adaptive
// (non-escape) candidate sub-graph must be acyclic, so any run of
// consecutive adaptive hops is bounded by its longest path. A cycle is a
// non-progress witness — adaptive candidates could forward a packet around
// it forever. Escape candidates are excluded: their progress is certified
// by checkEscapeWalk's termination bound, and a packet alternating between
// the two networks still terminates because every adaptive placement
// re-offers the terminating escape continuation.
func (a *analyzer) checkLivelock(dst, tag int) {
	n := len(a.sys.Nodes)
	for i := 0; i < n; i++ {
		a.acolor[i] = 0
		a.adepth[i] = 0
	}
	var stack []int
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		a.acolor[v] = 1
		stack = append(stack, v)
		best := int32(0)
		for _, to := range a.aadj[v] {
			switch a.acolor[to] {
			case 1:
				i := len(stack) - 1
				for i > 0 && stack[i] != to {
					i--
				}
				cycle = append(cycle, stack[i:]...)
				return true
			case 0:
				if dfs(to) {
					return true
				}
			}
			if d := a.adepth[to] + 1; d > best {
				best = d
			}
		}
		stack = stack[:len(stack)-1]
		a.acolor[v] = 2
		a.adepth[v] = best
		return false
	}
	for v := 0; v < n; v++ {
		if a.acolor[v] != 0 || len(a.aadj[v]) == 0 {
			continue
		}
		if dfs(v) {
			a.addLivelock(LivelockCycle{Dst: dst, Tag: tag, Nodes: rotateMin(cycle)})
			return // one witness per round
		}
		if d := int(a.adepth[v]); d > a.rep.AdaptiveHopBound {
			a.rep.AdaptiveHopBound = d
		}
	}
}

// rotateMin rotates a cycle in place so the smallest node id leads,
// making witnesses independent of the DFS entry point.
func rotateMin(cycle []int) []int {
	if len(cycle) == 0 {
		return cycle
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[min:]...)
	return append(out, cycle[:min]...)
}

// checkEscapeWalk verifies the escape function alone delivers every packet
// (termination, hence the escape sub-network's own livelock freedom),
// records the longest walk as the certified escape hop bound, and checks
// Theorem 1's VC discipline along the way: within one chiplet the escape
// VC class must be non-decreasing (a packet may climb from the d- class to
// the d+ class but never back), with the cross-chiplet hop resetting the
// ordering for the next chiplet. Each source reports at most its first
// violation.
//
// Escape is a function of the node within a round, so the walk from a
// node is the same whichever source reached it. A walk that ends — at the
// destination or at a node without an escape step — memoizes, for every
// node it stepped from, its length or end node and the first violation
// further on; a later walk stops at the first memoized node, after that
// node's own check (which depends on the hop into it), and takes the rest
// from the memo. The findings, their order and the EscapeStep calls are
// those of walking every source to the end. A walk that exhausts the bound
// (an escape cycle) memoizes nothing.
func (a *analyzer) checkEscapeWalk(dst, tag int) {
	bound := 4 * len(a.sys.Nodes)
	clear(a.walkState)
	for _, src := range a.sources {
		if src == dst {
			continue
		}
		path := a.path[:0]
		v, join, ended := src, -1, false
		steps, prevVC, checkVC := 0, -1, true
		for step := 0; step <= bound; step++ {
			if v == dst {
				ended = true
				break
			}
			next, vc, ok := a.escape(v)
			if !ok {
				ended = true
				break
			}
			if checkVC && prevVC >= 0 && vc < prevVC {
				a.addEscapeOrderViolation(v, vc, prevVC, dst, tag)
				checkVC = false
			}
			if a.walkState[v] != 0 {
				join, ended = v, true
				break
			}
			if a.chiplet[v] != a.chiplet[next] {
				prevVC = -1
			} else {
				prevVC = vc
			}
			path = append(path, int32(v))
			v = next
			steps++
		}
		a.path = path
		state, val, viol := int8(walkReach), int32(0), int32(-1)
		switch {
		case join >= 0:
			state, val, viol = a.walkState[join], a.walkVal[join], a.walkViol[join]
			if checkVC && viol >= 0 {
				u := int(viol)
				s := a.escNext[u]
				a.addEscapeOrderViolation(s, a.escVC[s], a.escVC[u], dst, tag)
			}
		case v != dst: // no escape step at v, or the bound ran out there
			state, val = walkStuck, int32(v)
		}
		if state == walkReach {
			if total := steps + int(val); total > a.rep.EscapeHopBound {
				a.rep.EscapeHopBound = total
			}
		} else {
			a.addUnreach(ReachFailure{Src: src, Dst: dst, Tag: tag,
				Reason: fmt.Sprintf("escape walk does not terminate (stuck near node %d)", val)})
		}
		if !ended {
			continue // an escape cycle: its nodes have no end to memoize
		}
		for i := len(path) - 1; i >= 0; i-- {
			u := path[i]
			if state == walkReach {
				val++
			}
			if a.descends(int(u), dst) {
				viol = u
			}
			a.walkState[u], a.walkVal[u], a.walkViol[u] = state, val, viol
		}
	}
}

// descends reports whether the escape walk breaks VC order at u's
// successor s: the walk goes on from s (s is not the destination and has
// an escape step), s lies in u's chiplet, and s's escape VC is below u's
// non-negative one. Both steps must already be in the round's memo.
func (a *analyzer) descends(u, dst int) bool {
	s := a.escNext[u]
	return s != dst && a.escState[s] == escOK && a.chiplet[u] == a.chiplet[s] &&
		a.escVC[u] >= 0 && a.escVC[s] < a.escVC[u]
}

func (a *analyzer) addEscapeOrderViolation(v, vc, prevVC, dst, tag int) {
	a.addVCViolation(fmt.Sprintf("escape VC class not monotone within chiplet: vc%d after vc%d at %v",
		vc, prevVC, StateRef{v, dst, tag}))
}

// emitWalkDeps emits the safe/unsafe-mode CDG edges for one (destination,
// tag) round: the consecutive-channel dependencies of every pure
// minus-first walk from an injection core to the destination. Adaptive
// placements are deliberately excluded — under the safe/unsafe flow
// control packets off the minus-first structure are throttled by
// Algorithm 5, not by channel ordering, so only the structure's own
// acyclicity is the certifiable property.
func (a *analyzer) emitWalkDeps(dst, tag int) {
	a.startRound(dst, tag)
	bound := 4 * len(a.sys.Nodes)
	for _, src := range a.sys.Cores {
		if src == dst {
			continue
		}
		v := src
		prev := int32(-1)
		steps, prevVC, checkVC := 0, -1, true
		for step := 0; step <= bound && v != dst; step++ {
			next, vc, ok := a.escape(v)
			if !ok {
				break
			}
			if checkVC && prevVC >= 0 && vc < prevVC {
				a.addEscapeOrderViolation(v, vc, prevVC, dst, tag)
				checkVC = false
			}
			if a.chiplet[v] != a.chiplet[next] {
				prevVC = -1
			} else {
				prevVC = vc
			}
			cur := a.intern(v, next, vc)
			if prev >= 0 {
				a.addDep(prev, cur, dst, tag)
			}
			prev = cur
			v = next
			steps++
		}
		if v == dst && steps > a.rep.EscapeHopBound {
			a.rep.EscapeHopBound = steps
		}
	}
}

func (a *analyzer) addDep(from, to int32, dst, tag int) {
	key := uint64(from)<<32 | uint64(to)
	if _, ok := a.edges[key]; ok {
		return
	}
	a.edges[key] = int32(len(a.edgeInfo))
	a.edgeInfo = append(a.edgeInfo, [2]int{dst, tag})
	if len(a.adj[from]) == 0 {
		a.order = append(a.order, from)
	}
	a.adj[from] = append(a.adj[from], to)
}

// findCycle runs a deterministic DFS (roots in first-insertion order) over
// the CDG and records the first cycle found as the witness.
func (a *analyzer) findCycle() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(a.adj))
	var stack []int32
	var cycle []int32
	var dfs func(c int32) bool
	dfs = func(c int32) bool {
		color[c] = gray
		stack = append(stack, c)
		for _, nx := range a.adj[c] {
			switch color[nx] {
			case gray:
				i := len(stack) - 1
				for i > 0 && stack[i] != nx {
					i--
				}
				cycle = append(cycle, stack[i:]...)
				return true
			case white:
				if dfs(nx) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
		return false
	}
	for _, root := range a.order {
		if color[root] == white && dfs(root) {
			break
		}
	}
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		meta := a.edgeInfo[a.edges[uint64(from)<<32|uint64(to)]]
		a.rep.Cycle = append(a.rep.Cycle, DepEdge{From: a.channel(from), To: a.channel(to), Dst: meta[0], Tag: meta[1]})
	}
}

// room reports whether another finding may be recorded in a slice of the
// current length, counting overflow into Truncated.
func (a *analyzer) room(have int) bool {
	if have < a.opt.MaxWitnesses {
		return true
	}
	a.rep.Truncated++
	return false
}

func (a *analyzer) addDeadEnd(s StateRef) {
	if a.room(len(a.rep.DeadEnds)) {
		a.rep.DeadEnds = append(a.rep.DeadEnds, s)
	}
}

func (a *analyzer) addMissingEscape(s StateRef) {
	if a.room(len(a.rep.MissingEscape)) {
		a.rep.MissingEscape = append(a.rep.MissingEscape, s)
	}
}

func (a *analyzer) addUnreach(f ReachFailure) {
	if a.room(len(a.rep.Unreachable)) {
		a.rep.Unreachable = append(a.rep.Unreachable, f)
	}
}

func (a *analyzer) addVCViolation(msg string) {
	if a.room(len(a.rep.VCViolations)) {
		a.rep.VCViolations = append(a.rep.VCViolations, msg)
	}
}

func (a *analyzer) addLivelock(c LivelockCycle) {
	if a.room(len(a.rep.Livelock)) {
		a.rep.Livelock = append(a.rep.Livelock, c)
	}
}

// finalize puts every witness category into deterministic sorted order
// (stable diffs across runs regardless of discovery order) and rotates the
// CDG cycle witness to a canonical starting edge.
func (a *analyzer) finalize() {
	r := a.rep
	byState := func(s []StateRef) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Dst != s[j].Dst {
				return s[i].Dst < s[j].Dst
			}
			if s[i].Tag != s[j].Tag {
				return s[i].Tag < s[j].Tag
			}
			return s[i].Node < s[j].Node
		})
	}
	byState(r.MissingEscape)
	byState(r.DeadEnds)
	sort.Slice(r.Unreachable, func(i, j int) bool {
		a, b := r.Unreachable[i], r.Unreachable[j]
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Reason < b.Reason
	})
	sort.Slice(r.Livelock, func(i, j int) bool {
		a, b := r.Livelock[i], r.Livelock[j]
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		for k := 0; k < len(a.Nodes) && k < len(b.Nodes); k++ {
			if a.Nodes[k] != b.Nodes[k] {
				return a.Nodes[k] < b.Nodes[k]
			}
		}
		return len(a.Nodes) < len(b.Nodes)
	})
	sort.Strings(r.VCViolations)
	r.VCViolations = compactStrings(r.VCViolations)
	if len(r.Cycle) > 1 {
		min := 0
		for i := range r.Cycle {
			if depEdgeLess(r.Cycle[i], r.Cycle[min]) {
				min = i
			}
		}
		rotated := make([]DepEdge, 0, len(r.Cycle))
		rotated = append(rotated, r.Cycle[min:]...)
		r.Cycle = append(rotated, r.Cycle[:min]...)
	}
}

func compactStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func depEdgeLess(a, b DepEdge) bool {
	ka := [8]int{a.From.From, a.From.To, a.From.VC, a.To.From, a.To.To, a.To.VC, a.Dst, a.Tag}
	kb := [8]int{b.From.From, b.From.To, b.From.VC, b.To.From, b.To.To, b.To.VC, b.Dst, b.Tag}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

// TagClasses returns the number L of interleave-tag equivalence classes of
// sys: two tags t, t' with t ≡ t' (mod L) make identical routing decisions
// everywhere, so the traversal's tag rounds [0, L) cover every
// distinguishable behavior exactly (untagged packets, tag < 0, behave as
// class 0). Every tag use in the routing layer reduces the tag modulo a
// group membership size s (interleave.Index), except that the
// core-reachability rule can drop a group's position-0 leader and reduce
// modulo s-1 — so L is the lcm of s and s-1 over all current (and, under
// fault injection, pre-fault) group memberships.
func TagClasses(sys *topology.System) int {
	l := 1
	add := func(s int) {
		if s >= 2 {
			l = lcm(l, s)
		}
	}
	for _, ch := range sys.Chiplets {
		for _, g := range ch.Groups {
			add(len(g))
			add(len(g) - 1)
		}
	}
	for _, groups := range sys.BaseGroups {
		for _, g := range groups {
			add(len(g))
			add(len(g) - 1)
		}
	}
	return l
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tagSet returns one representative tag per equivalence class: [0, L).
func tagSet(sys *topology.System) []int {
	l := TagClasses(sys)
	tags := make([]int, l)
	for i := range tags {
		tags[i] = i
	}
	return tags
}

// sampleInts returns list when max is zero or not binding, else max
// entries sampled evenly (deterministically) across the list.
func sampleInts(list []int, max int) []int {
	if max <= 0 || len(list) <= max {
		return list
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, list[i*len(list)/max])
	}
	return out
}
