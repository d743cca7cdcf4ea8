// Package topology builds complete multi-chiplet systems: it instantiates
// one router per NoC node, wires the on-chip 2D meshes, applies interface
// grouping, and connects chiplets into the paper's interconnection
// topologies — flat 2D-mesh (the baseline), nD-mesh, hypercube
// (Algorithm 1), dragonfly (fully connected), and tree (irregular).
//
// A System couples the router fabric with the structural metadata (labels,
// ring order, groups, chiplet coordinates) that the routing algorithms in
// internal/routing consume.
package topology

import (
	"fmt"

	"chipletnet/internal/chiplet"
	"chipletnet/internal/interleave"
	"chipletnet/internal/router"
)

// Kind identifies the chiplet-level interconnection topology.
type Kind int

const (
	// FlatMesh is the baseline: chiplets stitched edge-to-edge into one
	// large 2D mesh (every boundary node links to the facing boundary
	// node of the adjacent chiplet).
	FlatMesh Kind = iota
	// NDMesh connects chiplets into an n-dimensional mesh using 2n
	// interface groups per chiplet.
	NDMesh
	// Hypercube connects 2^n chiplets using n interface groups
	// (paper Algorithm 1).
	Hypercube
	// Dragonfly fully connects n+1 chiplets using n interface groups.
	Dragonfly
	// Tree connects chiplets into a rooted tree (an irregular topology,
	// Fig. 6) with one parent group and per-child groups.
	Tree
	// NDTorus is NDMesh plus per-dimension wrap-around channels
	// (Table I's 2D-torus, generalized). The wrap channels are used by
	// adaptive routing only; the escape sub-network stays on the mesh.
	NDTorus
	// Custom is an arbitrary chiplet-level graph from an edge list
	// (Fig. 6's irregular networks); requires safe/unsafe routing.
	Custom
)

func (k Kind) String() string {
	switch k {
	case FlatMesh:
		return "2D-mesh"
	case NDMesh:
		return "nD-mesh"
	case Hypercube:
		return "hypercube"
	case Dragonfly:
		return "dragonfly"
	case Tree:
		return "tree"
	case NDTorus:
		return "nD-torus"
	case Custom:
		return "custom"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dir is a port direction at a node.
type Dir uint8

const (
	DirLocal  Dir = iota
	DirXPlus      // +x within the chiplet mesh (or across, for FlatMesh)
	DirXMinus     // -x
	DirYPlus      // +y
	DirYMinus     // -y
	DirCross      // chiplet-to-chiplet interface port
	numDirs
)

func (d Dir) String() string {
	switch d {
	case DirLocal:
		return "local"
	case DirXPlus:
		return "x+"
	case DirXMinus:
		return "x-"
	case DirYPlus:
		return "y+"
	case DirYMinus:
		return "y-"
	case DirCross:
		return "cross"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Port describes one (paired input+output) port of a node.
type Port struct {
	Dir     Dir
	To      int // neighbor node id; -1 for the local port
	OffChip bool
}

// Node is the structural metadata of one NoC node.
type Node struct {
	ID      int
	Chiplet int // chiplet index
	X, Y    int // position within the chiplet mesh
	// Label is the MFR routing label: x + y*W for cores, -(ringPos+1)
	// for interface nodes (§III-A).
	Label int
	// RingPos is the position on the chiplet's interface ring,
	// or -1 for core nodes.
	RingPos int
	// Group is the interface group index, or -1 (core or ungrouped IF).
	Group int
	// GroupSlot is the node's index within its group (used by network
	// interleaving to address physical interfaces), or -1.
	GroupSlot int
	// Ports lists the node's ports; the slice index equals the router's
	// port index.
	Ports []Port
}

// Chiplet is the structural metadata of one chiplet instance.
type Chiplet struct {
	Index int
	// Coord is the chiplet's coordinate in the chiplet-level topology:
	// [cx, cy] for FlatMesh, mixed-radix digits for NDMesh, bits for
	// Hypercube, [i] for Dragonfly and Tree.
	Coord []int
	// Nodes maps local node index (y*W+x) to global node id.
	Nodes []int
	// Ring maps ring position to global node id.
	Ring []int
	// Groups maps group index to the member node ids in ring order.
	Groups [][]int
}

// LinkParams configures buffers and links (Table II defaults live in the
// root package).
type LinkParams struct {
	// VCs is the virtual channel count per (non-local) port.
	VCs int
	// InternalBufFlits / InterfaceBufFlits are per-VC input buffer
	// capacities for on-chip and chiplet-to-chiplet receivers.
	InternalBufFlits  int
	InterfaceBufFlits int
	// OnChipBW / OffChipBW are link bandwidths in flits/cycle.
	OnChipBW  int
	OffChipBW int
	// OnChipLatency / OffChipLatency are link latencies in cycles.
	OnChipLatency  int
	OffChipLatency int
	// EjectBW is the local sink consumption rate in flits/cycle.
	EjectBW int
}

// Validate checks the parameters for obvious misconfiguration.
func (lp LinkParams) Validate() error {
	switch {
	case lp.VCs < 1 || lp.VCs > 32:
		return fmt.Errorf("topology: VCs must be in [1,32], got %d", lp.VCs)
	case lp.InternalBufFlits < 1 || lp.InterfaceBufFlits < 1:
		return fmt.Errorf("topology: buffer sizes must be positive")
	case lp.OnChipBW < 1 || lp.OffChipBW < 1:
		return fmt.Errorf("topology: link bandwidths must be positive")
	case lp.OnChipLatency < 1 || lp.OffChipLatency < 1:
		return fmt.Errorf("topology: link latencies must be >= 1")
	case lp.EjectBW < 1:
		return fmt.Errorf("topology: ejection bandwidth must be positive")
	}
	return nil
}

// System is a fully built multi-chiplet network: the router fabric plus the
// structural metadata the routing algorithms need.
type System struct {
	Kind     Kind
	Geo      chiplet.Geometry
	Grouping chiplet.Grouping
	LP       LinkParams

	Fabric   *router.Fabric
	Nodes    []Node
	Chiplets []Chiplet

	// ChipDims is the chiplet-level dimension vector (see Chiplet.Coord).
	ChipDims []int

	// Cores lists all core node ids — the traffic endpoints.
	Cores []int

	// Tree-only: parent chiplet index (-1 for root) and children lists.
	Parent   []int
	Children [][]int

	// DragonflyColor[i][j] is the interface group index chiplet i uses to
	// reach chiplet j (a proper edge coloring of the complete graph), or
	// -1 on the diagonal. Nil for other kinds.
	DragonflyColor [][]int

	// CustomNeighbors[i] lists chiplet i's graph neighbors in ascending
	// order (Custom kind only); group g of chiplet i faces
	// CustomNeighbors[i][g].
	CustomNeighbors [][]int

	// BaseGroups, when non-nil, is the pre-fault snapshot of every
	// chiplet's group membership (BaseGroups[c][g] mirrors
	// Chiplets[c].Groups[g] as built). Taken by SnapshotGroups before the
	// first fault mutates Groups; routing compares against it to detect
	// packets rerouted by degradation.
	BaseGroups [][][]int

	// Condemned marks interface nodes removed from their group (no new
	// exit selections) but not yet decommissioned: the physical link still
	// works and serves as a fallback for packets that had already
	// committed to a ring ride past every surviving member. The fault
	// engine decommissions a condemned interface once no such stranded
	// traffic remains.
	Condemned map[int]bool
}

// NumChiplets returns the chiplet count.
func (s *System) NumChiplets() int { return len(s.Chiplets) }

// NodeID returns the global node id of (x, y) on chiplet c.
func (s *System) NodeID(c, x, y int) int { return s.Chiplets[c].Nodes[s.Geo.Index(x, y)] }

// PortTo returns the port index at node id leading to neighbor to,
// or -1 if not adjacent.
func (s *System) PortTo(id, to int) int {
	for i, p := range s.Nodes[id].Ports {
		if p.To == to {
			return i
		}
	}
	return -1
}

// MeshPort returns the port index of the given mesh direction at node id,
// or -1 if the node has no such port.
func (s *System) MeshPort(id int, d Dir) int {
	for i, p := range s.Nodes[id].Ports {
		if p.Dir == d {
			return i
		}
	}
	return -1
}

// CrossPort returns the index of the chiplet-to-chiplet port at node id,
// or -1.
func (s *System) CrossPort(id int) int {
	for i, p := range s.Nodes[id].Ports {
		if p.Dir == DirCross {
			return i
		}
	}
	return -1
}

// RingStep returns the node one step along the interface ring from id:
// toward increasing ring position (the minus direction) when minus is true,
// else toward decreasing position. It wraps around the ring.
func (s *System) RingStep(id int, minus bool) int {
	n := &s.Nodes[id]
	ring := s.Chiplets[n.Chiplet].Ring
	p := n.RingPos
	if p < 0 {
		panic(fmt.Sprintf("topology: RingStep on core node %d", id))
	}
	if minus {
		p = (p + 1) % len(ring)
	} else {
		p = (p - 1 + len(ring)) % len(ring)
	}
	return ring[p]
}

// GroupRange returns the inclusive ring-position bounds [lo, hi] of group g.
func (s *System) GroupRange(g int) (lo, hi int) {
	lo = s.Grouping.Start[g]
	return lo, lo + s.Grouping.Size[g] - 1
}

// ExitNode returns the node of group g on chiplet c selected by the
// interleave tag; tag < 0 selects slot 0.
func (s *System) ExitNode(c, g, tag int) int {
	members := s.Chiplets[c].Groups[g]
	return members[interleave.Index(len(members), tag)]
}

// GroupMaxExitPos returns the highest ring position at which group g of
// chiplet c still has a usable exit: surviving members plus condemned
// interfaces that remain physically usable as fallbacks. It panics if the
// group has no usable exit at all (a partition the fault API refuses to
// create).
func (s *System) GroupMaxExitPos(c, g int) int {
	max := -1
	for _, id := range s.Chiplets[c].Groups[g] {
		if p := s.Nodes[id].RingPos; p > max {
			max = p
		}
	}
	lo, hi := s.GroupRange(g)
	for p := lo; p <= hi; p++ {
		id := s.Chiplets[c].Ring[p]
		if s.Condemned[id] && p > max {
			max = p
		}
	}
	if max < 0 {
		panic(fmt.Sprintf("topology: group %d of chiplet %d has no usable exit", g, c))
	}
	return max
}

// FallbackExit returns the first usable exit of group g on chiplet c at
// ring position >= fromPos: a surviving member or a condemned-but-usable
// interface. It serves packets that committed to a minus-only ring ride
// before a failure removed the members they were heading for.
func (s *System) FallbackExit(c, g, fromPos int) (node int, ok bool) {
	lo, hi := s.GroupRange(g)
	if fromPos > lo {
		lo = fromPos
	}
	for p := lo; p <= hi; p++ {
		id := s.Chiplets[c].Ring[p]
		if s.Condemned[id] || s.memberOf(c, g, id) {
			return id, true
		}
	}
	return -1, false
}

// memberOf reports whether node id is currently a member of group g on
// chiplet c.
func (s *System) memberOf(c, g, id int) bool {
	for _, m := range s.Chiplets[c].Groups[g] {
		if m == id {
			return true
		}
	}
	return false
}
