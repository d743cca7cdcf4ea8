package chipletnet

import (
	"fmt"
	"slices"
	"testing"

	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

// offChipletAnswer is what the routing says about one state: its raw
// candidate set and sortable prefix, and its escape step, each with the
// text of a panic in place of a value.
type offChipletAnswer struct {
	cands     []router.Candidate
	nsort     int
	candPanic string
	next, vc  int
	ok        bool
	escPanic  string
}

func (a *offChipletAnswer) equal(b *offChipletAnswer) bool {
	return slices.Equal(a.cands, b.cands) && a.nsort == b.nsort && a.candPanic == b.candPanic &&
		a.next == b.next && a.vc == b.vc && a.ok == b.ok && a.escPanic == b.escPanic
}

// askOffChiplet fills ans with the routing's answers at node v for a
// packet to dst with tag tag.
func askOffChiplet(sys *topology.System, v, dst, tag int, ans *offChipletAnswer) {
	rt := sys.Fabric.Routing.(verify.EscapeAnalyzer)
	raw := sys.Fabric.Routing.(verify.RawCandidater)
	func() {
		defer func() {
			if p := recover(); p != nil {
				ans.cands, ans.nsort, ans.candPanic = ans.cands[:0], 0, fmt.Sprint(p)
			}
		}()
		p := packet.Packet{Src: -1, Dst: dst, Tag: tag, Len: 1}
		ans.cands, ans.nsort = raw.RawCandidates(sys.Fabric.Routers[v], &p, ans.cands[:0])
		ans.candPanic = ""
	}()
	func() {
		defer func() {
			if p := recover(); p != nil {
				ans.next, ans.vc, ans.ok, ans.escPanic = 0, 0, false, fmt.Sprint(p)
			}
		}()
		p := packet.Packet{Src: -1, Dst: dst, Tag: tag, Len: 1}
		ans.next, ans.vc, ans.ok = rt.EscapeStep(v, &p)
		ans.escPanic = ""
	}()
}

// offChipletDifferences counts the states (node v, destination core d,
// tag) with v off d's chiplet at which the routing answers differently
// than for the first core of d's chiplet, and describes the first.
func offChipletDifferences(sys *topology.System, tags []int) (diffs, states int, first string) {
	n := len(sys.Nodes)
	ref := make([]offChipletAnswer, n*len(tags))
	var got offChipletAnswer
	refCore := -1
	for _, d := range sys.Cores {
		c := sys.Nodes[d].Chiplet
		if refCore < 0 || sys.Nodes[refCore].Chiplet != c {
			refCore = d
			for v := range n {
				if sys.Nodes[v].Chiplet == c {
					continue
				}
				for i, tag := range tags {
					askOffChiplet(sys, v, d, tag, &ref[v*len(tags)+i])
				}
			}
			continue
		}
		for v := range n {
			if sys.Nodes[v].Chiplet == c {
				continue
			}
			for i, tag := range tags {
				askOffChiplet(sys, v, d, tag, &got)
				states++
				if want := &ref[v*len(tags)+i]; !got.equal(want) {
					if diffs == 0 {
						first = fmt.Sprintf("node %d, destination %d (chiplet %d, first core %d), tag %d: %+v, want %+v",
							v, d, c, refCore, tag, got, *want)
					}
					diffs++
				}
			}
		}
	}
	return diffs, states, first
}

// TestOffChipletInvariance pins the property the certifier's
// destination-chiplet memo relies on (verify.ChipletRouter): at every node
// off the destination's chiplet, RawCandidates (with its sortable prefix)
// and EscapeStep answer for every core of that chiplet what they answer
// for its first core, a panic counting as an answer. Every routing that
// routing.New builds for a grouped topology declares the property and is
// checked on a 16-chiplet shape (dragonfly at 12, its largest), under both
// routing modes, with and without 25 % of the cross links failed, and
// over the tags of each interleaving: "none" tags every packet 0,
// "message" and "packet" draw any tag, which the routing reduces to one
// of the verify.TagClasses classes, so those two are checked on every
// class. The flat-mesh baseline steers by the destination node
// everywhere: it must not declare the property, and it does differ.
func TestOffChipletInvariance(t *testing.T) {
	shapes := []Topology{
		HypercubeTopology(4),
		NDMeshTopology(4, 4),
		NDTorusTopology(4, 4),
		DragonflyTopology(12),
		TreeTopology(16, 4),
		CustomTopology(16, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
			{8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15}, {15, 0}, {0, 8}, {4, 12}, {2, 10}}),
	}
	for _, topo := range shapes {
		for _, mode := range []RoutingMode{RoutingDuato, RoutingSafeUnsafe} {
			for _, faults := range []float64{0, 0.25} {
				cfg := DefaultConfig()
				cfg.Topology, cfg.Routing = topo, mode
				cfg.AllowUnsafeRouting = topo.Kind == "custom" && mode == RoutingDuato
				cfg.CrossLinkFaultFraction, cfg.Seed = faults, 7
				sys, err := Build(cfg)
				if err != nil {
					t.Fatalf("%v %s faults %g: %v", topo, mode, faults, err)
				}
				name := fmt.Sprintf("%v/%s/faults-%g", topo, mode, faults)
				cr, ok := sys.Topo.Fabric.Routing.(verify.ChipletRouter)
				if !ok || !cr.RoutesByChiplet() {
					t.Errorf("%s: routing %T does not declare verify.ChipletRouter", name, sys.Topo.Fabric.Routing)
					continue
				}
				all := make([]int, verify.TagClasses(sys.Topo))
				for i := range all {
					all[i] = i
				}
				for _, il := range []struct {
					name string
					tags []int
				}{{"none", []int{0}}, {"message|packet", all}} {
					diffs, states, first := offChipletDifferences(sys.Topo, il.tags)
					if states == 0 {
						t.Errorf("%s/%s: no off-chiplet states checked", name, il.name)
					}
					if diffs != 0 {
						t.Errorf("%s/%s: %d of %d off-chiplet states differ; first: %s", name, il.name, diffs, states, first)
					}
				}
			}
		}
	}

	cfg := DefaultConfig()
	cfg.Topology = MeshTopology(4, 4)
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Topo.Fabric.Routing.(verify.ChipletRouter); ok {
		t.Errorf("flat-mesh routing %T declares verify.ChipletRouter", sys.Topo.Fabric.Routing)
	}
	if diffs, _, _ := offChipletDifferences(sys.Topo, []int{0}); diffs == 0 {
		t.Error("flat-mesh routing answers alike for every core of a chiplet off it; the check cannot tell")
	}
}
