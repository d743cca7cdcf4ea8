package topology

import (
	"fmt"

	"chipletnet/internal/chiplet"
)

// BuildFlatMesh builds the baseline: a cx × cy grid of chiplets stitched
// edge-to-edge into one large 2D mesh. Every boundary node links to the
// facing boundary node of the adjacent chiplet over an off-chip link, so
// the system behaves as a (cx·W) × (cy·H) global mesh with non-uniform
// links — the interconnection style of Simba, Dojo and the other flat
// multi-chiplet systems the paper compares against.
func BuildFlatMesh(geo chiplet.Geometry, cx, cy int, lp LinkParams) (*System, error) {
	if cx < 1 || cy < 1 {
		return nil, fmt.Errorf("topology: flat mesh needs positive grid, got %dx%d", cx, cy)
	}
	s, err := newSystem(FlatMesh, geo, cx*cy, chiplet.Grouping{}, lp)
	if err != nil {
		return nil, err
	}
	s.ChipDims = []int{cx, cy}
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			c := j*cx + i
			s.Chiplets[c].Coord = []int{i, j}
			// Stitch to the +x neighbor chiplet.
			if i+1 < cx {
				right := j*cx + (i + 1)
				for y := 0; y < geo.H; y++ {
					a := s.NodeID(c, geo.W-1, y)
					b := s.NodeID(right, 0, y)
					s.addCrossPort(a, b, DirXPlus)
					s.addCrossPort(b, a, DirXMinus)
				}
			}
			// Stitch to the +y neighbor chiplet.
			if j+1 < cy {
				up := (j+1)*cx + i
				for x := 0; x < geo.W; x++ {
					a := s.NodeID(c, x, geo.H-1)
					b := s.NodeID(up, x, 0)
					s.addCrossPort(a, b, DirYPlus)
					s.addCrossPort(b, a, DirYMinus)
				}
			}
		}
	}
	if err := s.wire(); err != nil {
		return nil, err
	}
	return s, nil
}

// GlobalXY returns a node's coordinates in the stitched global mesh
// (FlatMesh only).
func (s *System) GlobalXY(id int) (gx, gy int) {
	n := &s.Nodes[id]
	co := s.Chiplets[n.Chiplet].Coord
	return co[0]*s.Geo.W + n.X, co[1]*s.Geo.H + n.Y
}

// BuildHypercube connects 2^n chiplets into a hypercube per Algorithm 1:
// the interface ring is clustered into n groups, the group index is the
// hypercube dimension, and each chiplet's group j links pairwise (slot by
// slot, preserving labels) to group j of the chiplet whose coordinate
// differs in bit j.
func BuildHypercube(geo chiplet.Geometry, n int, lp LinkParams) (*System, error) {
	if n < 1 || n > 20 {
		return nil, fmt.Errorf("topology: hypercube dimension must be in [1,20], got %d", n)
	}
	gr, err := chiplet.Group(geo.RingLen(), n, false)
	if err != nil {
		return nil, err
	}
	num := 1 << uint(n)
	s, err := newSystem(Hypercube, geo, num, gr, lp)
	if err != nil {
		return nil, err
	}
	s.ChipDims = make([]int, n)
	for j := range s.ChipDims {
		s.ChipDims[j] = 2
	}
	for i := 0; i < num; i++ {
		co := make([]int, n)
		for j := 0; j < n; j++ {
			co[j] = (i >> uint(j)) & 1
		}
		s.Chiplets[i].Coord = co
	}
	for i := 0; i < num; i++ {
		for j := 0; j < n; j++ {
			partner := i ^ (1 << uint(j))
			if partner < i {
				continue // each unordered pair once
			}
			lo, hi := s.GroupRange(j)
			for pos := lo; pos <= hi; pos++ {
				s.addCrossPair(s.Chiplets[i].Ring[pos], s.Chiplets[partner].Ring[pos])
			}
		}
	}
	if err := s.wire(); err != nil {
		return nil, err
	}
	return s, nil
}

// BuildNDMesh connects prod(dims) chiplets into an n-dimensional mesh. The
// ring is clustered into 2n pair-equal groups; group 2j faces the d_j-
// direction and group 2j+1 the d_j+ direction, so each chiplet-to-chiplet
// link joins the positive and negative interfaces of adjacent chiplets in
// the same dimension (§III-C, Fig. 5).
func BuildNDMesh(geo chiplet.Geometry, dims []int, lp LinkParams) (*System, error) {
	return buildNDMeshLike(NDMesh, geo, dims, lp)
}

// BuildNDTorus connects chiplets like BuildNDMesh and adds, for every
// dimension of extent >= 3, a wrap-around channel joining the last
// chiplet's d+ group to the first chiplet's d- group. The wrap channels
// halve the chiplet-level diameter (Table I: 2D-torus diameter sqrt(N));
// the routing layer uses them adaptively only, keeping the mesh escape
// sub-network intact.
func BuildNDTorus(geo chiplet.Geometry, dims []int, lp LinkParams) (*System, error) {
	return buildNDMeshLike(NDTorus, geo, dims, lp)
}

func buildNDMeshLike(kind Kind, geo chiplet.Geometry, dims []int, lp LinkParams) (*System, error) {
	if len(dims) < 1 {
		return nil, fmt.Errorf("topology: %v needs at least one dimension", kind)
	}
	num := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("topology: %v dimensions must be positive, got %v", kind, dims)
		}
		num *= d
	}
	n := len(dims)
	gr, err := chiplet.Group(geo.RingLen(), 2*n, true)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(kind, geo, num, gr, lp)
	if err != nil {
		return nil, err
	}
	s.ChipDims = append([]int(nil), dims...)
	for i := 0; i < num; i++ {
		s.Chiplets[i].Coord = mixedRadix(i, dims)
	}
	for i := 0; i < num; i++ {
		co := s.Chiplets[i].Coord
		for j := 0; j < n; j++ {
			var partner int
			switch {
			case co[j]+1 < dims[j]:
				partner = i + strideOf(dims, j)
			case kind == NDTorus && dims[j] >= 3:
				// Wrap-around: the last chiplet of the dimension links
				// back to the first.
				partner = i - (dims[j]-1)*strideOf(dims, j)
			default:
				continue
			}
			// My d_j+ group (2j+1) links slot-by-slot to the
			// partner's d_j- group (2j).
			plusLo, _ := s.GroupRange(2*j + 1)
			minusLo, _ := s.GroupRange(2 * j)
			for k := 0; k < gr.Size[2*j]; k++ {
				s.addCrossPair(
					s.Chiplets[i].Ring[plusLo+k],
					s.Chiplets[partner].Ring[minusLo+k])
			}
		}
	}
	if err := s.wire(); err != nil {
		return nil, err
	}
	return s, nil
}

// mixedRadix decomposes i into digits over dims (dims[0] fastest).
func mixedRadix(i int, dims []int) []int {
	co := make([]int, len(dims))
	for j, d := range dims {
		co[j] = i % d
		i /= d
	}
	return co
}

// strideOf returns the chiplet-index stride of dimension j.
func strideOf(dims []int, j int) int {
	st := 1
	for k := 0; k < j; k++ {
		st *= dims[k]
	}
	return st
}

// BuildDragonfly fully connects m chiplets (a dragonfly with one chiplet
// per group in the paper's sense). Interface groups are assigned by a
// proper edge coloring of K_m so that the two endpoint groups of every
// chiplet-to-chiplet channel carry the same color label. m must be even
// (an m-vertex complete graph is (m-1)-edge-colorable only when m is even)
// and each chiplet needs m-1 groups.
func BuildDragonfly(geo chiplet.Geometry, m int, lp LinkParams) (*System, error) {
	if m < 2 {
		return nil, fmt.Errorf("topology: dragonfly needs at least 2 chiplets, got %d", m)
	}
	if m%2 != 0 {
		return nil, fmt.Errorf("topology: dragonfly chiplet count must be even for label-consistent grouping, got %d", m)
	}
	n := m - 1 // groups per chiplet == colors
	gr, err := chiplet.Group(geo.RingLen(), n, false)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(Dragonfly, geo, m, gr, lp)
	if err != nil {
		return nil, err
	}
	s.ChipDims = []int{m}
	s.DragonflyColor = make([][]int, m)
	for i := 0; i < m; i++ {
		s.Chiplets[i].Coord = []int{i}
		s.DragonflyColor[i] = make([]int, m)
		for j := range s.DragonflyColor[i] {
			s.DragonflyColor[i][j] = -1
		}
	}
	// Round-robin 1-factorization of K_m: vertices 0..m-2 on a circle,
	// vertex m-1 in the center. Color c pairs {m-1, c} and every {i, j}
	// with i+j ≡ 2c (mod m-1).
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			var c int
			if j == m-1 {
				c = (2 * i) % (m - 1)
			} else {
				c = (i + j) % (m - 1)
			}
			s.DragonflyColor[i][j] = c
			s.DragonflyColor[j][i] = c
			lo, hi := s.GroupRange(c)
			for pos := lo; pos <= hi; pos++ {
				if pos == 0 {
					// Ring position 0 — node (0,0) — is excluded from
					// cross links: it is adjacent to no core, so packets
					// arriving there could not enter the core mesh
					// without an extra ring turn.
					continue
				}
				s.addCrossPair(s.Chiplets[i].Ring[pos], s.Chiplets[j].Ring[pos])
			}
		}
	}
	// Every group must retain at least one linked interface.
	for g := 0; g < n; g++ {
		if len(s.Chiplets[0].Groups[g]) == 0 {
			return nil, fmt.Errorf("topology: dragonfly group %d has no usable interface (ring too small for %d chiplets)", g, m)
		}
	}
	if err := s.wire(); err != nil {
		return nil, err
	}
	return s, nil
}

// BuildTree connects numChiplets chiplets into a rooted tree with the given
// fan-out (an irregular topology, Fig. 6): chiplet 0 is the root and the
// parent of chiplet i is (i-1)/fanout. The ring is clustered into fanout+1
// groups; groups 0..fanout-1 face the children and the last group faces the
// parent, placed at the high end of the ring so that upward traffic rides
// the minus direction and downward traffic the plus direction.
func BuildTree(geo chiplet.Geometry, numChiplets, fanout int, lp LinkParams) (*System, error) {
	if numChiplets < 2 {
		return nil, fmt.Errorf("topology: tree needs at least 2 chiplets, got %d", numChiplets)
	}
	if fanout < 1 {
		return nil, fmt.Errorf("topology: tree fan-out must be positive, got %d", fanout)
	}
	gr, err := chiplet.Group(geo.RingLen(), fanout+1, false)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(Tree, geo, numChiplets, gr, lp)
	if err != nil {
		return nil, err
	}
	s.ChipDims = []int{numChiplets}
	s.Parent = make([]int, numChiplets)
	s.Children = make([][]int, numChiplets)
	s.Parent[0] = -1
	for i := range s.Chiplets {
		s.Chiplets[i].Coord = []int{i}
	}
	parentGroup := fanout
	for i := 1; i < numChiplets; i++ {
		p := (i - 1) / fanout
		childIdx := (i - 1) % fanout
		s.Parent[i] = p
		s.Children[p] = append(s.Children[p], i)
		// Parent's child-group childIdx links to child's parent group;
		// the groups may differ in size, so pair the shared prefix.
		cLo, _ := s.GroupRange(childIdx)
		pLo, _ := s.GroupRange(parentGroup)
		links := min(gr.Size[childIdx], gr.Size[parentGroup])
		for k := 0; k < links; k++ {
			if cLo+k == 0 {
				// Ring position 0 — node (0,0) — carries no cross link:
				// arrivals there could not reach a core entry by the
				// plus-only destination rides the tree discipline needs.
				continue
			}
			s.addCrossPair(s.Chiplets[p].Ring[cLo+k], s.Chiplets[i].Ring[pLo+k])
		}
	}
	if err := s.wire(); err != nil {
		return nil, err
	}
	return s, nil
}
