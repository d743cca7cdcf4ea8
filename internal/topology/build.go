package topology

import (
	"fmt"

	"chipletnet/internal/chiplet"
	"chipletnet/internal/router"
)

// injectQueueCap is the effectively-unbounded source queue capacity.
const injectQueueCap = 1 << 30

// portsPerNode is the capacity carved for a node's Ports: a local port,
// four mesh ports and three off-chip ports. A node given more ports
// reallocates its own slice.
const portsPerNode = 8

// newSystem lays out numChiplets chiplets and their on-chip meshes and
// fills in all per-node metadata. Cross-chiplet ports are added by the
// per-topology builders via addCrossPair (or addCrossPort for FlatMesh
// stitches); wire() then instantiates every router, port and link.
func newSystem(kind Kind, geo chiplet.Geometry, numChiplets int, gr chiplet.Grouping, lp LinkParams) (*System, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	if numChiplets < 1 {
		return nil, fmt.Errorf("topology: need at least one chiplet, got %d", numChiplets)
	}
	s := &System{
		Kind:     kind,
		Geo:      geo,
		Grouping: gr,
		LP:       lp,
		Fabric:   router.NewFabric(),
	}
	per := geo.Nodes()
	ring := geo.Ring()
	s.Nodes = make([]Node, numChiplets*per)
	s.Chiplets = make([]Chiplet, numChiplets)
	// Every node's Ports, and every chiplet's node and ring maps and
	// group member lists (pre-sized to the group widths), are carved
	// capacity-clipped from one backing array each.
	ports := make([]Port, len(s.Nodes)*portsPerNode)
	grouped := 0
	for _, size := range gr.Size {
		grouped += size
	}
	ints := make([]int, numChiplets*(per+len(ring)+grouped))
	carve := func(n int) []int {
		c := ints[:n:n]
		ints = ints[n:]
		return c
	}
	var groups [][]int
	if gr.Groups() > 0 {
		groups = make([][]int, numChiplets*gr.Groups())
	}

	for c := 0; c < numChiplets; c++ {
		ch := &s.Chiplets[c]
		ch.Index = c
		ch.Nodes = carve(per)
		ch.Ring = carve(len(ring))
		if gr.Groups() > 0 {
			ch.Groups = groups[c*gr.Groups() : (c+1)*gr.Groups() : (c+1)*gr.Groups()]
			for g, size := range gr.Size {
				ch.Groups[g] = carve(size)[:0]
			}
		}
		for i := 0; i < per; i++ {
			id := c*per + i
			x, y := geo.Coord(i)
			ch.Nodes[i] = id
			n := &s.Nodes[id]
			*n = Node{
				ID: id, Chiplet: c, X: x, Y: y,
				Label:   geo.Label(x, y),
				RingPos: geo.RingPos(x, y),
				Ports:   ports[id*portsPerNode : id*portsPerNode : (id+1)*portsPerNode],
				Group:   -1, GroupSlot: -1,
			}
			if n.RingPos >= 0 {
				ch.Ring[n.RingPos] = id
				if gr.Groups() > 0 {
					if g := gr.GroupOf(n.RingPos); g >= 0 {
						n.Group = g
						n.GroupSlot = n.RingPos - gr.Start[g]
					}
				}
			} else {
				s.Cores = append(s.Cores, id)
			}

			// Local (injection/ejection) port 0, then the on-chip mesh
			// ports.
			n.Ports = append(n.Ports, Port{Dir: DirLocal, To: -1})
			addMesh := func(d Dir, nx, ny int) {
				if nx < 0 || ny < 0 || nx >= geo.W || ny >= geo.H {
					return
				}
				n.Ports = append(n.Ports, Port{Dir: d, To: c*per + geo.Index(nx, ny)})
			}
			addMesh(DirXPlus, x+1, y)
			addMesh(DirXMinus, x-1, y)
			addMesh(DirYPlus, x, y+1)
			addMesh(DirYMinus, x, y-1)
		}
	}
	return s, nil
}

// addCrossPort adds an off-chip port on node id pointing at node to, with
// the given direction (DirCross for high-radix topologies; a mesh direction
// for FlatMesh stitches). The input side uses the interface buffer size.
func (s *System) addCrossPort(id, to int, d Dir) {
	n := &s.Nodes[id]
	n.Ports = append(n.Ports, Port{Dir: d, To: to, OffChip: true})
}

// addCrossPair connects interface nodes a and b (on different chiplets)
// with a bidirectional chiplet-to-chiplet channel and registers both nodes
// in their chiplets' connected-group membership.
func (s *System) addCrossPair(a, b int) {
	s.addCrossPort(a, b, DirCross)
	s.addCrossPort(b, a, DirCross)
	for _, id := range [2]int{a, b} {
		n := &s.Nodes[id]
		if n.Group >= 0 {
			ch := &s.Chiplets[n.Chiplet]
			ch.Groups[n.Group] = append(ch.Groups[n.Group], id)
		}
	}
}

// wire instantiates every node's router and ports, then a link for every
// non-local port. Must be called exactly once, after all ports exist.
// Routers and their ports are created in node order, so the fabric's
// slabs hold each chiplet's (and so each island's) components in one
// contiguous run.
func (s *System) wire() error {
	f := s.Fabric
	for id := range s.Nodes {
		r := f.NewRouter(id)
		for _, p := range s.Nodes[id].Ports {
			switch {
			case p.Dir == DirLocal:
				r.AddInPort(1, injectQueueCap)
			case p.OffChip:
				r.AddInPort(s.LP.VCs, s.LP.InterfaceBufFlits)
			default:
				r.AddInPort(s.LP.VCs, s.LP.InternalBufFlits)
			}
			r.AddOutPort()
		}
		f.MakeEjection(r, 0, s.LP.VCs, s.LP.EjectBW)
	}
	for id := range s.Nodes {
		n := &s.Nodes[id]
		for pi, p := range n.Ports {
			if p.Dir == DirLocal {
				continue
			}
			peerPort := s.PortTo(p.To, id)
			if peerPort < 0 {
				return fmt.Errorf("topology: node %d port %d points at %d which has no return port", id, pi, p.To)
			}
			bw, lat := s.LP.OnChipBW, s.LP.OnChipLatency
			if p.OffChip {
				bw, lat = s.LP.OffChipBW, s.LP.OffChipLatency
			}
			f.ConnectPorts(
				f.Routers[id], pi,
				f.Routers[p.To], peerPort,
				bw, lat, p.OffChip)
		}
	}
	return nil
}
