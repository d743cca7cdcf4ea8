package router

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"chipletnet/internal/packet"
)

// ringRouting forwards every packet on port 2 (to the next router of a
// ring) and ejects it at its destination.
type ringRouting struct{}

func (ringRouting) Candidates(r *Router, inPort int, p *packet.Packet, buf []Candidate) []Candidate {
	if r.Node == p.Dst {
		return append(buf, Candidate{Port: 0, VCMask: VCMaskAll(len(r.Out[0].Credits))})
	}
	return append(buf, Candidate{Port: 2, VCMask: VCMaskAll(len(r.Out[2].Credits)), Escape: true})
}

func (ringRouting) SafeAt(*Router, int, *packet.Packet) bool { return true }

// disjoint reports the first two carves whose backing arrays overlap,
// given every carve of one element type.
func disjoint[T any](t *testing.T, what string, carves [][]T) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	size := unsafe.Sizeof(*new(T))
	var spans []span
	for _, s := range carves {
		if cap(s) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
			spans = append(spans, span{lo, lo + uintptr(cap(s))*size})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two %s slices share backing storage: [%#x, %#x) and [%#x, %#x)",
				what, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

// TestSlabCarvesStayIsolated builds a fabric by hand that outgrows one
// chunk of every slab, gives one router more ports than its carved
// capacity, and checks that every component and small slice is its own:
// the carves are capacity-clipped and never overlap, growing a router's
// In/Out leaves its neighbour's untouched, the components created before
// later chunks were started keep their addresses, and traffic around
// the ring drains under the per-cycle credit audit.
func TestSlabCarvesStayIsolated(t *testing.T) {
	const n, vcs, grown = 320, 4, 5
	f := NewFabric()
	f.Routing = ringRouting{}
	f.CreditAudit = true
	for i := 0; i < n; i++ {
		r := f.NewRouter(i)
		r.AddInPort(1, 1<<30)
		r.AddOutPort()
		f.MakeEjection(r, 0, vcs, 4)
	}
	// The first router's components sit in the slabs' first chunks.
	r0 := f.Routers[0]
	in0, out0 := r0.In[0], r0.Out[0]
	vc0, credits0 := in0.VCs[0], &out0.Credits[0]

	// Ports 1 (from the previous router) and 2 (from the next one).
	for _, r := range f.Routers {
		for p := 1; p <= 2; p++ {
			r.AddInPort(vcs, 32)
			r.AddOutPort()
		}
	}
	// Router grown gets more ports than portsPerRouter; its neighbour's
	// slices were carved right after its own.
	g, next := f.Routers[grown], f.Routers[grown+1]
	nextIn, nextOut := slices.Clone(next.In), slices.Clone(next.Out)
	for len(g.In) <= portsPerRouter {
		g.AddInPort(vcs, 32)
		g.AddOutPort()
	}
	if !slices.Equal(next.In, nextIn) || !slices.Equal(next.Out, nextOut) {
		t.Fatalf("growing router %d's ports rewrote router %d's", grown, grown+1)
	}
	for i, r := range f.Routers {
		f.ConnectPorts(r, 2, f.Routers[(i+1)%n], 1, 2, 1, false)
		f.ConnectPorts(r, 1, f.Routers[(i+n-1)%n], 2, 2, 1, false)
	}
	for p := 3; p < len(g.Out); p++ {
		f.ConnectPorts(g, p, g, p, 2, 1, false)
	}

	// Every slab outgrew its first chunk at the largest chunk size.
	var nIn, nOut, nVC int
	for _, r := range f.Routers {
		nIn += len(r.In)
		nOut += len(r.Out)
		for _, ip := range r.In {
			nVC += len(ip.VCs)
		}
	}
	for _, c := range []struct {
		what       string
		have, fits int
	}{
		{"routers", n, chunkLimit[Router]()},
		{"input ports", nIn, chunkLimit[InPort]()},
		{"output ports", nOut, chunkLimit[OutPort]()},
		{"VCs", nVC, chunkLimit[VC]()},
		{"links", len(f.Links), chunkLimit[Link]()},
		{"port pointers", n * portsPerRouter, chunkLimit[*InPort]()},
		{"VC pointers", nVC + nOut*vcs, chunkLimit[*VC]()},
		{"credit counters", nOut * vcs, chunkLimit[int]()},
	} {
		if c.have <= c.fits {
			t.Fatalf("%d %s fit in one chunk of %d", c.have, c.what, c.fits)
		}
	}

	var ins [][]*InPort
	var outs [][]*OutPort
	var vcSlices, owners [][]*VC
	var credits [][]int
	seenVC := map[*VC]bool{}
	seenIn := map[*InPort]bool{}
	seenOut := map[*OutPort]bool{}
	for i, r := range f.Routers {
		wantCap := portsPerRouter
		if i == grown {
			wantCap = cap(r.In)
		}
		if cap(r.In) != wantCap || cap(r.Out) != wantCap {
			t.Fatalf("router %d: In/Out capacity %d/%d, want %d", i, cap(r.In), cap(r.Out), wantCap)
		}
		ins, outs = append(ins, r.In), append(outs, r.Out)
		for pi, ip := range r.In {
			if ip.Router != r || ip.Index != pi || seenIn[ip] {
				t.Fatalf("router %d port %d: input port of router %d port %d, or shared", i, pi, ip.Router.Node, ip.Index)
			}
			seenIn[ip] = true
			if cap(ip.VCs) != len(ip.VCs) {
				t.Fatalf("router %d port %d: VCs capacity %d, length %d", i, pi, cap(ip.VCs), len(ip.VCs))
			}
			vcSlices = append(vcSlices, ip.VCs)
			for vi, v := range ip.VCs {
				if v.Port != ip || v.Index != vi || seenVC[v] {
					t.Fatalf("router %d port %d vc %d: VC of port %d index %d, or shared", i, pi, vi, v.Port.Index, v.Index)
				}
				seenVC[v] = true
			}
		}
		for pi, op := range r.Out {
			if op.Router != r || op.Index != pi || seenOut[op] {
				t.Fatalf("router %d: output port %d is router %d's port %d, or shared", i, pi, op.Router.Node, op.Index)
			}
			seenOut[op] = true
			if len(op.Credits) != vcs || cap(op.Credits) != vcs || len(op.Owner) != vcs || cap(op.Owner) != vcs {
				t.Fatalf("router %d port %d: credits %d/%d, owners %d/%d, want %d/%d", i, pi,
					len(op.Credits), cap(op.Credits), len(op.Owner), cap(op.Owner), vcs, vcs)
			}
			credits, owners = append(credits, op.Credits), append(owners, op.Owner)
		}
	}
	disjoint(t, "Router.In", ins)
	disjoint(t, "Router.Out", outs)
	disjoint(t, "InPort.VCs and OutPort.Owner", append(vcSlices, owners...))
	disjoint(t, "OutPort.Credits", credits)

	if f.Routers[0] != r0 || r0.In[0] != in0 || r0.Out[0] != out0 || in0.VCs[0] != vc0 || &out0.Credits[0] != credits0 {
		t.Fatal("router 0's components moved after later chunks were started")
	}
	if vc0.Port != in0 || in0.Router != r0 || *credits0 != ejectCredits {
		t.Fatal("router 0's components changed after later chunks were started")
	}

	for i := 0; i < 40; i++ {
		src := i * 7 % n
		f.Routers[src].Inject(mkPacket(uint64(i), src, (src+n/2+i)%n, 8, 0), 0)
	}
	runCycles(f, 3*n)
	if f.InFlight() != 0 {
		t.Fatalf("%d packets still in flight", f.InFlight())
	}
}
