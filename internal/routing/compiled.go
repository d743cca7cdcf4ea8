package routing

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

// Table is the flat-array routing table the certifying traversal compiles:
// for every (node, destination core, tag class) state, the raw candidate
// set the interpreted routing function would generate, packed one uint64
// per candidate. It implements verify.StateSink — routing.Compile streams
// the traversal's states straight into it, so the table is certified and
// compiled by the same walk.
//
// Entry packing: bits 0-15 output port, 16-47 VC mask, 48 escape flag,
// 49 credit-sortable flag, 50 last candidate of its state. The layout
// follows the traversal, which runs destination-major: states are indexed
// (dstIdx*nodes + node)*L + tagClass, and each traversal block appends its
// states' candidates, in the order it visits them, to its own chunks. at
// locates a state's first candidate; a zero entry means the traversal
// never visited the state (it is unreachable for injected traffic) and
// the lookup falls back to the interpreter.
type Table struct {
	l      int     // interleave-tag equivalence classes (verify.TagClasses)
	nCores int     // dense destination index width
	dstIdx []int32 // node id -> dense core index, -1 for non-cores

	// at holds, per state, 1 + the position of its first candidate among
	// the candidates of the block that visited it (0: never visited).
	// The streams write it without a lock: a state belongs to one
	// traversal block, so each element has one writer.
	at []uint32
	// base holds, per dense destination index, the position in chunks at
	// which the candidates of the block that visited its states start.
	// While streaming it holds that block's stream index; build turns it
	// into the position.
	base []uint32
	// chunks holds every candidate, tableChunkLen per chunk, the blocks'
	// chunks one after the other; build appends them.
	chunks  []*[tableChunkLen]uint64
	streams []*tableStream // one per traversal block, until build
}

// tableStream collects one traversal block's candidates in traversal
// order, in fixed-size chunks so that growing never re-copies what is
// already there.
type tableStream struct {
	t      *Table
	id     uint32 // index among the table's streams
	chunks []*[tableChunkLen]uint64
	n      uint32 // candidates collected
}

// tableChunkLen is the number of candidates one chunk holds.
const tableChunkLen = 1 << 14

const (
	entryEscape   = 1 << 48
	entrySortable = 1 << 49
	entryLast     = 1 << 50
)

func newTable(sys *topology.System) *Table {
	t := &Table{
		l:      verify.TagClasses(sys),
		nCores: len(sys.Cores),
		dstIdx: make([]int32, len(sys.Nodes)),
		base:   make([]uint32, len(sys.Cores)),
	}
	for i := range t.dstIdx {
		t.dstIdx[i] = -1
	}
	for i, c := range sys.Cores {
		t.dstIdx[c] = int32(i)
	}
	t.at = make([]uint32, len(sys.Nodes)*t.nCores*t.l)
	return t
}

func (t *Table) stateIndex(node int, di int32, class int) int {
	return (int(di)*len(t.dstIdx)+node)*t.l + class
}

// first returns the position of the first candidate of state (node, di,
// class) and whether the traversal visited the state.
func (t *Table) first(node int, di int32, class int) (pos uint32, ok bool) {
	o := t.at[t.stateIndex(node, di, class)]
	return t.base[di] + o - 1, o != 0
}

// entry returns the candidate at position pos of chunks.
func (t *Table) entry(pos uint32) uint64 {
	return t.chunks[pos/tableChunkLen][pos%tableChunkLen]
}

// Streams implements verify.StateSink: one stream per traversal block.
func (t *Table) Streams(k int) []verify.StateStream {
	t.streams = make([]*tableStream, k)
	out := make([]verify.StateStream, k)
	for i := range out {
		t.streams[i] = &tableStream{t: t, id: uint32(i)}
		out[i] = t.streams[i]
	}
	return out
}

// State implements verify.StateStream: it records the raw candidate set
// of one traversed routing state. Candidates beyond position nsort keep
// their stored order at lookup; the first nsort are re-sorted by live
// credits. An empty set is not recorded, which leaves the state to the
// interpreter.
func (s *tableStream) State(node, dst, tag int, cands []router.Candidate, nsort int) {
	t := s.t
	di := t.dstIdx[dst]
	if di < 0 || tag < 0 || tag >= t.l || len(cands) == 0 {
		return
	}
	t.at[t.stateIndex(node, di, tag)] = s.n + 1
	t.base[di] = s.id
	for i, c := range cands {
		e := uint64(uint16(c.Port)) | uint64(c.VCMask)<<16
		if c.Escape {
			e |= entryEscape
		}
		if i < nsort {
			e |= entrySortable
		}
		if i == len(cands)-1 {
			e |= entryLast
		}
		j := s.n % tableChunkLen
		if j == 0 {
			s.chunks = append(s.chunks, new([tableChunkLen]uint64))
		}
		s.chunks[len(s.chunks)-1][j] = e
		s.n++
	}
}

// build lays the streams' chunks end to end and points every destination
// at the start of its stream's. A state's candidates all come from one
// stream, in their traversal order, so what a lookup reads does not
// depend on how the traversal was split into streams.
func (t *Table) build() {
	starts := make([]uint32, len(t.streams))
	for i, s := range t.streams {
		starts[i] = uint32(len(t.chunks)) * tableChunkLen
		t.chunks = append(t.chunks, s.chunks...)
	}
	for di, id := range t.base {
		t.base[di] = starts[id]
	}
	t.streams = nil
}

// Hash is the table's content address: the hex SHA-256 over its dimensions
// and over the node-major CSR form of its states — per state, indexed
// (node*cores + dstIdx)*L + tagClass, the offset of its first candidate,
// then the total, then every candidate in that order without its
// last-candidate flag. The address does not depend on the in-memory
// layout. Certified tables are content-addressed alongside the DSE cache
// key, so identical routing behavior dedupes to one address.
func (t *Table) Hash() string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(t.l))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(t.nCores))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(t.dstIdx)))
	w.Write(hdr[:])
	states := func(f func(pos uint32, ok bool)) {
		for node := range t.dstIdx {
			for di := range int32(t.nCores) {
				for class := range t.l {
					f(t.first(node, di, class))
				}
			}
		}
	}
	var b [8]byte
	offset := uint32(0)
	states(func(pos uint32, ok bool) {
		binary.LittleEndian.PutUint32(b[:4], offset)
		w.Write(b[:4])
		for ; ok; pos++ {
			offset++
			ok = t.entry(pos)&entryLast == 0
		}
	})
	binary.LittleEndian.PutUint32(b[:4], offset)
	w.Write(b[:4])
	states(func(pos uint32, ok bool) {
		for ; ok; pos++ {
			e := t.entry(pos)
			binary.LittleEndian.PutUint64(b[:], e&^entryLast)
			w.Write(b[:])
			ok = e&entryLast == 0
		}
	})
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// Compiled is the table-driven routing engine: Candidates is a flat-array
// lookup plus the credit re-sort of the stored adaptive prefix, instead of
// re-evaluating the MFR/Duato decision procedure per hop. It wraps the
// interpreted routing it was compiled from and delegates to it for
// everything the tables cannot soundly answer: fault-reconfigured systems
// (exit selection then depends on mutated group membership and must mark
// rerouted packets), non-core destinations, and states the certifying
// traversal never visited.
type Compiled struct {
	sys   *topology.System
	inner router.Routing
	esc   verify.EscapeAnalyzer
	t     *Table
}

var _ router.Routing = (*Compiled)(nil)
var _ verify.EscapeAnalyzer = (*Compiled)(nil)

// Compile certifies the routing installed on sys and compiles its tables
// from the same traversal: verify.Run walks the full (node, destination,
// tag-class) space with the table as the state sink. The report is always
// returned when the analysis ran; the error is non-nil when the routing is
// not compilable (missing interfaces) or the certifier found a fatal
// defect — an uncertified configuration never gets tables.
func Compile(sys *topology.System) (*Compiled, *verify.Report, error) {
	if sys.Fabric == nil || sys.Fabric.Routing == nil {
		return nil, nil, fmt.Errorf("routing: compile needs a built system with routing installed")
	}
	inner := sys.Fabric.Routing
	esc, ok := inner.(verify.EscapeAnalyzer)
	if !ok {
		return nil, nil, fmt.Errorf("routing: %T does not expose EscapeStep for certification", inner)
	}
	t := newTable(sys)
	rep := verify.Run(sys, verify.Options{Sink: t})
	if err := rep.Err(); err != nil {
		return nil, rep, fmt.Errorf("routing: refusing to compile uncertified routing: %w", err)
	}
	t.build()
	return &Compiled{sys: sys, inner: inner, esc: esc, t: t}, rep, nil
}

// TableHash is the content address of the compiled tables (Table.Hash).
func (c *Compiled) TableHash() string { return c.t.Hash() }

// bypass reports that the tables are stale for the current system state:
// fault injection has reconfigured group membership (BaseGroups snapshot
// present or interfaces condemned), so exit selection must re-run the
// interpreter, which also maintains the packet Rerouted marking the fault
// engine's accounting relies on. Checked per lookup so mid-run Kill and
// Degrade events switch over immediately.
func (c *Compiled) bypass() bool {
	return c.sys.BaseGroups != nil || len(c.sys.Condemned) > 0
}

// Candidates implements router.Routing by table lookup; see Compiled.
func (c *Compiled) Candidates(r *router.Router, inPort int, p *packet.Packet, buf []router.Candidate) []router.Candidate {
	if c.bypass() {
		return c.inner.Candidates(r, inPort, p, buf)
	}
	v := r.Node
	if v == p.Dst {
		return append(buf, router.Candidate{Port: 0, VCMask: router.VCMaskAll(len(r.Out[0].Credits))})
	}
	if p.Dst < 0 || p.Dst >= len(c.t.dstIdx) {
		return c.inner.Candidates(r, inPort, p, buf)
	}
	di := c.t.dstIdx[p.Dst]
	if di < 0 {
		return c.inner.Candidates(r, inPort, p, buf)
	}
	pos, ok := c.t.first(v, di, interleave.Index(c.t.l, p.Tag))
	if !ok {
		return c.inner.Candidates(r, inPort, p, buf)
	}
	base := len(buf)
	nsort := 0
	for ; ; pos++ {
		e := c.t.entry(pos)
		if e&entrySortable != 0 && len(buf)-base == nsort {
			nsort++
		}
		buf = append(buf, router.Candidate{
			Port:   int(e & 0xffff),
			VCMask: uint32(e >> 16),
			Escape: e&entryEscape != 0,
		})
		if e&entryLast != 0 {
			break
		}
	}
	if nsort > 1 {
		sortByCreditScore(r, buf[base:base+nsort])
	}
	return buf
}

// SafeAt delegates to the interpreted routing: Definition-4 safety depends
// on the arrival channel, which the (node, destination, tag) tables do not
// index, and it is only consulted by the safe/unsafe VC allocator.
func (c *Compiled) SafeAt(r *router.Router, inPort int, p *packet.Packet) bool {
	return c.inner.SafeAt(r, inPort, p)
}

// EscapeStep delegates to the interpreted routing (verify.EscapeAnalyzer).
func (c *Compiled) EscapeStep(v int, p *packet.Packet) (next, vc int, ok bool) {
	return c.esc.EscapeStep(v, p)
}

// EscapeRequired delegates to the interpreted routing.
func (c *Compiled) EscapeRequired() bool { return c.esc.EscapeRequired() }

// ExitGroup forwards the fault engine's exit-commitment query to the
// interpreted routing (see fault.ExitPlanner).
func (c *Compiled) ExitGroup(cv int, p *packet.Packet) (group int, ok bool) {
	type exitPlanner interface {
		ExitGroup(cv int, p *packet.Packet) (int, bool)
	}
	if ep, ok2 := c.inner.(exitPlanner); ok2 {
		return ep.ExitGroup(cv, p)
	}
	return 0, false
}
