package routing

import (
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
// 49 credit-sortable flag. States are indexed (node*cores + dstIdx)*L +
// tagClass with a CSR offsets array; an empty range means the traversal
// never visited the state (it is unreachable for injected traffic) and the
// lookup falls back to the interpreter.
type Table struct {
	l      int     // interleave-tag equivalence classes (verify.TagClasses)
	nCores int     // dense destination index width
	dstIdx []int32 // node id -> dense core index, -1 for non-cores
	// counts holds each state's candidate count. The streams write it
	// without a lock: a state belongs to one traversal block, so each
	// element has one writer.
	counts  []uint32
	streams []*tableStream // one per traversal block; build() turns them into CSR

	offsets []uint32
	packed  []uint64
}

// tableStream accumulates one traversal block's states in traversal
// order, in fixed-size chunks so that growing never re-copies what is
// already there.
type tableStream struct {
	t      *Table
	chunks []*tableChunk
	n      int // candidates accumulated
}

// tableChunkLen is the number of candidates one accumulation chunk holds.
const tableChunkLen = 1 << 14

// tableChunk holds tableChunkLen accumulated candidates: each one's state
// index and packed entry.
type tableChunk struct {
	state [tableChunkLen]uint32
	cand  [tableChunkLen]uint64
}

func newTable(sys *topology.System) *Table {
	t := &Table{
		l:      verify.TagClasses(sys),
		nCores: len(sys.Cores),
		dstIdx: make([]int32, len(sys.Nodes)),
	}
	for i := range t.dstIdx {
		t.dstIdx[i] = -1
	}
	for i, c := range sys.Cores {
		t.dstIdx[c] = int32(i)
	}
	t.counts = make([]uint32, len(sys.Nodes)*t.nCores*t.l)
	return t
}

func (t *Table) stateIndex(node int, di int32, class int) int {
	return (node*t.nCores+int(di))*t.l + class
}

// Streams implements verify.StateSink: one accumulation stream per
// traversal block.
func (t *Table) Streams(k int) []verify.StateStream {
	t.streams = make([]*tableStream, k)
	out := make([]verify.StateStream, k)
	for i := range out {
		t.streams[i] = &tableStream{t: t}
		out[i] = t.streams[i]
	}
	return out
}

// State implements verify.StateStream: it records the raw candidate set
// of one traversed routing state. Candidates beyond position nsort keep
// their stored order at lookup; the first nsort are re-sorted by live
// credits.
func (s *tableStream) State(node, dst, tag int, cands []router.Candidate, nsort int) {
	t := s.t
	di := t.dstIdx[dst]
	if di < 0 || tag < 0 || tag >= t.l {
		return
	}
	st := uint32(t.stateIndex(node, di, tag))
	for i, c := range cands {
		e := uint64(uint16(c.Port)) | uint64(c.VCMask)<<16
		if c.Escape {
			e |= 1 << 48
		}
		if i < nsort {
			e |= 1 << 49
		}
		j := s.n % tableChunkLen
		if j == 0 {
			s.chunks = append(s.chunks, new(tableChunk))
		}
		ch := s.chunks[len(s.chunks)-1]
		ch.state[j], ch.cand[j] = st, e
		s.n++
	}
	t.counts[st] += uint32(len(cands))
}

// build converts the accumulated streams into the CSR arrays and drops
// the accumulation buffers. A state's candidates all come from one
// stream, in their traversal order, so the arrays do not depend on how
// the traversal was split into streams.
func (t *Table) build() {
	t.offsets = make([]uint32, len(t.counts)+1)
	total := uint32(0)
	for i, c := range t.counts {
		t.offsets[i] = total
		total += c
	}
	t.offsets[len(t.counts)] = total
	t.packed = make([]uint64, total)
	cursor := t.counts // the counts are summed into offsets; reuse them
	copy(cursor, t.offsets[:len(t.counts)])
	for _, s := range t.streams {
		for i := 0; i < s.n; i++ {
			ch := s.chunks[i/tableChunkLen]
			st := ch.state[i%tableChunkLen]
			t.packed[cursor[st]] = ch.cand[i%tableChunkLen]
			cursor[st]++
		}
	}
	t.counts, t.streams = nil, nil
}

// Hash is the table's content address: the hex SHA-256 over its dimensions
// and flat arrays. Certified tables are content-addressed alongside the
// DSE cache key, so identical routing behavior dedupes to one address.
func (t *Table) Hash() string {
	h := sha256.New()
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(t.l))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(t.nCores))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(t.dstIdx)))
	h.Write(hdr[:])
	var w [8]byte
	for _, o := range t.offsets {
		binary.LittleEndian.PutUint32(w[:4], o)
		h.Write(w[:4])
	}
	for _, e := range t.packed {
		binary.LittleEndian.PutUint64(w[:], e)
		h.Write(w[:])
	}
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
	class := interleave.Index(c.t.l, p.Tag)
	s := c.t.stateIndex(v, di, class)
	lo, hi := c.t.offsets[s], c.t.offsets[s+1]
	if lo == hi {
		return c.inner.Candidates(r, inPort, p, buf)
	}
	base := len(buf)
	nsort := 0
	for i := lo; i < hi; i++ {
		e := c.t.packed[i]
		if e&(1<<49) != 0 && int(i-lo) == nsort {
			nsort++
		}
		buf = append(buf, router.Candidate{
			Port:   int(e & 0xffff),
			VCMask: uint32(e >> 16),
			Escape: e&(1<<48) != 0,
		})
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
