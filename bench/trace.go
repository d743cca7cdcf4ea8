package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps the public function, the program under test is
// not instrumented.
type span struct {
	Name   string
	Op     int // the traced op the span belongs to
	Parent int // index of the causing span, -1 for an op's root
	// Lane separates goroutines: a child only shortens its parent's self
	// time when both ran on the same lane (a parent that waits for
	// parallel children was not busy in them).
	Lane       int
	Start, End time.Duration // since the tracer was created
	// Mallocs/AllocBytes are runtime.MemStats deltas over the span; only
	// coarse spans pay for the two ReadMemStats calls (mem spans).
	mem                 bool
	Mallocs, AllocBytes uint64
}

// tracer keeps spans in memory; nothing is written until the benchmark
// ends. A nil *tracer records nothing, so code both passes share (the
// daemon clients) runs untraced with the hooks reduced to a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17)}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent, lane int) int {
	return t.open(span{Name: name, Parent: parent, Lane: lane})
}

// beginMem is begin for a coarse span that also records allocation
// deltas.
func (t *tracer) beginMem(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return t.open(span{Name: name, Parent: parent, Lane: lane, mem: true, Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc})
}

func (t *tracer) open(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	s.Op = t.op
	t.spans = append(t.spans, s)
	// Read the clock last so the bookkeeping above is charged to the
	// parent, not to the layer being measured.
	t.spans[id].Start = time.Since(t.t0)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	t.mu.Lock()
	s := &t.spans[id]
	s.End = end
	mem := s.mem
	t.mu.Unlock()
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.mu.Lock()
		s = &t.spans[id]
		s.Mallocs, s.AllocBytes = ms.Mallocs-s.Mallocs, ms.TotalAlloc-s.AllocBytes
		t.mu.Unlock()
	}
}

// layerTotals is one layer's share of one traced op.
type layerTotals struct {
	Calls   int
	BusyS   float64 // Σ span durations
	SelfS   float64 // BusyS minus same-lane children
	AllocMB float64 `json:",omitempty"`
	Allocs  uint64  `json:",omitempty"`
}

// layers folds the spans of one op by name.
func (t *tracer) layers(op int) map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Op == op && s.Parent >= 0 && t.spans[s.Parent].Lane == s.Lane {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		if s.Op != op {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerTotals{}
			out[s.Name] = l
		}
		d := s.End - s.Start
		l.Calls++
		l.BusyS += d.Seconds()
		l.SelfS += (d - child[i]).Seconds()
		if s.mem {
			l.Allocs += s.Mallocs
			l.AllocMB += float64(s.AllocBytes) / (1 << 20)
		}
	}
	return out
}

// writeSpans dumps every raw span, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"op":%d,"parent":%d,"lane":%d,"start_us":%.3f,"end_us":%.3f}`+"\n",
			i, s.Name, s.Op, s.Parent, s.Lane, float64(s.Start)/1e3, float64(s.End)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newOp starts the next traced op and opens its root span.
func (t *tracer) newOp() (op, root int) {
	t.mu.Lock()
	t.op++
	op = t.op
	t.mu.Unlock()
	return op, t.beginMem("op", -1, 0)
}

// result folds one finished op into the per-layer metric values: every
// span name becomes "<name>_s" holding the layer's self seconds.
func (t *tracer) result(op, root int, digest string) tracedResult {
	t.mu.Lock()
	wall := (t.spans[root].End - t.spans[root].Start).Seconds()
	t.mu.Unlock()
	out := tracedResult{digest: digest, wallS: wall, values: map[string]float64{}, layers: map[string]*layerTotals{}}
	out.addLayers(t.layers(op))
	root0 := out.layers["op"]
	out.values["op.alloc_mb"] = root0.AllocMB
	out.values["op.allocs"] = float64(root0.Allocs)
	// What the spans inside the op do not account for: the root's own
	// self time (loop control, the tracer's bookkeeping).
	out.values["unattributed_share"] = 100 * root0.SelfS / wall
	return out
}

// addLayers merges layers measured beside the op (never the root).
func (r *tracedResult) addLayers(layers map[string]*layerTotals) {
	for name, l := range layers {
		if _, dup := r.layers[name]; dup {
			continue
		}
		r.layers[name] = l
		r.values[name+"_s"] = l.SelfS
	}
}
