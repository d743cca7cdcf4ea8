package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chipletnet/internal/packet"
)

// validTrace is a small well-formed trace exercising every Entry field:
// multi-flit packets, message segmentation, classes, and a dependency.
func validTrace() *Trace {
	return &Trace{
		Version:   FormatVersion,
		Endpoints: 4,
		Entries: []Entry{
			{ID: 0, Cycle: 1, Src: 0, Dst: 1, Flits: 8, Msg: 0, Seq: 0, Class: packet.ClassCollective, Dep: packet.NoDep},
			{ID: 1, Cycle: 1, Src: 0, Dst: 1, Flits: 8, Msg: 0, Seq: 1, Class: packet.ClassCollective, Dep: packet.NoDep},
			{ID: 2, Cycle: 3, Src: 2, Dst: 3, Flits: 4, Msg: 1, Seq: 0, Class: packet.ClassLatency, Dep: packet.NoDep},
			{ID: 3, Cycle: 7, Src: 3, Dst: 2, Flits: 4, Msg: 2, Seq: 0, Class: packet.ClassLatency, Dep: 2},
			{ID: 4, Cycle: 9, Src: 1, Dst: 0, Flits: 16, Msg: 3, Seq: 0, Class: packet.ClassBulk, Dep: packet.NoDep},
		},
	}
}

func TestValidateTable(t *testing.T) {
	mutate := func(fn func(*Trace)) *Trace {
		tr := validTrace()
		fn(tr)
		return tr
	}
	cases := []struct {
		name string
		tr   *Trace
		ok   bool
	}{
		{"valid", validTrace(), true},
		{"empty-entries-ok", &Trace{Version: FormatVersion, Endpoints: 2}, true},
		{"one-endpoint", mutate(func(tr *Trace) { tr.Endpoints = 1 }), false},
		{"sparse-ids", mutate(func(tr *Trace) { tr.Entries[3].ID = 7 }), false},
		{"decreasing-cycles", mutate(func(tr *Trace) { tr.Entries[4].Cycle = 2 }), false},
		{"src-out-of-range", mutate(func(tr *Trace) { tr.Entries[0].Src = 4 }), false},
		{"dst-negative", mutate(func(tr *Trace) { tr.Entries[0].Dst = -1 }), false},
		{"self-send", mutate(func(tr *Trace) { tr.Entries[0].Dst = tr.Entries[0].Src }), false},
		{"zero-flits", mutate(func(tr *Trace) { tr.Entries[2].Flits = 0 }), false},
		{"negative-seq", mutate(func(tr *Trace) { tr.Entries[1].Seq = -1 }), false},
		{"unknown-class", mutate(func(tr *Trace) { tr.Entries[0].Class = packet.NumClasses }), false},
		{"self-dep", mutate(func(tr *Trace) { tr.Entries[3].Dep = 3 }), false},
		{"forward-dep", mutate(func(tr *Trace) { tr.Entries[3].Dep = 4 }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tr.Validate()
			if tc.ok && err != nil {
				t.Fatalf("valid trace rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("invalid trace accepted")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip changed the trace:\n in: %+v\nout: %+v", tr, got)
	}
	// Byte-deterministic: re-encoding the decoded trace reproduces the file.
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Error("encoding is not byte-deterministic")
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	tr := validTrace()
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("file round trip changed the trace")
	}
	// WriteFile refuses an invalid trace and leaves nothing behind.
	bad := validTrace()
	bad.Entries[0].Flits = 0
	badPath := filepath.Join(t.TempDir(), "bad.trace")
	if err := WriteFile(badPath, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(badPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("invalid trace left a file behind")
	}
}

// TestDecodeTypedErrors maps every damage shape to its typed error; none
// may panic.
func TestDecodeTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := validTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(whole, "\n"), "\n")

	cases := []struct {
		name string
		data string
		want error
	}{
		{"empty", "", ErrNotTrace},
		{"garbage", "not json at all\n", ErrNotTrace},
		{"wrong-magic", `{"format":"something-else","version":1}` + "\n", ErrNotTrace},
		{"future-version", `{"format":"chipletnet-trace","version":99,"endpoints":4,"entries":0}` + "\n", ErrVersion},
		{"negative-count", `{"format":"chipletnet-trace","version":1,"endpoints":4,"entries":-1}` + "\n", ErrCorrupt},
		{"missing-tail", strings.Join(lines[:len(lines)-1], ""), ErrTruncated},
		{"torn-final-line", strings.Join(lines[:len(lines)-1], "") + lines[len(lines)-1][:5] + "\n", ErrTruncated},
		{"extra-lines", whole + lines[1], ErrCorrupt},
		{"interior-damage", lines[0] + "{{{\n" + strings.Join(lines[2:], ""), ErrCorrupt},
		{"invariant-violation", strings.Replace(whole, `"f":8`, `"f":0`, 1), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRecorder(t *testing.T) {
	rec, err := NewRecorder([]int{5, 9, 13})
	if err != nil {
		t.Fatal(err)
	}
	inject := func(id uint64, src, dst int, cycle int64, class uint8, dep int64) {
		rec.PacketInjected(&packet.Packet{
			ID: id, Src: src, Dst: dst, Len: 4, CreatedAt: cycle, Class: class, Dep: dep,
		}, src, cycle)
	}
	inject(0, 5, 9, 1, packet.ClassBulk, packet.NoDep)
	inject(1, 9, 13, 2, packet.ClassLatency, 0)
	inject(2, 13, 5, 4, packet.ClassLatency, 99) // forward dep: clamped to NoDep
	rec.PacketDelivered(&packet.Packet{ID: 0}, 10)
	rec.PacketDelivered(&packet.Packet{ID: 1}, 12)

	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Endpoints != 3 || len(tr.Entries) != 3 {
		t.Fatalf("trace shape %d endpoints %d entries", tr.Endpoints, len(tr.Entries))
	}
	// Global node ids map to dense endpoint indices.
	if e := tr.Entries[0]; e.Src != 0 || e.Dst != 1 {
		t.Errorf("entry 0 endpoints %d->%d, want 0->1", e.Src, e.Dst)
	}
	if tr.Entries[1].Dep != 0 {
		t.Errorf("entry 1 dep %d, want 0", tr.Entries[1].Dep)
	}
	if tr.Entries[2].Dep != packet.NoDep {
		t.Errorf("forward dependency recorded as %d, want NoDep", tr.Entries[2].Dep)
	}
	if got := rec.DeliveryCycles(); got[0] != 10 || got[1] != 12 || got[2] != -1 {
		t.Errorf("delivery cycles %v, want [10 12 -1]", got)
	}
}

func TestRecorderStickyErrors(t *testing.T) {
	rec, _ := NewRecorder([]int{0, 1})
	// Non-dense packet ids are an error, surfaced at Trace().
	rec.PacketInjected(&packet.Packet{ID: 7, Src: 0, Dst: 1, Len: 1}, 0, 1)
	if _, err := rec.Trace(); err == nil {
		t.Error("non-dense packet id accepted")
	}
	rec2, _ := NewRecorder([]int{0, 1})
	// Injection at a node that is not an endpoint is an error.
	rec2.PacketInjected(&packet.Packet{ID: 0, Src: 3, Dst: 1, Len: 1}, 3, 1)
	if _, err := rec2.Trace(); err == nil {
		t.Error("non-endpoint injection accepted")
	}
}

func TestSplit(t *testing.T) {
	if k, a, err := Split(""); k != "" || a != "" || err != nil {
		t.Errorf("empty spec: %q %q %v", k, a, err)
	}
	if k, a, err := Split("replay:/tmp/x.trace"); k != KindReplay || a != "/tmp/x.trace" || err != nil {
		t.Errorf("replay spec: %q %q %v", k, a, err)
	}
	if k, _, err := Split("aiscaleout:allreduce-ring,data=64"); k != KindAIScaleOut || err != nil {
		t.Errorf("aiscaleout spec: %q %v", k, err)
	}
	for _, bad := range []string{"replay:", "record:/x", "nonsense", "wormhole:/x", "aiscaleout:data=64"} {
		if _, _, err := Split(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestParseFlag(t *testing.T) {
	spec, rec, err := ParseFlag("aiscaleout:alltoall,data=64;record:/tmp/t.trace")
	if err != nil || spec != "aiscaleout:alltoall,data=64" || rec != "/tmp/t.trace" {
		t.Errorf("combined flag: %q %q %v", spec, rec, err)
	}
	spec, rec, err = ParseFlag("record:/tmp/t.trace")
	if err != nil || spec != "" || rec != "/tmp/t.trace" {
		t.Errorf("record-only flag: %q %q %v", spec, rec, err)
	}
	for _, bad := range []string{
		"record:",
		"record:/a;record:/b",
		"replay:/a;aiscaleout:alltoall",
	} {
		if _, _, err := ParseFlag(bad); err == nil {
			t.Errorf("bad flag %q accepted", bad)
		}
	}
}

func TestParseAIScaleOut(t *testing.T) {
	spec, err := ParseAIScaleOut("allreduce-ring,data=512,compute=300,phases=2,memrate=0.1,reqrate=0.02,reqflits=8")
	if err != nil {
		t.Fatal(err)
	}
	want := AIScaleOutSpec{
		Collective: "allreduce-ring", DataFlits: 512, ComputeCycles: 300,
		Phases: 2, MemRate: 0.1, ReqRate: 0.02, ReqFlits: 8,
	}
	if spec != want {
		t.Errorf("parsed %+v, want %+v", spec, want)
	}
	// Defaults apply when options are omitted.
	spec, err = ParseAIScaleOut("alltoall")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DataFlits != 256 || spec.ComputeCycles != 200 || spec.MemRate != 0.05 || spec.ReqFlits != 4 {
		t.Errorf("defaults: %+v", spec)
	}
	for _, bad := range []string{"", "data=64", "alltoall,data=0", "alltoall,data", "alltoall,memrate=-1", "alltoall,warp=9"} {
		if _, err := ParseAIScaleOut(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestSpecHash(t *testing.T) {
	if h, err := SpecHash(""); h != "" || err != nil {
		t.Errorf("empty spec hash %q %v", h, err)
	}
	// Self-contained specs are their own address.
	const ai = "aiscaleout:allreduce-ring,data=64"
	if h, _ := SpecHash(ai); h != ai {
		t.Errorf("aiscaleout hash %q", h)
	}
	// Replay specs are content-addressed: same bytes at two paths hash
	// equal; different bytes hash differently; edits invalidate the memo.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.trace"), filepath.Join(dir, "b.trace")
	if err := WriteFile(a, validTrace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(b, validTrace()); err != nil {
		t.Fatal(err)
	}
	ha, err := SpecHash("replay:" + a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := SpecHash("replay:" + b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("identical trace bytes at two paths hashed differently")
	}
	if !strings.HasPrefix(ha, "replay:sha256:") {
		t.Errorf("replay hash %q lacks the content-address prefix", ha)
	}
	other := validTrace()
	other.Entries = other.Entries[:3]
	if err := WriteFile(b, other); err != nil {
		t.Fatal(err)
	}
	hb2, err := SpecHash("replay:" + b)
	if err != nil {
		t.Fatal(err)
	}
	if hb2 == hb {
		t.Error("editing the trace did not change its hash")
	}
	if _, err := SpecHash("replay:" + filepath.Join(dir, "missing.trace")); err == nil {
		t.Error("missing trace file hashed")
	}
}
