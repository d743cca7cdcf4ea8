package traffic

import (
	"reflect"
	"strings"
	"testing"

	"chipletnet/internal/collective"
	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/workload"
)

// delivery is one observed sink event.
type delivery struct {
	id    uint64
	cycle int64
}

// driveSource runs src on a fresh local-delivery fabric until the network
// is empty and done reports completion (or the cycle cap is hit), and
// returns the delivery sequence in sink order.
func driveSource(t *testing.T, nodes int, src Source, maxCycles int64, done func() bool) []delivery {
	t.Helper()
	f := sinkFabric(nodes)
	var seq []delivery
	f.Sink = func(p *packet.Packet, now int64) {
		seq = append(seq, delivery{p.ID, now})
		src.OnDeliver(p, now)
	}
	src.SetMeasured(true)
	for cy := int64(1); cy <= maxCycles; cy++ {
		src.Tick(f, cy)
		f.Step()
		if f.InFlight() == 0 && done() {
			return seq
		}
	}
	t.Fatalf("source did not finish within %d cycles (%d deliveries)", maxCycles, len(seq))
	return nil
}

func denseEndpoints(n int) []int {
	eps := make([]int, n)
	for i := range eps {
		eps[i] = i
	}
	return eps
}

// replayTrace is a trace with one dependency chain and a concurrent
// independent packet, small enough to reason about exactly.
func replayTrace() *workload.Trace {
	return &workload.Trace{
		Version:   workload.FormatVersion,
		Endpoints: 4,
		Entries: []workload.Entry{
			{ID: 0, Cycle: 1, Src: 0, Dst: 1, Flits: 4, Msg: 0, Seq: 0, Class: packet.ClassLatency, Dep: packet.NoDep},
			{ID: 1, Cycle: 1, Src: 2, Dst: 3, Flits: 4, Msg: 1, Seq: 0, Class: packet.ClassBulk, Dep: packet.NoDep},
			{ID: 2, Cycle: 2, Src: 1, Dst: 0, Flits: 4, Msg: 2, Seq: 0, Class: packet.ClassLatency, Dep: 0},
		},
	}
}

func TestReplayerCausality(t *testing.T) {
	tr := replayTrace()
	r, err := NewReplayer(tr, denseEndpoints(4), interleave.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	f := sinkFabric(4)
	injectedAt := map[uint64]int64{}
	deliveredAt := map[uint64]int64{}
	f.Sink = func(p *packet.Packet, now int64) {
		injectedAt[p.ID] = p.CreatedAt
		deliveredAt[p.ID] = now
		r.OnDeliver(p, now)
	}
	r.SetMeasured(true)
	for cy := int64(1); cy <= 100 && (r.Remaining() > 0 || f.InFlight() > 0); cy++ {
		r.Tick(f, cy)
		f.Step()
	}
	if len(deliveredAt) != 3 {
		t.Fatalf("delivered %d of 3 packets", len(deliveredAt))
	}
	// Dependency-free entries inject at their recorded cycles.
	if injectedAt[0] != 1 || injectedAt[1] != 1 {
		t.Errorf("root entries injected at %d and %d, want their recorded cycle 1", injectedAt[0], injectedAt[1])
	}
	// The dependent entry waits for its dependency's delivery: injection
	// at exactly the cycle after, which here is later than its recorded
	// cycle 2.
	want := deliveredAt[0] + 1
	if injectedAt[2] != want {
		t.Errorf("dependent entry injected at %d, want dependency delivery %d + 1", injectedAt[2], deliveredAt[0])
	}
	if want <= 2 {
		t.Fatalf("test is vacuous: dependency delivered at %d, before the recorded cycle", deliveredAt[0])
	}
	if r.Offered() != 3 || r.TotalPackets() != 3 {
		t.Errorf("offered %d total %d, want 3 and 3", r.Offered(), r.TotalPackets())
	}
}

// A dependency-free trace replayed under its recording conditions must
// reproduce the injection stream exactly: recorded cycles, recorded order.
func TestReplayerReproducesRecordedCycles(t *testing.T) {
	tr := &workload.Trace{Version: workload.FormatVersion, Endpoints: 4}
	for i := 0; i < 12; i++ {
		tr.Entries = append(tr.Entries, workload.Entry{
			ID: int64(i), Cycle: int64(1 + i/2), Src: i % 4, Dst: (i + 1) % 4,
			Flits: 2, Msg: uint64(i), Dep: packet.NoDep,
		})
	}
	r, err := NewReplayer(tr, denseEndpoints(4), interleave.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	f := sinkFabric(4)
	injectedAt := map[uint64]int64{}
	f.Sink = func(p *packet.Packet, now int64) {
		injectedAt[p.ID] = p.CreatedAt
		r.OnDeliver(p, now)
	}
	for cy := int64(1); cy <= 200 && (r.Remaining() > 0 || f.InFlight() > 0); cy++ {
		r.Tick(f, cy)
		f.Step()
	}
	for i, e := range tr.Entries {
		if injectedAt[uint64(i)] != e.Cycle {
			t.Errorf("entry %d injected at %d, recorded cycle %d", i, injectedAt[uint64(i)], e.Cycle)
		}
	}
}

func TestReplayerDeterministic(t *testing.T) {
	run := func() []delivery {
		r, err := NewReplayer(replayTrace(), denseEndpoints(4), interleave.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		return driveSource(t, 4, r, 200, func() bool { return r.Remaining() == 0 })
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("replay delivery sequences differ:\n%v\n%v", a, b)
	}
}

// Snapshot -> Restore into a fresh replayer -> Snapshot must be a fixed
// point, including mid-run with in-flight packets and blocked waiters.
func TestReplayerSnapshotRoundTrip(t *testing.T) {
	tr := replayTrace()
	r, err := NewReplayer(tr, denseEndpoints(4), interleave.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	f := sinkFabric(4)
	f.Sink = func(p *packet.Packet, now int64) { r.OnDeliver(p, now) }
	r.SetMeasured(true)
	// Stop after cycle 2: entries 0 and 1 in flight, entry 2 blocked on 0.
	for cy := int64(1); cy <= 2; cy++ {
		r.Tick(f, cy)
		f.Step()
	}
	st := r.Snapshot()
	if st.Replay == nil {
		t.Fatal("replayer snapshot has no replay section")
	}
	// Entry 2 cannot have been injected yet (its dependency's delivery
	// gates it to cycle 3 at the earliest), so it is blocked: either still
	// waiting on the dependency or released and pending injection.
	if len(st.Replay.Waiting)+len(st.Replay.Pending) != 1 {
		t.Errorf("blocked set waiting=%v pending=%v, want exactly entry 2", st.Replay.Waiting, st.Replay.Pending)
	}
	r2, err := NewReplayer(tr, denseEndpoints(4), interleave.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Restore(&st); err != nil {
		t.Fatal(err)
	}
	st2 := r2.Snapshot()
	if !reflect.DeepEqual(st, st2) {
		t.Errorf("snapshot not a fixed point:\n in: %+v\nout: %+v", st, st2)
	}
	if r2.Remaining() != r.Remaining() {
		t.Errorf("restored Remaining %d, want %d", r2.Remaining(), r.Remaining())
	}
}

func TestReplayerRestoreMismatch(t *testing.T) {
	tr := replayTrace()
	r, _ := NewReplayer(tr, denseEndpoints(4), interleave.Policy{})
	// A synthetic-generator snapshot has no replay section.
	if err := r.Restore(&GeneratorState{}); err == nil {
		t.Errorf("generator snapshot accepted: %v", err)
	}
	// A snapshot from a longer trace does not fit.
	big := replayTrace()
	big.Entries = append(big.Entries, workload.Entry{ID: 3, Cycle: 9, Src: 0, Dst: 2, Flits: 1, Msg: 3})
	rb, _ := NewReplayer(big, denseEndpoints(4), interleave.Policy{})
	f := sinkFabric(4)
	f.Sink = func(p *packet.Packet, now int64) { rb.OnDeliver(p, now) }
	for cy := int64(1); cy <= 10; cy++ {
		rb.Tick(f, cy)
		f.Step()
	}
	st := rb.Snapshot()
	if err := r.Restore(&st); err == nil {
		t.Errorf("snapshot of a longer trace accepted: %v", err)
	}
	// The generator symmetrically refuses replayer snapshots.
	pat, _ := NewPattern("uniform", 4, 1)
	g, _ := NewGenerator(denseEndpoints(4), pat, 0.1, 4, 1, interleave.Policy{}, 1)
	rs := r.Snapshot()
	if err := g.Restore(&rs); err == nil {
		t.Errorf("generator restored a replayer snapshot: %v", err)
	}
}

func TestReplayerEndpointCountMismatch(t *testing.T) {
	if _, err := NewReplayer(replayTrace(), denseEndpoints(8), interleave.Policy{}); err == nil {
		t.Error("trace replayed onto a system with a different endpoint count")
	}
}

func aiSpec() workload.AIScaleOutSpec {
	return workload.AIScaleOutSpec{
		Collective: "allreduce-ring", DataFlits: 32, ComputeCycles: 20,
		Phases: 2, MemRate: 0.1, ReqRate: 0.05, ReqFlits: 2,
	}
}

func newAI(t *testing.T, n int, seed uint64) *AIScaleOut {
	t.Helper()
	spec := aiSpec()
	a, err := NewAIScaleOut(collective.RingAllReduce{VectorFlits: spec.DataFlits}, spec, denseEndpoints(n), 4, interleave.Policy{G: interleave.Message}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The generator must emit all three traffic classes, advance through its
// bounded phases, and annotate responses with their request's packet id.
func TestAIScaleOutClassesAndPhases(t *testing.T) {
	a := newAI(t, 4, 7)
	f := sinkFabric(4)
	classSeen := map[uint8]int{}
	responses := 0
	f.Sink = func(p *packet.Packet, now int64) {
		classSeen[p.Class]++
		if p.Class == packet.ClassLatency && p.Dep != packet.NoDep {
			responses++
		}
		a.OnDeliver(p, now)
	}
	a.SetMeasured(true)
	for cy := int64(1); cy <= 2000; cy++ {
		a.Tick(f, cy)
		f.Step()
	}
	if classSeen[packet.ClassCollective] == 0 || classSeen[packet.ClassBulk] == 0 || classSeen[packet.ClassLatency] == 0 {
		t.Errorf("class mix %v, want all three classes present", classSeen)
	}
	if responses == 0 {
		t.Error("no dependency-annotated responses delivered")
	}
	if a.Phases() != 2 {
		t.Errorf("completed %d phases, want the spec bound 2", a.Phases())
	}
}

func TestAIScaleOutDeterministic(t *testing.T) {
	run := func(seed uint64) []delivery {
		a := newAI(t, 4, seed)
		f := sinkFabric(4)
		var seq []delivery
		f.Sink = func(p *packet.Packet, now int64) {
			seq = append(seq, delivery{p.ID, now})
			a.OnDeliver(p, now)
		}
		a.SetMeasured(true)
		for cy := int64(1); cy <= 500; cy++ {
			a.Tick(f, cy)
			f.Step()
		}
		return seq
	}
	if a, b := run(3), run(3); !reflect.DeepEqual(a, b) {
		t.Error("identical seeds produced different delivery sequences")
	}
	if a, b := run(3), run(4); reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical delivery sequences")
	}
}

// Mid-run snapshot -> restore into a fresh generator -> snapshot must be
// a fixed point, with collective sends, requests and responses in flight.
func TestAIScaleOutSnapshotRoundTrip(t *testing.T) {
	a := newAI(t, 4, 11)
	f := sinkFabric(4)
	f.Sink = func(p *packet.Packet, now int64) { a.OnDeliver(p, now) }
	a.SetMeasured(true)
	for cy := int64(1); cy <= 40; cy++ {
		a.Tick(f, cy)
		f.Step()
	}
	st := a.Snapshot()
	if st.AIScaleOut == nil {
		t.Fatal("aiscaleout snapshot has no aiscaleout section")
	}
	b := newAI(t, 4, 999) // different seed: Restore must overwrite the streams
	if err := b.Restore(&st); err != nil {
		t.Fatal(err)
	}
	st2 := b.Snapshot()
	if !reflect.DeepEqual(st, st2) {
		t.Errorf("snapshot not a fixed point:\n in: %+v\nout: %+v", st, st2)
	}
	// Cross-source refusal: an aiscaleout snapshot does not restore into a
	// replayer or generator.
	r, _ := NewReplayer(replayTrace(), denseEndpoints(4), interleave.Policy{})
	if err := r.Restore(&st); err == nil {
		t.Errorf("replayer restored an aiscaleout snapshot: %v", err)
	}
}

func TestAIScaleOutValidation(t *testing.T) {
	spec := aiSpec()
	alg := collective.RingAllReduce{VectorFlits: spec.DataFlits}
	if _, err := NewAIScaleOut(alg, spec, denseEndpoints(1), 4, interleave.Policy{}, 1); err == nil {
		t.Error("single endpoint accepted")
	}
	if _, err := NewAIScaleOut(alg, spec, denseEndpoints(4), 0, interleave.Policy{}, 1); err == nil {
		t.Error("zero packet length accepted")
	}
	bad := spec
	bad.ReqFlits = 0
	if _, err := NewAIScaleOut(alg, bad, denseEndpoints(4), 4, interleave.Policy{}, 1); err == nil {
		t.Error("zero request length accepted")
	}
}

// fixedSchedule is a collective.Algorithm returning a canned schedule.
type fixedSchedule []collective.Send

func (fixedSchedule) Name() string                              { return "fixed" }
func (f fixedSchedule) Schedule(int) ([]collective.Send, error) { return f, nil }

// TestAIScaleOutRejectsMisdirectedDependency: send 1 leaves node 2 but
// waits on send 0, which is delivered to node 1. Node 2 never learns
// that send 0 arrived, so the schedule is not causal; collective.Run
// refuses it, and the generator must refuse it the same way.
func TestAIScaleOutRejectsMisdirectedDependency(t *testing.T) {
	alg := fixedSchedule{
		{ID: 0, Src: 0, Dst: 1, Flits: 4},
		{ID: 1, Src: 2, Dst: 3, Flits: 4, Deps: []int{0}},
	}
	_, err := NewAIScaleOut(alg, aiSpec(), denseEndpoints(4), 4, interleave.Policy{}, 1)
	if err == nil || !strings.Contains(err.Error(), "not delivered to node 2") {
		t.Errorf("err = %v, want the misdirected dependency rejected", err)
	}
}
