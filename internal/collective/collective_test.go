package collective

import (
	"testing"

	"chipletnet/internal/chiplet"
	"chipletnet/internal/interleave"
	"chipletnet/internal/routing"
	"chipletnet/internal/topology"
)

func buildSys(t *testing.T, kind string) *topology.System {
	t.Helper()
	lp := topology.LinkParams{
		VCs: 2, InternalBufFlits: 32, InterfaceBufFlits: 64,
		OnChipBW: 4, OffChipBW: 2, OnChipLatency: 1, OffChipLatency: 5,
		EjectBW: 4,
	}
	geo := chiplet.MustNew(4, 4)
	var sys *topology.System
	var err error
	switch kind {
	case "hypercube":
		sys, err = topology.BuildHypercube(geo, 3, lp)
	case "flat":
		sys, err = topology.BuildFlatMesh(geo, 4, 2, lp)
	}
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.New(sys, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Fabric.Routing = rt
	return sys
}

func TestSchedulesValidate(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		algs := []Algorithm{
			RecursiveDoublingAllReduce{VectorFlits: 64},
			RingAllReduce{VectorFlits: 64},
			AllGatherRing{BlockFlits: 16},
			AllToAll{BlockFlits: 8},
		}
		for _, a := range algs {
			sends, err := a.Schedule(n)
			if err != nil {
				t.Fatalf("%s(n=%d): %v", a.Name(), n, err)
			}
			if err := Validate(sends, n); err != nil {
				t.Errorf("%s(n=%d): %v", a.Name(), n, err)
			}
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	n := 8
	sends, _ := RecursiveDoublingAllReduce{VectorFlits: 32}.Schedule(n)
	if len(sends) != 3*n { // log2(8) rounds
		t.Errorf("recursive doubling: %d sends, want %d", len(sends), 3*n)
	}
	sends, _ = RingAllReduce{VectorFlits: 32}.Schedule(n)
	if len(sends) != 2*(n-1)*n {
		t.Errorf("ring: %d sends, want %d", len(sends), 2*(n-1)*n)
	}
	sends, _ = AllToAll{BlockFlits: 8}.Schedule(n)
	if len(sends) != n*(n-1) {
		t.Errorf("alltoall: %d sends, want %d", len(sends), n*(n-1))
	}
	if _, err := (RecursiveDoublingAllReduce{VectorFlits: 32}).Schedule(6); err == nil {
		t.Error("recursive doubling accepted non-power-of-two")
	}
	if _, err := (RingAllReduce{}).Schedule(4); err == nil {
		t.Error("zero vector accepted")
	}
}

func TestRunCollectivesOnHypercube(t *testing.T) {
	for _, alg := range []Algorithm{
		RecursiveDoublingAllReduce{VectorFlits: 128},
		RingAllReduce{VectorFlits: 128},
		AllGatherRing{BlockFlits: 32},
		AllToAll{BlockFlits: 32},
	} {
		sys := buildSys(t, "hypercube")
		res, err := Run(sys, alg, 32, interleave.Policy{G: interleave.Message})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.CompletionCycles <= 0 {
			t.Errorf("%s: completion %d", alg.Name(), res.CompletionCycles)
		}
		if res.BusBandwidth <= 0 {
			t.Errorf("%s: bandwidth %g", alg.Name(), res.BusBandwidth)
		}
		t.Logf("%-32s %6d cycles, %4d msgs, %.3f flits/cycle/node",
			alg.Name(), res.CompletionCycles, res.Messages, res.BusBandwidth)
	}
}

func TestDependenciesSerializeRounds(t *testing.T) {
	// With a vector so large that one round takes many cycles, recursive
	// doubling must take at least k times one round's duration.
	sysOne := buildSys(t, "hypercube")
	one, err := Run(sysOne, AllToAll{BlockFlits: 256}, 32, interleave.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	sysRD := buildSys(t, "hypercube")
	rd, err := Run(sysRD, RecursiveDoublingAllReduce{VectorFlits: 256}, 32, interleave.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// 32 participants? n = 8 chiplets * 4 cores = 32 -> 5 rounds.
	if rd.CompletionCycles < 5*60 { // each 256-flit round >= ~60 cycles
		t.Errorf("recursive doubling finished implausibly fast: %d cycles", rd.CompletionCycles)
	}
	_ = one
}

func TestRunRejectsBadSchedules(t *testing.T) {
	sys := buildSys(t, "hypercube")
	bad := scheduleFunc{name: "bad", sends: []Send{{ID: 0, Src: 0, Dst: 0, Flits: 1}}}
	if _, err := Run(sys, bad, 32, interleave.Policy{}); err == nil {
		t.Error("self-send accepted")
	}
	sys2 := buildSys(t, "hypercube")
	circ := scheduleFunc{name: "circular", sends: []Send{
		{ID: 0, Src: 0, Dst: 1, Flits: 1, Deps: []int{1}},
		{ID: 1, Src: 1, Dst: 0, Flits: 1, Deps: []int{0}},
	}}
	if _, err := Run(sys2, circ, 32, interleave.Policy{}); err == nil {
		t.Error("circular dependency accepted")
	}
}

type scheduleFunc struct {
	name  string
	sends []Send
}

func (s scheduleFunc) Name() string                   { return s.name }
func (s scheduleFunc) Schedule(n int) ([]Send, error) { return s.sends, nil }
