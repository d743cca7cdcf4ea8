package chipletnet

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"chipletnet/internal/verify"
)

// TestVerifyEachMatchesVerifyConfig: VerifyEach returns, position by
// position, exactly what VerifyConfig returns for each configuration —
// certified, rejected and unbuildable alike — under one and several
// workers.
func TestVerifyEachMatchesVerifyConfig(t *testing.T) {
	good := DefaultConfig()
	good.Topology = HypercubeTopology(3)
	cyclic := DefaultConfig()
	cyclic.Topology = NDMeshTopology(3, 2, 2)
	cyclic.DisableNDMeshVCSeparation = true
	cyclic.AllowUnsafeRouting = true
	su := DefaultConfig()
	su.Topology = MeshTopology(2, 3)
	su.Routing = RoutingSafeUnsafe
	broken := DefaultConfig()
	broken.Topology = Topology{Kind: "moebius", Dims: []int{3}}
	cfgs := []Config{good, cyclic, broken, su, good}
	opt := verify.Options{MaxDests: 8, MaxSources: 4}

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		reps, errs := VerifyEach(cfgs, opt)
		runtime.GOMAXPROCS(prev)
		if len(reps) != len(cfgs) || len(errs) != len(cfgs) {
			t.Fatalf("GOMAXPROCS %d: %d reports, %d errors for %d configs", procs, len(reps), len(errs), len(cfgs))
		}
		for i, cfg := range cfgs {
			want, werr := VerifyConfig(cfg, opt)
			if (errs[i] == nil) != (werr == nil) || (werr != nil && errs[i].Error() != werr.Error()) {
				t.Errorf("GOMAXPROCS %d, config %d: error %v, want %v", procs, i, errs[i], werr)
			}
			if !reflect.DeepEqual(reps[i], want) {
				t.Errorf("GOMAXPROCS %d, config %d: report differs from VerifyConfig's", procs, i)
			}
		}
		if reps[1] == nil || reps[1].Err() == nil || len(reps[1].Cycle) == 0 {
			t.Errorf("GOMAXPROCS %d: the equal-channel nD-mesh was not rejected with a cycle", procs)
		}
		if reps[2] != nil || errs[2] == nil {
			t.Errorf("GOMAXPROCS %d: unknown topology gave report %v, error %v", procs, reps[2], errs[2])
		}
	}
}

// TestVerifyEachPoolRecoversPanic: a panicking item of the shared worker
// pool comes back as that index's error, and every other item still runs
// to completion.
func TestVerifyEachPoolRecoversPanic(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("item 3 failed")
	errs := forEach(6, 2, func(i int) error {
		switch i {
		case 1:
			panic("boom at item 1")
		case 3:
			return sentinel
		}
		ran.Add(1)
		return nil
	})
	if got := ran.Load(); got != 4 {
		t.Errorf("%d items completed, want 4", got)
	}
	for i, err := range errs {
		switch i {
		case 1:
			if err == nil || !strings.Contains(err.Error(), "panic: boom at item 1") {
				t.Errorf("item 1: error %v, want the recovered panic", err)
			}
		case 3:
			if err != sentinel {
				t.Errorf("item 3: error %v, want %v", err, sentinel)
			}
		default:
			if err != nil {
				t.Errorf("item %d: unexpected error %v", i, err)
			}
		}
	}
}
