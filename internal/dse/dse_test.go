package dse

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestEnumerateDeterministic(t *testing.T) {
	s := Space{Chiplets: 16}
	p := DefaultParams()
	c1, pr1, err := s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, pr2, err := s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(pr1, pr2) {
		t.Error("Enumerate is not deterministic across calls")
	}
}

func TestEnumerate16(t *testing.T) {
	s := Space{Chiplets: 16}
	cands, pruned, err := s.Enumerate(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: a 16-chiplet budget must offer a substantial
	// search space.
	if len(cands) < 50 {
		t.Errorf("16-chiplet space has only %d candidates, want >= 50", len(cands))
	}
	// dragonfly-16 on a 4x4 NoC needs 15 groups from a 12-node ring.
	found := false
	for _, p := range pruned {
		if strings.HasPrefix(p.Name, "dragonfly-16") && strings.Contains(p.Reason, "cannot form") {
			found = true
		}
	}
	if !found {
		t.Errorf("dragonfly-16/noc4x4 should be pruned (12-node ring, 15 groups); pruned = %v", pruned)
	}

	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Name] {
			t.Errorf("duplicate candidate name %s", c.Name)
		}
		seen[c.Name] = true
		if c.Cfg.InjectionRate != 0 {
			t.Errorf("%s: candidate Config must leave InjectionRate 0", c.Name)
		}
		if c.Ports != 2*(c.Cfg.ChipletW+c.Cfg.ChipletH)-4 {
			t.Errorf("%s: Ports = %d, want ring length %d", c.Name, c.Ports, 2*(c.Cfg.ChipletW+c.Cfg.ChipletH)-4)
		}
		if c.Routing == RoutingEqualChannel {
			if k := c.Cfg.Topology.Kind; k != "ndmesh" && k != "ndtorus" {
				t.Errorf("%s: equal-channel enumerated for %s (only nD-mesh/torus have the mode)", c.Name, k)
			}
			if !c.Cfg.DisableNDMeshVCSeparation || !c.Cfg.AllowUnsafeRouting {
				t.Errorf("%s: equal-channel candidate missing its routing flags", c.Name)
			}
		}
	}
}

func TestEnumerateConstraints(t *testing.T) {
	p := DefaultParams()

	// MaxPorts below the 4x4 ring length (12) prunes everything grouped.
	s := Space{Chiplets: 16, MaxPorts: 8}
	cands, pruned, err := s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("MaxPorts=8 with a 12-port ring left %d candidates", len(cands))
	}
	if len(pruned) == 0 || !strings.Contains(pruned[len(pruned)-1].Reason, "port cap") {
		t.Errorf("expected port-cap pruning reasons, got %v", pruned)
	}

	// A pin budget below any candidate's demand prunes everything with a
	// pin-budget reason. The cheapest 16-chiplet design uses 11 cross
	// ports (dragonfly would, but it is ring-pruned) — flat mesh interior
	// chiplets use 16; grouped kinds use all 12; so 1 bit/cycle kills all.
	s = Space{Chiplets: 16, PinBudgetBits: 1}
	cands, pruned, err = s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("PinBudgetBits=1 left %d candidates", len(cands))
	}
	budgetReasons := 0
	for _, pr := range pruned {
		if strings.Contains(pr.Reason, "pin") || strings.Contains(pr.Reason, "budget") {
			budgetReasons++
		}
	}
	if budgetReasons == 0 {
		t.Errorf("expected pin-budget pruning reasons, got %v", pruned)
	}

	// A generous budget changes nothing.
	s = Space{Chiplets: 16, PinBudgetBits: 1 << 20}
	cands, _, err = s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	unconstrained, _, err := Space{Chiplets: 16}.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(unconstrained) {
		t.Errorf("generous pin budget pruned candidates: %d vs %d", len(cands), len(unconstrained))
	}

	// MinGroupWidth=2 on a 12-node ring excludes dragonfly-like high
	// degrees; hypercube-2^4 (4 groups of 3) survives.
	s = Space{Chiplets: 16, MinGroupWidth: 2, Topologies: []string{"hypercube", "tree"}}
	cands, pruned, err = s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Groups > 0 && c.GroupWidth < 2 {
			t.Errorf("%s: group width %d below required 2", c.Name, c.GroupWidth)
		}
	}
	// tree fanout 4 has 5 groups -> width 2 ok; all fanouts survive on a
	// 12-ring, so check the constraint at least filtered nothing wrongly.
	if len(cands) == 0 {
		t.Error("MinGroupWidth=2 should leave hypercube/tree candidates on a 12-node ring")
	}
	_ = pruned
}

func TestNormalizeRejectsBadSpaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Space
	}{
		{"tiny budget", Space{Chiplets: 1}},
		{"unknown topology", Space{Chiplets: 8, Topologies: []string{"torus3000"}}},
		{"unknown routing", Space{Chiplets: 8, Routings: []string{"magic"}}},
		{"NoC too small", Space{Chiplets: 8, NoCs: [][2]int{{2, 2}}}},
		{"bad bandwidth", Space{Chiplets: 8, OffChipBWs: []int{0}}},
		{"bad fan-out", Space{Chiplets: 8, TreeFanouts: []int{0}}},
	} {
		if _, err := tc.s.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, tc.s)
		}
	}
}

func TestShapesPruneImpossibleKinds(t *testing.T) {
	// 15 chiplets: no hypercube (not a power of two), no dragonfly (odd).
	s := Space{Chiplets: 15, Topologies: []string{"hypercube", "dragonfly"}}
	cands, pruned, err := s.Enumerate(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("15 chiplets should fit no hypercube/dragonfly, got %d candidates", len(cands))
	}
	if len(pruned) != 2 {
		t.Errorf("want 2 kind-level pruning entries, got %v", pruned)
	}
}

func TestNewPlanRejectsEqualChannel(t *testing.T) {
	// Every equal-channel candidate must be caught by the verify
	// pre-flight with a cycle witness before any simulation.
	s := Space{
		Chiplets:      8,
		Topologies:    []string{"ndmesh"},
		Routings:      []string{RoutingEqualChannel},
		Interleavings: []string{"none"},
	}
	cache, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(s, DefaultParams(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Candidates) != 0 {
		t.Errorf("equal-channel candidates passed verification: %d", len(plan.Candidates))
	}
	if len(plan.Rejected) == 0 {
		t.Fatal("no equal-channel candidates were rejected")
	}
	for _, r := range plan.Rejected {
		if !strings.Contains(r.Reason, "cycle") {
			t.Errorf("%s: rejection reason has no cycle witness: %s", r.Name, r.Reason)
		}
	}
}

// TestNewPlanAcrossGOMAXPROCS: NewPlan certifies its distinct routing
// structures in parallel, yet the plan — candidate, rejection and hit
// order, certificate strings and pending keys — must not depend on how
// many CPUs ran the analyses.
func TestNewPlanAcrossGOMAXPROCS(t *testing.T) {
	s := Space{
		Chiplets:      8,
		Topologies:    []string{"mesh", "ndmesh", "hypercube"},
		Interleavings: []string{"none", "packet"},
	}
	p := DefaultParams()
	empty, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := NewPlan(s, p, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Rejected) == 0 || len(seed.Pending) < 2 {
		t.Fatalf("space too small: %d rejected, %d pending", len(seed.Rejected), len(seed.Pending))
	}
	plans := map[int]*Plan{}
	for _, procs := range []int{1, 4} {
		// Cache every other verified candidate so the plan has hits too.
		// Each plan gets its own store, so both certify every structure
		// instead of the second reading the first's verdicts.
		cache, err := OpenStore("")
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range seed.Pending {
			if i%2 == 0 {
				rec := testRecord(e.Key, e.Candidate.Name)
				rec.Cert = e.Cert
				if err := cache.Put(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		prev := runtime.GOMAXPROCS(procs)
		plans[procs], err = NewPlan(s, p, cache)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if plans[procs].StoredVerdicts != 0 {
			t.Fatalf("GOMAXPROCS %d: %d verdicts from a store that holds none", procs, plans[procs].StoredVerdicts)
		}
	}
	if !reflect.DeepEqual(plans[1], plans[4]) {
		t.Errorf("plan depends on GOMAXPROCS:\n 1: %+v\n 4: %+v", plans[1].Rejected, plans[4].Rejected)
	}
	if len(plans[1].Hits) == 0 || len(plans[1].Pending) == 0 {
		t.Errorf("want both hits and pending evaluations, got %d and %d", len(plans[1].Hits), len(plans[1].Pending))
	}
	for _, r := range plans[1].Rejected {
		if r.Cert == "" {
			t.Errorf("%s: rejected without a certificate", r.Name)
		}
	}
}
