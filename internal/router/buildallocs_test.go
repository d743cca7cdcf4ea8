package router_test

import (
	"testing"

	"chipletnet"
	"chipletnet/internal/router"
)

// TestBuildAllocs pins how many allocations one chipletnet.Build of a
// default-configured hypercube makes. The fabric's routers, ports, VCs
// and links and their small slices come from per-fabric slabs
// (slab.go), so the count grows with the chunks, not with the
// components: one heap object per component was about 53 allocations
// per router (54,331 for hypercube(6)).
func TestBuildAllocs(t *testing.T) {
	if router.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, c := range []struct {
		dims, max int
	}{
		{4, 250},
		{6, 500},
	} {
		cfg := chipletnet.DefaultConfig()
		cfg.Topology = chipletnet.HypercubeTopology(c.dims)
		allocs := testing.AllocsPerRun(5, func() {
			sys, err := chipletnet.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.Topo.Fabric.Close()
		})
		t.Logf("hypercube(%d): %.0f allocations per Build", c.dims, allocs)
		if allocs > float64(c.max) {
			t.Errorf("hypercube(%d): %.0f allocations per Build, want at most %d", c.dims, allocs, c.max)
		}
	}
}
