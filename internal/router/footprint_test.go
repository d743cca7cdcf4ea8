package router_test

import (
	"testing"

	"chipletnet"
	"chipletnet/internal/router"
)

// TestLinkFlitRingFootprint is the fabric-level half of
// TestFifoCompaction: a link accepts at most one bundle per cycle and
// holds each for Latency cycles, so after a fault-free loaded run no
// link's flit ring may have grown past nextPow2(max(4, Latency)) slots.
// It lives in the external test package because building a system needs
// the topology and routing packages, which import this one.
func TestLinkFlitRingFootprint(t *testing.T) {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(4)
	cfg.InjectionRate = 0.30
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	sys, err := chipletnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	grown := 0
	for _, l := range sys.Topo.Fabric.Links {
		bound := 4
		for bound < l.Latency {
			bound *= 2
		}
		got := router.FlitRingCap(l)
		if got > bound {
			t.Errorf("link %d (latency %d): flit ring has %d slots, want <= %d", l.ID, l.Latency, got, bound)
		}
		if got > 0 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no link carried a flit; the bound was not exercised")
	}
}
