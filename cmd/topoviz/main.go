// Command topoviz inspects a built multi-chiplet topology: node labels and
// the interface ring of one chiplet, interface grouping, link counts, and
// node/chiplet diameters. It is the debugging companion of the library —
// what Fig. 3/5/7 of the paper show graphically, as text.
//
// Example:
//
//	topoviz -topology hypercube -dims 6 -noc 4x4
package main

import (
	"fmt"
	"sort"

	"chipletnet"
	"chipletnet/cmd/internal/cli"
	"chipletnet/internal/topology"
)

func main() {
	cfg := chipletnet.DefaultConfig()
	fs := cli.New("topoviz")
	fs.Topology(&cfg)
	chip := fs.Int("chiplet", 0, "chiplet index to detail")
	simRate := fs.Float64("sim", 0, "if > 0, run uniform traffic at this rate and show link utilization")
	fs.MustParse()

	sys, err := chipletnet.Build(cfg)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	s := sys.Topo

	fmt.Printf("topology:         %v\n", cfg.Topology)
	fmt.Printf("chiplets:         %d of %dx%d nodes (%d cores + %d interfaces each)\n",
		s.NumChiplets(), s.Geo.W, s.Geo.H, s.Geo.CoreCount(), s.Geo.RingLen())
	fmt.Printf("nodes:            %d total, %d traffic endpoints\n", len(s.Nodes), len(s.Cores))
	on, off := 0, 0
	for _, l := range s.Fabric.Links {
		if l.OffChip {
			off++
		} else {
			on++
		}
	}
	fmt.Printf("links:            %d on-chip + %d chiplet-to-chiplet (unidirectional)\n", on, off)
	nd, connected := s.Diameter()
	fmt.Printf("diameter:         %d node hops (connected=%v), %d chiplet hops\n",
		nd, connected, s.ChipletDiameter())

	if *chip < 0 || *chip >= s.NumChiplets() {
		cli.Fatalf("chiplet %d out of range", *chip)
	}
	c := &s.Chiplets[*chip]
	fmt.Printf("\nchiplet %d coordinate: %v\n", *chip, c.Coord)

	fmt.Println("\nnode labels (y rows top to bottom; negative = interface ring):")
	for y := s.Geo.H - 1; y >= 0; y-- {
		for x := 0; x < s.Geo.W; x++ {
			n := &s.Nodes[c.Nodes[s.Geo.Index(x, y)]]
			fmt.Printf("%5d", n.Label)
		}
		fmt.Println()
	}

	fmt.Println("\ninterface groups (ring position: node -> peer chiplet):")
	for g, members := range c.Groups {
		fmt.Printf("  group %d:", g)
		if len(members) == 0 {
			fmt.Printf(" (unconnected)")
		}
		for _, id := range members {
			n := &s.Nodes[id]
			cp := s.CrossPort(id)
			peer := s.Nodes[n.Ports[cp].To]
			fmt.Printf("  pos%d:(%d,%d)->chiplet%d", n.RingPos, n.X, n.Y, peer.Chiplet)
		}
		fmt.Println()
	}

	if s.Kind == topology.Tree {
		fmt.Println("\ntree structure:")
		for i, p := range s.Parent {
			fmt.Printf("  chiplet %d: parent %d children %v\n", i, p, s.Children[i])
		}
	}

	if *simRate > 0 {
		cfg2 := cfg
		cfg2.InjectionRate = *simRate
		cfg2.WarmupCycles = 300
		cfg2.MeasureCycles = 2000
		sys2, err := chipletnet.Build(cfg2)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		res, err := sys2.Simulate()
		if err != nil {
			cli.Fatalf("%v", err)
		}
		fmt.Printf("\nuniform traffic @ %.2f flits/node/cycle: latency %.1f, accepted %.3f\n",
			*simRate, res.AvgLatency, res.AcceptedFlitsPerNodeCycle)
		fmt.Printf("link utilization: off-chip avg %.1f%% peak %.1f%%, on-chip avg %.1f%%\n",
			100*res.AvgOffChipUtilization, 100*res.PeakOffChipUtilization, 100*res.AvgOnChipUtilization)

		// Per chiplet-pair heatmap of off-chip channel load.
		type pair struct{ a, b int }
		sum := map[pair]float64{}
		cnt := map[pair]int{}
		t2 := sys2.Topo
		for _, l := range t2.Fabric.Links {
			if !l.OffChip {
				continue
			}
			p := pair{t2.Nodes[l.Src.Node].Chiplet, t2.Nodes[l.Dst.Node].Chiplet}
			sum[p] += l.Utilization(t2.Fabric.Now)
			cnt[p]++
		}
		fmt.Println("\nbusiest chiplet-to-chiplet bundles (avg over member links):")
		type row struct {
			p pair
			u float64
		}
		var rows []row
		for p, s := range sum {
			rows = append(rows, row{p, s / float64(cnt[p])})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].u > rows[j].u })
		for i, r := range rows {
			if i >= 10 {
				break
			}
			fmt.Printf("  chiplet %3d -> %3d: %5.1f%%\n", r.p.a, r.p.b, 100*r.u)
		}
	}
}
