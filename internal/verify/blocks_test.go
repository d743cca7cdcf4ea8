package verify_test

import (
	"reflect"
	"strings"
	"testing"

	"chipletnet"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/routing"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

// splitWildEscapeRouting is wildEscapeRouting with two off-grid escape
// channels: a -> b on VC 0 for destinations below mid and on VC 1 from
// mid on, so a block that starts at mid or later numbers them in the
// other order than the whole traversal does.
type splitWildEscapeRouting struct {
	wildEscapeRouting
	mid int
}

func (w *splitWildEscapeRouting) EscapeStep(v int, p *packet.Packet) (int, int, bool) {
	inner := w.wildEscapeRouting
	if p.Dst >= w.mid {
		inner.vc = 1
	}
	return inner.EscapeStep(v, p)
}

// blockOutput is what one analysis hands out: the report, its
// certificate address and, when the tables were compiled, their address.
type blockOutput struct {
	rep         *verify.Report
	cert, table string
}

// TestCertifyIndependentOfBlocks: pass 1 split into k destination blocks,
// with the destination-chiplet memo on or off, must report exactly what
// the single block without the memo reports, for k of 1, 2, 3, 5 and more
// than there are destinations — on the five 64-chiplet build-compiled
// systems and a faulted hypercube under full analysis (certificate and
// compiled tables) and under the DSE pre-flight bounds, on the negative
// fixtures (equal-channel nD-mesh cycle, hypercube-2 livelock, a
// continuation only pass 2 asks), on witness truncation spread over many
// rounds, on escape channels off the link grid, and on routings that
// panic in pass 1 or in pass 2. The 64-chiplet systems have 4 cores per
// chiplet, so at k = 3 and k = 5 a block boundary (destination 85 and 51
// of 256) splits one chiplet's destinations between two blocks, and at
// k above the destination count no block has two destinations of one
// chiplet, which leaves the memo unused.
//
// Each of these mutations of the memo (verify.go, memoFor and offMemo)
// fails this test: not resetting the memo when the destination chiplet
// changes; keying it by node without the tag class; using it at nodes
// inside the destination chiplet.
func TestCertifyIndependentOfBlocks(t *testing.T) {
	type tc struct {
		name string
		run  func() blockOutput
	}
	var cases []tc
	analyze := func(sys *topology.System, opt verify.Options) func() blockOutput {
		return func() blockOutput {
			rep := verify.Run(sys, opt)
			return blockOutput{rep: rep, cert: rep.Certificate().Hash()}
		}
	}
	for _, sh := range []struct {
		topo   chipletnet.Topology
		faults float64
	}{
		{chipletnet.MeshTopology(8, 8), 0},
		{chipletnet.NDMeshTopology(4, 4, 4), 0},
		{chipletnet.HypercubeTopology(6), 0},
		{chipletnet.HypercubeTopology(6), 0.25},
		{chipletnet.DragonflyTopology(12), 0},
		{chipletnet.TreeTopology(64, 4), 0},
	} {
		topo := sh.topo
		cfg := chipletnet.DefaultConfig()
		cfg.Topology = topo
		cfg.CrossLinkFaultFraction, cfg.Seed = sh.faults, 7
		sys, err := chipletnet.Build(cfg)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		name := topo.String()
		if sh.faults > 0 {
			name += "-faults"
		}
		cases = append(cases, tc{name + "|compile", func() blockOutput {
			comp, rep, err := routing.Compile(sys.Topo)
			if err != nil {
				t.Fatalf("%v: compile: %v", topo, err)
			}
			return blockOutput{rep: rep, cert: rep.Certificate().Hash(), table: comp.TableHash()}
		}})
		cases = append(cases, tc{name + "|preflight",
			analyze(sys.Topo, verify.Options{MaxDests: 16, MaxSources: 8})})
	}

	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(2)
	hc2, err := chipletnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"hypercube-2|livelock", analyze(hc2.Topo, verify.Options{})},
		tc{"hypercube-2|livelock-1-witness", analyze(hc2.Topo, verify.Options{MaxWitnesses: 1})})

	duato := routing.Options{Mode: routing.DuatoEscape}
	su := routing.Options{Mode: routing.SafeUnsafe}
	fixture := func(name string, opt routing.Options) *topology.System {
		sys := build(t, name)
		install(t, sys, opt)
		return sys
	}
	cases = append(cases, tc{"ndmesh-3x2x2|equal-channel", analyze(fixture("ndmesh-3x2x2",
		routing.Options{DisableNDMeshVCSeparation: true, AllowUnsafe: true}), verify.Options{})})

	for _, panicAt := range []bool{false, true} {
		const dst, at = 5, 6
		sys := fixture("mesh-3x3", duato)
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			var esc verify.EscapeAnalyzer = &tableEscapeRouting{EscapeAnalyzer: inner, dst: dst}
			if panicAt {
				esc = &panicEscapeRouting{EscapeAnalyzer: esc, at: at, dst: dst}
			}
			return &deadEndRouting{EscapeAnalyzer: esc, at: at, dst: dst}
		})
		name := "mesh-3x3|dead-end-continuation"
		if panicAt {
			name += "-panic"
		}
		cases = append(cases, tc{name, analyze(sys, verify.Options{MaxSources: len(sys.Cores) / 2})})
	}

	for _, mode := range []routing.Options{duato, su} {
		sys := fixture("hypercube-4", mode)
		a, b := sys.Cores[0], sys.Cores[len(sys.Cores)-1]
		mid := sys.Cores[len(sys.Cores)/2]
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &splitWildEscapeRouting{wildEscapeRouting{EscapeAnalyzer: inner, a: a, b: b}, mid}
		})
		cases = append(cases, tc{"hypercube-4|split-wild-escape-" + mode.Mode.String(), analyze(sys, verify.Options{})})

		sys = fixture("hypercube-4", mode)
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &wildEscapeRouting{EscapeAnalyzer: inner, a: a, b: b, vc: 2}
		})
		cases = append(cases, tc{"hypercube-4|wild-escape-1-witness-" + mode.Mode.String(),
			analyze(sys, verify.Options{MaxWitnesses: 1})})

		sys = fixture("hypercube-4", mode)
		at, dst := sys.Cores[5], sys.Cores[9]
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &panicEscapeRouting{EscapeAnalyzer: inner, at: at, dst: dst}
		})
		cases = append(cases, tc{"hypercube-4|panic-escape-" + mode.Mode.String(), analyze(sys, verify.Options{})})
	}

	for _, c := range cases {
		restoreMemo := verify.SetChipletMemo(false)
		restore := verify.SetBlocks(1)
		want := c.run()
		restore()
		restoreMemo()
		if strings.Contains(c.name, "panic") != (want.rep.Panic != "") {
			t.Errorf("%s: panic %q", c.name, want.rep.Panic)
		}
		if strings.Contains(c.name, "1-witness") && want.rep.Truncated == 0 {
			t.Errorf("%s: nothing truncated", c.name)
		}
		for _, memo := range []bool{false, true} {
			for _, k := range []int{1, 2, 3, 5, 1 << 20} {
				if !memo && k == 1 {
					continue
				}
				restoreMemo := verify.SetChipletMemo(memo)
				restore := verify.SetBlocks(k)
				got := c.run()
				restore()
				restoreMemo()
				if !reflect.DeepEqual(got.rep, want.rep) {
					t.Errorf("%s: %d blocks, memo %v report\n%s\nwant (1 block, no memo)\n%s", c.name, k, memo, got.rep, want.rep)
				}
				if got.cert != want.cert || got.table != want.table {
					t.Errorf("%s: %d blocks, memo %v certificate %s table %s, want %s and %s",
						c.name, k, memo, got.cert, got.table, want.cert, want.table)
				}
			}
		}
	}
}
