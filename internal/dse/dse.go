// Package dse explores the chiplet-interconnect design space — the
// paper's actual deliverable. The paper is a *methodology* for designing
// the interconnection network of a multi-chiplet system: pick an
// interface grouping, a chiplet-level topology, a routing mode and an
// interleaving grain for a given chiplet budget. This package turns that
// methodology into an automated designer:
//
//  1. Space declares the constraints (chiplet budget, candidate NoC
//     sizes, topology families, routing modes, interleaving grains,
//     off-chip bandwidths, per-chiplet port and pin budgets) and
//     Enumerate expands them into fully-resolved candidate Configs,
//     pruning statically infeasible combinations (grids that do not
//     factor, rings too short for the required grouping, pin budgets
//     exceeded) with recorded reasons.
//  2. NewPlan runs the internal/verify channel-dependency-graph
//     pre-flight over the statically feasible candidates and rejects
//     deadlock-prone designs (e.g. the equal-channel nD-mesh mode)
//     before a single cycle is simulated, then splits the survivors
//     into cache hits and pending evaluations. The pre-flight runs once
//     per distinct routing structure per Store: the store keeps every
//     verdict, keyed by chipletnet.RoutingStructureKey, the pre-flight
//     bounds and verify.Version, so a later plan — in this process or
//     another on the same store directory — certifies only structures
//     the store has never seen.
//  3. Evaluate measures the pending candidates on the cycle engine —
//     per candidate a zero-load probe for latency and transport energy
//     plus a rate ladder for the sustainable injection rate — in chunks
//     through chipletnet.RunMany, the module root's parallel executor
//     (internal packages spawn no goroutines; see cmd/chipletlint).
//     Results are content-addressed: Key hashes the fully-resolved
//     Config and evaluation parameters, and Store persists Records as
//     fsynced JSONL shards, so overlapping sweeps and re-runs skip
//     simulation entirely and a killed exploration resumes where it
//     stopped.
//  4. Frontier extracts the exact Pareto frontier over (saturation
//     rate, zero-load latency, energy) with deterministic tie-breaking;
//     export.go emits ranked CSV/JSON reports and topoviz-compatible
//     descriptions of each frontier design.
//
// cmd/chipletdse drives the package from the command line;
// examples/designspace shows the library flow.
package dse

import (
	"fmt"
	"sort"
	"strings"

	"chipletnet"
	"chipletnet/internal/chiplet"
	"chipletnet/internal/workload"
)

// Routing mode names of the search axis. They map onto the simulator's
// modes as follows:
//
//   - "mfr": minus-first routing with the safe/unsafe flow control of
//     Algorithm 5 (chipletnet.RoutingSafeUnsafe) — the paper's baseline
//     deadlock-avoidance scheme.
//   - "adaptive": MFR-based adaptive routing with Duato escape channels
//     (chipletnet.RoutingDuato).
//   - "equal-channel": adaptive routing with the Theorem-1 d+/d- virtual
//     channel separation disabled on nD-mesh/torus interface segments.
//     This mode is deadlock-prone by construction; it is enumerated so
//     the verify pre-flight can demonstrate the rejection, and it never
//     reaches simulation.
const (
	RoutingMFR          = "mfr"
	RoutingAdaptive     = "adaptive"
	RoutingEqualChannel = "equal-channel"
)

// RoutingModes lists the routing-axis names in canonical order.
func RoutingModes() []string {
	return []string{RoutingMFR, RoutingAdaptive, RoutingEqualChannel}
}

// TopologyKinds lists the enumerable topology families in canonical
// order. Custom (irregular edge-list) topologies have no declarative
// generator and are not part of the search space.
func TopologyKinds() []string {
	return []string{"mesh", "ndmesh", "ndtorus", "hypercube", "dragonfly", "tree"}
}

// Space declares the design-space constraints. The zero value of every
// field means "the default axis" (see Normalize); Chiplets is the only
// mandatory field.
type Space struct {
	// Chiplets is the chiplet budget: every candidate uses exactly this
	// many identical chiplets.
	Chiplets int

	// NoCs are the candidate on-chiplet 2D-mesh sizes (W, H). The NoC
	// size fixes the interface ring length 2(W+H)-4 — the per-chiplet
	// port count the grouping divides among neighbors. Default {4, 4}.
	NoCs [][2]int

	// Topologies restricts the topology families (TopologyKinds subset).
	// Default: all enumerable kinds.
	Topologies []string

	// Routings restricts the routing-mode axis (RoutingModes subset).
	// Default: all three, including the deadlock-prone equal-channel
	// mode the verify pre-flight exists to reject.
	Routings []string

	// Interleavings restricts the interleaving grains ("none", "message",
	// "packet"). Default: all three.
	Interleavings []string

	// OffChipBWs are the candidate chiplet-to-chiplet bandwidths in
	// flits/cycle. Default {2} (64 bits/cycle at 32-bit flits).
	OffChipBWs []int

	// TreeFanouts are the candidate tree fan-outs. Default {2, 3, 4}.
	TreeFanouts []int

	// MaxPorts caps the interface-node count per chiplet (the ring
	// length); 0 means unconstrained. A chiplet's ports are its
	// physical beachfront — the paper's motivation for grouping.
	MaxPorts int

	// PinBudgetBits caps the per-chiplet off-chip signal budget in
	// bits/cycle per direction: (cross-linked ports) × OffChipBW ×
	// FlitBits must not exceed it. 0 means unconstrained.
	PinBudgetBits int

	// MinGroupWidth demands at least this many interface nodes per
	// connected group (link redundancy for fault tolerance); 0 or 1
	// means unconstrained.
	MinGroupWidth int

	// Pattern is the traffic pattern candidates are evaluated under.
	// Default "uniform".
	Pattern string

	// Workloads are the workload specs candidates are evaluated under
	// (Config.Workload values; "" is the synthetic Bernoulli process).
	// Non-synthetic workloads skip the rate ladder — the source sets its
	// own load — and are measured with a single run. Replay traces are
	// content-addressed into the cache key, so editing a trace file
	// invalidates its cached evaluations. Default {""}.
	Workloads []string
}

// Normalize fills defaulted axes and validates the space.
func (s Space) Normalize() (Space, error) {
	if s.Chiplets < 2 {
		return s, fmt.Errorf("dse: chiplet budget must be at least 2, got %d", s.Chiplets)
	}
	if len(s.NoCs) == 0 {
		s.NoCs = [][2]int{{4, 4}}
	}
	for _, noc := range s.NoCs {
		if noc[0] < 3 || noc[1] < 3 {
			return s, fmt.Errorf("dse: NoC %dx%d has no core nodes (need >= 3x3)", noc[0], noc[1])
		}
	}
	if len(s.Topologies) == 0 {
		s.Topologies = TopologyKinds()
	}
	known := map[string]bool{}
	for _, k := range TopologyKinds() {
		known[k] = true
	}
	for _, k := range s.Topologies {
		if !known[k] {
			return s, fmt.Errorf("dse: unknown topology kind %q (want one of %s)", k, strings.Join(TopologyKinds(), ", "))
		}
	}
	if len(s.Routings) == 0 {
		s.Routings = RoutingModes()
	}
	for _, r := range s.Routings {
		switch r {
		case RoutingMFR, RoutingAdaptive, RoutingEqualChannel:
		default:
			return s, fmt.Errorf("dse: unknown routing mode %q (want one of %s)", r, strings.Join(RoutingModes(), ", "))
		}
	}
	if len(s.Interleavings) == 0 {
		s.Interleavings = []string{"none", "message", "packet"}
	}
	if len(s.OffChipBWs) == 0 {
		s.OffChipBWs = []int{2}
	}
	for _, bw := range s.OffChipBWs {
		if bw < 1 {
			return s, fmt.Errorf("dse: off-chip bandwidth must be positive, got %d", bw)
		}
	}
	if len(s.TreeFanouts) == 0 {
		s.TreeFanouts = []int{2, 3, 4}
	}
	for _, f := range s.TreeFanouts {
		if f < 1 {
			return s, fmt.Errorf("dse: tree fan-out must be positive, got %d", f)
		}
	}
	if s.Pattern == "" {
		s.Pattern = "uniform"
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []string{""}
	}
	for _, w := range s.Workloads {
		if _, _, err := workload.Split(w); err != nil {
			return s, err
		}
	}
	return s, nil
}

// workloadAxisName renders a workload spec as a candidate-name segment
// (path separators and the kind colon flattened).
func workloadAxisName(spec string) string {
	return strings.NewReplacer(":", "-", "/", "_").Replace(spec)
}

// Candidate is one fully-resolved design point: a runnable Config plus
// the static properties the constraints were checked against.
type Candidate struct {
	// Name identifies the candidate deterministically, e.g.
	// "ndmesh-4x2x2/noc4x4/adaptive/message/bw2".
	Name string
	// Cfg is the fully-resolved configuration with InjectionRate left 0
	// (the evaluation sweeps it).
	Cfg chipletnet.Config
	// Routing is the search-axis routing name (RoutingMFR, ...).
	Routing string

	// Groups is the chiplet degree: the number of abstract interfaces
	// the ring is clustered into (0 for the ungrouped flat mesh).
	Groups int
	// GroupWidth is the smallest group size (link redundancy).
	GroupWidth int
	// Ports is the interface-node count per chiplet, 2(W+H)-4.
	Ports int
	// PinBits is the per-chiplet off-chip signal budget consumed, in
	// bits/cycle per direction: cross-linked ports × OffChipBW × FlitBits.
	PinBits int
}

// Pruned records one statically infeasible combination and why it was
// dropped before verification.
type Pruned struct {
	Name   string
	Reason string
}

// shape is one topology parameterization matching the chiplet budget.
type shape struct {
	name   string // e.g. "ndmesh-4x2x2"
	topo   chipletnet.Topology
	groups int // chiplet degree (interface groups); 0 = ungrouped flat mesh
}

// meshShapes enumerates cx <= cy grids with cx*cy == n.
func meshShapes(n int) []shape {
	var out []shape
	for cx := 1; cx*cx <= n; cx++ {
		if n%cx != 0 {
			continue
		}
		cy := n / cx
		out = append(out, shape{
			name:   fmt.Sprintf("mesh-%dx%d", cx, cy),
			topo:   chipletnet.MeshTopology(cx, cy),
			groups: 0,
		})
	}
	return out
}

// factorizations enumerates the multiplicative compositions of n into
// non-increasing factors >= 2 with at least minLen parts, in
// deterministic (largest-first) order.
func factorizations(n, minLen int) [][]int {
	var out [][]int
	var cur []int
	var rec func(rem, maxF int)
	rec = func(rem, maxF int) {
		if rem == 1 {
			if len(cur) >= minLen {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		for f := min(maxF, rem); f >= 2; f-- {
			if rem%f != 0 {
				continue
			}
			cur = append(cur, f)
			rec(rem/f, f)
			cur = cur[:len(cur)-1]
		}
	}
	rec(n, n)
	return out
}

func dimsName(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

// shapes enumerates the topology parameterizations of one kind for the
// chiplet budget. An empty result with a non-empty reason means the kind
// cannot meet the budget at all (one Pruned entry covers it).
func (s Space) shapes(kind string) ([]shape, string) {
	n := s.Chiplets
	switch kind {
	case "mesh":
		return meshShapes(n), ""
	case "ndmesh", "ndtorus":
		facs := factorizations(n, 2)
		if len(facs) == 0 {
			return nil, fmt.Sprintf("%d chiplets have no >= 2-dimensional factorization", n)
		}
		var out []shape
		for _, dims := range facs {
			topo := chipletnet.NDMeshTopology(dims...)
			if kind == "ndtorus" {
				topo = chipletnet.NDTorusTopology(dims...)
			}
			out = append(out, shape{
				name:   fmt.Sprintf("%s-%s", kind, dimsName(dims)),
				topo:   topo,
				groups: 2 * len(dims),
			})
		}
		return out, ""
	case "hypercube":
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		if 1<<uint(d) != n {
			return nil, fmt.Sprintf("%d chiplets is not a power of two", n)
		}
		return []shape{{
			name:   fmt.Sprintf("hypercube-2^%d", d),
			topo:   chipletnet.HypercubeTopology(d),
			groups: d,
		}}, ""
	case "dragonfly":
		if n%2 != 0 {
			return nil, fmt.Sprintf("%d chiplets is odd (label-consistent grouping needs an even count)", n)
		}
		return []shape{{
			name:   fmt.Sprintf("dragonfly-%d", n),
			topo:   chipletnet.DragonflyTopology(n),
			groups: n - 1,
		}}, ""
	case "tree":
		var out []shape
		for _, f := range s.TreeFanouts {
			out = append(out, shape{
				name:   fmt.Sprintf("tree-%d-fanout%d", n, f),
				topo:   chipletnet.TreeTopology(n, f),
				groups: f + 1,
			})
		}
		return out, ""
	}
	return nil, fmt.Sprintf("unknown topology kind %q", kind)
}

// crossPorts returns the maximum number of cross-linked interface nodes
// any chiplet of the shape uses, for the pin-budget check.
func crossPorts(geo chiplet.Geometry, topo chipletnet.Topology) int {
	ring := geo.RingLen()
	switch topo.Kind {
	case "mesh":
		// Stitched baseline: a full edge of W or H nodes per adjacent
		// chiplet; corner nodes serve two neighbors, so an interior
		// chiplet of a >= 3x3 grid drives 2W+2H cross links.
		cx, cy := topo.Dims[0], topo.Dims[1]
		nx, ny := min(cx-1, 2), min(cy-1, 2)
		return nx*geo.H + ny*geo.W
	case "dragonfly":
		// Ring position 0 is excluded from cross links by construction.
		return ring - 1
	case "tree":
		// An interior chiplet with a full complement of children links
		// every group; the root and leaves use fewer.
		return ring
	default:
		// Grouped regular topologies link every ring node.
		return ring
	}
}

// Enumerate expands the space into statically feasible candidates plus
// the pruned combinations with reasons. Both lists are deterministic:
// nested loops over the normalized axes in declaration order. Candidates
// are fully resolved against params (cycle counts, seed, pattern) so
// their content hash is the evaluation cache key.
func (s Space) Enumerate(p Params) (feasible []Candidate, pruned []Pruned, err error) {
	s, err = s.Normalize()
	if err != nil {
		return nil, nil, err
	}
	p = p.normalize()

	for _, kind := range s.Topologies {
		shapes, kindReason := s.shapes(kind)
		if kindReason != "" {
			pruned = append(pruned, Pruned{Name: kind, Reason: kindReason})
			continue
		}
		for _, sh := range shapes {
			for _, noc := range s.NoCs {
				geo, gerr := chiplet.New(noc[0], noc[1])
				if gerr != nil {
					return nil, nil, gerr
				}
				base := fmt.Sprintf("%s/noc%dx%d", sh.name, noc[0], noc[1])
				ring := geo.RingLen()
				if s.MaxPorts > 0 && ring > s.MaxPorts {
					pruned = append(pruned, Pruned{Name: base,
						Reason: fmt.Sprintf("%d interface ports exceed the %d-port cap", ring, s.MaxPorts)})
					continue
				}
				if sh.groups > ring {
					pruned = append(pruned, Pruned{Name: base,
						Reason: fmt.Sprintf("ring of %d interface nodes cannot form %d groups", ring, sh.groups)})
					continue
				}
				width := ring
				if sh.groups > 0 {
					width = ring / sh.groups
				}
				if s.MinGroupWidth > 1 && sh.groups > 0 && width < s.MinGroupWidth {
					pruned = append(pruned, Pruned{Name: base,
						Reason: fmt.Sprintf("group width %d below the required %d (no link redundancy)", width, s.MinGroupWidth)})
					continue
				}
				for _, bw := range s.OffChipBWs {
					ports := crossPorts(geo, sh.topo)
					pinBits := ports * bw * p.Base.FlitBits
					bwBase := fmt.Sprintf("%s/bw%d", base, bw)
					if s.PinBudgetBits > 0 && pinBits > s.PinBudgetBits {
						pruned = append(pruned, Pruned{Name: bwBase,
							Reason: fmt.Sprintf("%d bits/cycle of off-chip pins exceed the %d-bit budget", pinBits, s.PinBudgetBits)})
						continue
					}
					for _, routing := range s.Routings {
						if routing == RoutingEqualChannel && kind != "ndmesh" && kind != "ndtorus" {
							// The equal-channel mode only exists on nD-mesh/
							// torus interface segments; elsewhere it would
							// duplicate the adaptive candidate.
							continue
						}
						for _, il := range s.Interleavings {
							for _, wl := range s.Workloads {
								name := fmt.Sprintf("%s/noc%dx%d/%s/%s/bw%d", sh.name, noc[0], noc[1], routing, il, bw)
								if wl != "" {
									name += "/" + workloadAxisName(wl)
								}
								cand := Candidate{
									Name:       name,
									Routing:    routing,
									Groups:     sh.groups,
									GroupWidth: width,
									Ports:      ring,
									PinBits:    pinBits,
								}
								cfg := p.Base
								cfg.ChipletW, cfg.ChipletH = noc[0], noc[1]
								cfg.Topology = sh.topo
								cfg.OffChipBW = bw
								cfg.Interleave = il
								cfg.Pattern = s.Pattern
								cfg.Workload = wl
								cfg.WarmupCycles = p.WarmupCycles
								cfg.MeasureCycles = p.MeasureCycles
								cfg.Seed = p.Seed
								cfg.InjectionRate = 0
								switch routing {
								case RoutingMFR:
									cfg.Routing = chipletnet.RoutingSafeUnsafe
								case RoutingAdaptive:
									cfg.Routing = chipletnet.RoutingDuato
								case RoutingEqualChannel:
									cfg.Routing = chipletnet.RoutingDuato
									cfg.DisableNDMeshVCSeparation = true
									cfg.AllowUnsafeRouting = true
								}
								cand.Cfg = cfg
								feasible = append(feasible, cand)
							}
						}
					}
				}
			}
		}
	}
	sort.SliceStable(pruned, func(i, j int) bool { return pruned[i].Name < pruned[j].Name })
	return feasible, pruned, nil
}
