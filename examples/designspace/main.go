// Design-space exploration: the paper is a *methodology* for designing
// chiplet interconnects, and internal/dse turns it into an automated
// designer. Given a fixed budget of 16 identical chiplets, declare the
// constraints — candidate topology families, routing modes, interleaving
// grains, a per-chiplet pin budget — and the engine enumerates every
// feasible design, rejects the deadlock-prone ones with the static
// verifier before a single cycle is simulated, measures the survivors,
// and extracts the exact Pareto frontier over sustainable injection
// rate, zero-load latency and transport energy (the three axes of
// §VII).
//
// cmd/chipletdse is the command-line face of the same pipeline, with a
// persistent evaluation cache; this example shows the library flow.
package main

import (
	"fmt"
	"log"

	"chipletnet/internal/dse"
)

func main() {
	// The constraints: 16 chiplets, the full topology and routing axes
	// (including the deliberately deadlock-prone equal-channel mode the
	// verifier exists to catch), and a pin budget that every 4x4-NoC
	// design fits. Everything left zero takes the documented default.
	space := dse.Space{
		Chiplets:      16,
		Topologies:    []string{"mesh", "ndmesh", "hypercube", "tree"},
		Interleavings: []string{"none", "message"},
		PinBudgetBits: 1024, // 16 cross ports x 2 flits/cycle x 32 bits
	}
	params := dse.DefaultParams()

	// A memory-only store keeps the example self-contained; pass a
	// directory (as cmd/chipletdse -cache does) to persist evaluations
	// across runs and resume interrupted explorations.
	cache, err := dse.OpenStore("")
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	fmt.Println("exploring interconnects for a 16-chiplet budget (uniform traffic)...")
	outcome, err := dse.Explore(space, params, cache)
	if err != nil {
		log.Fatal(err)
	}
	plan := outcome.Plan
	fmt.Printf("  %d candidates: %d statically pruned, %d rejected by the deadlock pre-flight, %d measured\n",
		len(plan.Candidates)+len(plan.Rejected), len(plan.Pruned), len(plan.Rejected), outcome.Simulated)
	for _, r := range plan.Rejected {
		fmt.Printf("  rejected before simulation: %s\n", r.Name)
	}

	fmt.Println("\nPareto frontier (saturation max, zero-load latency min, energy min):")
	for i, r := range outcome.Frontier {
		fmt.Printf("  %d. %-42s sat %.2f flits/node/cycle, %5.1f cycles, %5.2f pJ/bit\n",
			i+1, r.Name, r.SatRate, r.ZeroLoadLatency, r.EnergyPJPerBit)
	}

	fmt.Println("\nAll of these reuse the identical 4x4-NoC chiplet — only the")
	fmt.Println("software-defined interface grouping and the package wiring differ.")
}
