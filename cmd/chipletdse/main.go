// Command chipletdse explores the chiplet-interconnect design space:
// it enumerates every candidate design meeting the declared constraints
// (chiplet budget, NoC sizes, topology families, routing modes,
// interleaving grains, port/pin budgets), statically rejects
// deadlock-prone routing with the internal/verify pre-flight, evaluates
// the survivors in parallel on the cycle engine, and reports the exact
// Pareto frontier over (saturation rate, zero-load latency, transport
// energy).
//
// Evaluations are content-addressed: -cache DIR persists every
// measured candidate keyed by the hash of its fully-resolved
// configuration, as 16 JSONL shards by hash prefix, so overlapping
// sweeps and re-runs skip simulation entirely (a repeated run is 100%
// cache hits and reproduces the reports byte for byte), and a killed
// exploration resumes where it stopped. Cache directories populated on
// different machines merge losslessly with -merge, and the merged cache
// reproduces the single-machine reports byte for byte. -merge also
// reads a single-file cache written before the cache became a
// directory; that is the migration path (-cache refuses such a file).
// Merging into a fresh directory likewise rewrites a cache of legacy
// gob-encoded lines as plain JSON lines, which open several times faster.
//
// Candidates are evaluated in chunks of about GOMAXPROCS simulation runs
// (dse.Evaluate), each chunk cached before the next starts.
//
// Examples:
//
//	chipletdse -chiplets 16 -cache dse-cache/ -out results/dse
//	chipletdse -chiplets 16 -pin-budget 1024 -min-group-width 2 -json
//	chipletdse -chiplets 64 -topologies hypercube,ndmesh -rates 0.05,0.2,0.4
//	chipletdse -cache merged/ -merge hostA-cache/,hostB-cache/
//	chipletdse -cache dse-cache/ -merge old-dse.jsonl
//
// Exit status: 0 on success, 1 on usage or evaluation errors, 2 when a
// verified candidate deadlocked at runtime (a cross-validation failure
// of the static pre-flight; the diagnostic snapshot is printed, like
// chipletsim -json).
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"chipletnet/cmd/internal/cli"
	"chipletnet/internal/dse"
)

func main() {
	fs := cli.New("chipletdse")
	space := dse.Space{NoCs: [][2]int{{4, 4}}}
	var params dse.Params // zero fields take dse.DefaultParams
	var mergeSrcs []string
	fs.IntVar(&space.Chiplets, "chiplets", 16, "chiplet budget (every candidate uses exactly this many)")
	fs.NoCsVar(&space.NoCs, "noc", "candidate on-chiplet NoC sizes, comma separated (e.g. 4x4,8x8)")
	fs.ListVar(&space.Topologies, "topologies", "topology families to search, comma separated (default all: "+strings.Join(dse.TopologyKinds(), ",")+")")
	fs.ListVar(&space.Routings, "routing", "routing modes to search, comma separated (default all: "+strings.Join(dse.RoutingModes(), ",")+")")
	fs.ListVar(&space.Interleavings, "interleave", "interleaving grains to search, comma separated (default none,message,packet)")
	fs.IntsVar(&space.OffChipBWs, "offchip-bw", "chiplet-to-chiplet bandwidths in flits/cycle, comma separated (default 2)")
	fs.IntsVar(&space.TreeFanouts, "tree-fanouts", "tree fan-outs to search, comma separated (default 2,3,4)")
	fs.IntVar(&space.MaxPorts, "max-ports", 0, "per-chiplet interface port cap (0 = unconstrained)")
	fs.IntVar(&space.PinBudgetBits, "pin-budget", 0, "per-chiplet off-chip pin budget in bits/cycle per direction (0 = unconstrained)")
	fs.IntVar(&space.MinGroupWidth, "min-group-width", 0, "minimum interface nodes per group (link redundancy; 0 = unconstrained)")
	fs.StringVar(&space.Pattern, "pattern", "uniform", "traffic pattern candidates are evaluated under")
	workloads := fs.String("workloads", "", "workload axis: specs separated by ';' (replay:<path> | aiscaleout:<spec>; empty entry = synthetic traffic; default synthetic only)")
	fs.FloatsVar(&params.Rates, "rates", "injection-rate ladder, comma separated (default 0.05,0.15,0.3,0.5,0.8)")
	fs.Float64Var(&params.ZeroLoadRate, "zero-load-rate", 0, "light-load probe rate for latency/energy (default 0.02)")
	fs.Int64Var(&params.WarmupCycles, "warmup", 0, "warm-up cycles per run (default 300)")
	fs.Int64Var(&params.MeasureCycles, "measure", 0, "measured cycles per run (default 1500)")
	fs.Uint64Var(&params.Seed, "seed", 1, "random seed (part of the evaluation cache key)")
	cachePath := fs.String("cache", "", "content-addressed evaluation cache directory (16 JSONL shards; merge caches across machines with -merge)")
	fs.ListVar(&mergeSrcs, "merge", "comma-separated cache directories, or old single-file caches, to merge into -cache, then exit")
	outDir := fs.String("out", "", "directory for the report set (candidates.csv, frontier.csv, frontier.json, topoviz script, per-design configs)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON on stdout")
	fs.Engine()
	verbose := fs.Bool("v", false, "list pruned and rejected candidates on stderr")
	fs.Profile()
	fs.MustParse()
	defer cli.StopProfiles()

	if fs.NArg() > 0 {
		cli.Fatalf("unexpected arguments %v", fs.Args())
	}
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ";") {
			space.Workloads = append(space.Workloads, strings.TrimSpace(w))
		}
	}

	// Opening a store creates it, so a misspelled merge source would
	// become an empty store that merges nothing: check every source, and
	// the target, before anything is opened.
	if len(mergeSrcs) > 0 {
		if *cachePath == "" {
			cli.Fatalf("-merge needs -cache to merge into")
		}
		for _, src := range mergeSrcs {
			if _, err := os.Stat(src); err != nil {
				cli.Fatalf("merge source %s: %v", src, err)
			}
		}
	}

	cache, err := dse.OpenStore(*cachePath)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	defer cache.Close()
	if q := cache.Quarantined(); q > 0 {
		cli.Logf("warning: quarantined %d corrupt cache lines to .rej sidecars (kept %d records)", q, cache.Len())
	}

	if len(mergeSrcs) > 0 {
		total := 0
		for _, src := range mergeSrcs {
			from, err := dse.OpenStore(src)
			if errors.Is(err, dse.ErrSingleFile) {
				from, err = dse.ReadCacheFile(src)
			}
			if err != nil {
				cli.Fatalf("opening merge source %s: %v", src, err)
			}
			if q := from.Quarantined(); q > 0 {
				cli.Logf("warning: merge source %s: quarantined %d corrupt lines", src, q)
			}
			added, err := dse.Merge(cache, from)
			from.Close()
			if err != nil {
				cli.Fatalf("merging %s: %v", src, err)
			}
			cli.Logf("merged %s: %d new records (%d already present)", src, added, from.Len()-added)
			total += added
		}
		cli.Logf("cache now holds %d records (+%d)", cache.Len(), total)
		return
	}

	plan, err := dse.NewPlan(space, params, cache)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	cli.Logf("%d candidates enumerated: %d statically pruned, %d rejected by verify pre-flight, %d verified",
		len(plan.Candidates)+len(plan.Rejected), len(plan.Pruned), len(plan.Rejected), len(plan.Candidates))
	cli.Logf("%d cache hits, %d to simulate", len(plan.Hits), len(plan.Pending))
	cli.Logf("%d routing structures certified, %d pre-flight verdicts from the cache", plan.Certifications, plan.StoredVerdicts)
	if *verbose {
		for _, p := range plan.Pruned {
			cli.Logf("  pruned   %s: %s", p.Name, p.Reason)
		}
		for _, r := range plan.Rejected {
			cli.Logf("  rejected %s: %s", r.Name, r.Reason)
		}
	}

	recs, err := dse.Evaluate(context.Background(), plan.Pending, cache, nil)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	outcome, err := dse.Collect(plan, append(plan.Hits, recs...))
	if err != nil {
		cli.Fatalf("%v", err)
	}

	if *outDir != "" {
		written, err := dse.WriteFiles(*outDir, outcome)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		for _, w := range written {
			cli.Logf("wrote %s", w)
		}
	}

	if *asJSON {
		if err := dse.WriteReportJSON(os.Stdout, outcome); err != nil {
			cli.Fatalf("%v", err)
		}
	} else {
		printFrontier(outcome)
	}

	// A deadlock on a candidate the static pre-flight certified is a
	// cross-validation failure: surface the watchdog's diagnostic and
	// exit 2, the chipletsim -json convention.
	exit := 0
	for _, r := range outcome.Records {
		if r.Deadlocked {
			cli.Logf("DEADLOCK on verified candidate %s\n%s", r.Name, r.Diag)
			exit = 2
		}
	}
	cli.Exit(exit)
}

// printFrontier writes the human-readable ranking: the Pareto frontier
// first, then the dominated candidates. Only deterministic content goes
// to stdout so repeated runs are comparable byte for byte.
func printFrontier(o *dse.Outcome) {
	fmt.Printf("design space: %d chiplets, %d verified candidates, %d on the Pareto frontier\n",
		o.Plan.Space.Chiplets, len(o.Records), len(o.Frontier))
	fmt.Println("\nPareto frontier (saturation max, zero-load latency min, energy min):")
	for i, r := range o.Frontier {
		fmt.Printf("  %2d. %-46s sat %.2f  zero-load %6.1f cyc  %6.2f pJ/bit\n",
			i+1, r.Name, r.SatRate, r.ZeroLoadLatency, r.EnergyPJPerBit)
	}
	rows := dse.Rows(o.Records)
	dominated := 0
	for _, row := range rows {
		if !row.Frontier {
			dominated++
		}
	}
	fmt.Printf("\n%d dominated candidates (full ranking in candidates.csv with -out)\n", dominated)
}
