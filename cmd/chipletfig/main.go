// Command chipletfig regenerates the paper's tables and figures.
//
// Usage:
//
//	chipletfig [-scale quick|full] [-out DIR] EXPERIMENT...
//
// Experiments: table1, fig11, fig12, fig13, fig14, fig15, fig16,
// ablation, all. Each figure prints its latency curves (annotated with the
// estimated saturation point) to stdout and, with -out, writes the raw
// points to DIR/<experiment>.csv.
//
// With -journal FILE the experiments run as a crash-safe campaign: the
// figures split into independently journaled tasks executed by a worker
// pool with per-task timeouts (-point-timeout), panic isolation and
// capped-backoff retries (-retries). Every task outcome is appended to
// the JSONL journal and fsynced, so a killed campaign restarted with
// -resume re-runs only the unfinished tasks and still emits complete
// figures:
//
//	chipletfig -scale full -out results -journal results/journal.jsonl all
//	# ... crash, OOM-kill, or ^C ...
//	chipletfig -scale full -out results -journal results/journal.jsonl -resume all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chipletnet"
	"chipletnet/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "quick", "quick | full")
	outDir := flag.String("out", "", "directory for CSV output (optional)")
	replot := flag.String("replot", "", "regenerate SVG charts from the CSVs in this directory and exit")
	journal := flag.String("journal", "", "run as a crash-safe campaign journaled to this JSONL file")
	resume := flag.Bool("resume", false, "with -journal: skip tasks the journal records as complete")
	pointTimeout := flag.Duration("point-timeout", 0, "with -journal: wall-clock limit per task attempt (0 = none)")
	retries := flag.Int("retries", 2, "with -journal: extra attempts per failed task")
	workers := flag.Int("workers", 1, "with -journal: concurrent campaign tasks")
	engine := flag.String("engine", "active", "cycle engine: active | reference | islands[:K] (bit-identical results; reference is the slow oracle)")
	flag.Parse()

	if err := chipletnet.SetEngine(*engine); err != nil {
		fatalf("%v", err)
	}

	if *replot != "" {
		entries, err := os.ReadDir(*replot)
		if err != nil {
			fatalf("%v", err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".csv" {
				continue
			}
			path := filepath.Join(*replot, e.Name())
			fh, err := os.Open(path)
			if err != nil {
				fatalf("%v", err)
			}
			pts, err := experiments.ReadCSV(fh)
			fh.Close()
			if err != nil {
				fatalf("%s: %v", path, err)
			}
			written, err := experiments.WriteSVGs(*replot, pts)
			if err != nil {
				fatalf("%s: %v", path, err)
			}
			for _, w := range written {
				fmt.Println("wrote", w)
			}
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fatalf("unknown -scale %q", *scaleName)
	}

	args := flag.Args()
	if len(args) == 0 {
		fatalf("no experiments given; want table1|fig11|fig12|fig13|fig14|fig15|fig16|ablation|faults|collective|workload|all")
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, e := range []string{"table1", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "ablation", "faults", "collective", "workload"} {
				want[e] = true
			}
			continue
		}
		want[a] = true
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	if *resume && *journal == "" {
		fatalf("-resume requires -journal")
	}
	if *journal != "" {
		campaignMain(scale, want, *outDir, *journal, *resume, campaignConfig{
			Workers:     *workers,
			Timeout:     *pointTimeout,
			Retries:     *retries,
			BackoffBase: time.Second,
			BackoffCap:  30 * time.Second,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "chipletfig: "+format+"\n", args...)
			},
		})
		return
	}

	run := func(name string, f func() ([]experiments.Point, error)) {
		if !want[name] {
			return
		}
		delete(want, name)
		start := time.Now()
		fmt.Printf("=== %s (scale %s) ===\n", name, scale.Name)
		pts, err := f()
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		experiments.FormatCurves(os.Stdout, pts)
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Second))
		if *outDir != "" {
			path := filepath.Join(*outDir, name+".csv")
			fh, err := os.Create(path)
			if err != nil {
				fatalf("%v", err)
			}
			if err := experiments.WriteCSV(fh, pts); err != nil {
				fatalf("%v", err)
			}
			if err := fh.Close(); err != nil {
				fatalf("%v", err)
			}
			if _, err := experiments.WriteSVGs(*outDir, pts); err != nil {
				fatalf("%v", err)
			}
		}
	}

	if want["table1"] {
		delete(want, "table1")
		fmt.Println("=== table1 (network diameter) ===")
		rows, err := experiments.Table1()
		if err != nil {
			fatalf("table1: %v", err)
		}
		experiments.FormatTable1(os.Stdout, rows)
		fmt.Println()
	}

	run("fig11", func() ([]experiments.Point, error) {
		var all []experiments.Point
		for _, pat := range experiments.Fig11Patterns() {
			pts, err := experiments.Fig11(scale, pat)
			if err != nil {
				return nil, err
			}
			all = append(all, pts...)
		}
		return all, nil
	})
	run("fig12", func() ([]experiments.Point, error) { return experiments.Fig12(scale) })
	run("fig13", func() ([]experiments.Point, error) { return experiments.Fig13(scale) })
	run("fig14", func() ([]experiments.Point, error) {
		var all []experiments.Point
		for _, bw := range experiments.Fig14Bandwidths() {
			pts, err := experiments.Fig14(scale, bw)
			if err != nil {
				return nil, err
			}
			all = append(all, pts...)
		}
		return all, nil
	})
	run("fig15", func() ([]experiments.Point, error) { return experiments.Fig15(scale) })
	run("fig16", func() ([]experiments.Point, error) { return experiments.Fig16(scale) })
	run("ablation", func() ([]experiments.Point, error) { return experiments.AblationRouting(scale) })
	run("faults", func() ([]experiments.Point, error) { return experiments.FaultTolerance(scale) })
	run("collective", func() ([]experiments.Point, error) { return experiments.CollectiveStudy(scale) })
	run("workload", func() ([]experiments.Point, error) { return experiments.WorkloadStudy(scale) })

	for leftover := range want {
		fatalf("unknown experiment %q", leftover)
	}
}

// campaignMain runs the wanted experiments as a crash-safe journaled
// campaign and writes the same stdout curves and -out files as the
// direct path. Without -resume an existing journal is discarded; with it
// the journaled-complete tasks are skipped and their recorded points
// reused.
func campaignMain(scale experiments.Scale, want map[string]bool, outDir, journalPath string, resume bool, cc campaignConfig) {
	if want["table1"] {
		delete(want, "table1")
		fmt.Println("=== table1 (network diameter) ===")
		rows, err := experiments.Table1()
		if err != nil {
			fatalf("table1: %v", err)
		}
		experiments.FormatTable1(os.Stdout, rows)
		fmt.Println()
	}

	var names []string
	for _, name := range []string{"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "ablation", "faults", "collective", "workload"} {
		if want[name] {
			delete(want, name)
			names = append(names, name)
		}
	}
	for leftover := range want {
		fatalf("unknown experiment %q", leftover)
	}

	tasks, err := experiments.CampaignTasks(scale, names)
	if err != nil {
		fatalf("%v", err)
	}
	if !resume {
		if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
			fatalf("%v", err)
		}
	}
	j, err := experiments.OpenJournal(journalPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer j.Close()
	if q := j.Quarantined(); q > 0 {
		fmt.Fprintf(os.Stderr, "chipletfig: journal: quarantined %d corrupt lines to %s.rej; their tasks re-run\n", q, journalPath)
	}

	start := time.Now()
	byFigure, campErr := runCampaign(tasks, j, cc)
	for _, name := range names {
		pts := byFigure[name]
		if len(pts) == 0 {
			continue
		}
		fmt.Printf("=== %s (scale %s) ===\n", name, scale.Name)
		experiments.FormatCurves(os.Stdout, pts)
		fmt.Println()
		if outDir != "" {
			path := filepath.Join(outDir, name+".csv")
			fh, err := os.Create(path)
			if err != nil {
				fatalf("%v", err)
			}
			if err := experiments.WriteCSV(fh, pts); err != nil {
				fatalf("%v", err)
			}
			if err := fh.Close(); err != nil {
				fatalf("%v", err)
			}
			if _, err := experiments.WriteSVGs(outDir, pts); err != nil {
				fatalf("%v", err)
			}
		}
	}
	fmt.Printf("--- campaign done in %v ---\n", time.Since(start).Round(time.Second))
	if campErr != nil {
		fatalf("campaign finished with failed tasks:\n%v", campErr)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chipletfig: "+format+"\n", args...)
	os.Exit(1)
}
