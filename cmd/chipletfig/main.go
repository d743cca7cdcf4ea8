// Command chipletfig regenerates the paper's tables and figures.
//
// Usage:
//
//	chipletfig [-scale quick|full] [-out DIR] EXPERIMENT...
//
// Experiments (experiments.Names): table1, fig11, fig12, fig13, fig14,
// fig15, fig16, ablation, faults, collective, workload, or all; an
// unknown name is rejected before anything runs. Each figure prints its
// latency curves (annotated with the estimated saturation point) to
// stdout and, with -out, writes the raw points to DIR/<experiment>.csv.
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
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chipletnet/cmd/internal/cli"
	"chipletnet/internal/experiments"
)

func main() {
	fs := cli.New("chipletfig")
	scaleName := fs.String("scale", "quick", "quick | full")
	outDir := fs.String("out", "", "directory for CSV output (optional)")
	replot := fs.String("replot", "", "regenerate SVG charts from the CSVs in this directory and exit")
	journal := fs.String("journal", "", "run as a crash-safe campaign journaled to this JSONL file")
	resume := fs.Bool("resume", false, "with -journal: skip tasks the journal records as complete")
	pointTimeout := fs.Duration("point-timeout", 0, "with -journal: wall-clock limit per task attempt (0 = none)")
	retries := fs.Int("retries", 2, "with -journal: extra attempts per failed task")
	workers := fs.Int("workers", 1, "with -journal: concurrent campaign tasks")
	fs.Engine()
	fs.MustParse()

	if *replot != "" {
		entries, err := os.ReadDir(*replot)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".csv" {
				continue
			}
			path := filepath.Join(*replot, e.Name())
			fh, err := os.Open(path)
			if err != nil {
				cli.Fatalf("%v", err)
			}
			pts, err := experiments.ReadCSV(fh)
			fh.Close()
			if err != nil {
				cli.Fatalf("%s: %v", path, err)
			}
			written, err := experiments.WriteSVGs(*replot, pts)
			if err != nil {
				cli.Fatalf("%s: %v", path, err)
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
		cli.Fatalf("unknown -scale %q", *scaleName)
	}

	names, err := experiments.Select(fs.Args())
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			cli.Fatalf("%v", err)
		}
	}
	if *resume && *journal == "" {
		cli.Fatalf("-resume requires -journal")
	}

	if names[0] == "table1" {
		names = names[1:]
		fmt.Println("=== table1 (network diameter) ===")
		rows, err := experiments.Table1()
		if err != nil {
			cli.Fatalf("table1: %v", err)
		}
		experiments.FormatTable1(os.Stdout, rows)
		fmt.Println()
	}

	if *journal != "" {
		campaignMain(scale, names, *outDir, *journal, *resume, campaignConfig{
			Workers:     *workers,
			Timeout:     *pointTimeout,
			Retries:     *retries,
			BackoffBase: time.Second,
			BackoffCap:  30 * time.Second,
			Logf:        cli.Logf,
		})
		return
	}

	for _, name := range names {
		start := time.Now()
		fmt.Printf("=== %s (scale %s) ===\n", name, scale.Name)
		pts, err := experiments.RunFigure(scale, name)
		if err != nil {
			cli.Fatalf("%s: %v", name, err)
		}
		writeFigure(name, pts, *outDir)
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Second))
	}
}

// campaignMain runs the named figures as a crash-safe journaled campaign
// and writes the same stdout curves and -out files as the direct path.
// Without -resume an existing journal is discarded; with it the
// journaled-complete tasks are skipped and their recorded points reused.
func campaignMain(scale experiments.Scale, names []string, outDir, journalPath string, resume bool, cc campaignConfig) {
	tasks, err := experiments.CampaignTasks(scale, names)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if !resume {
		if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
			cli.Fatalf("%v", err)
		}
	}
	j, err := experiments.OpenJournal(journalPath)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	defer j.Close()
	if q := j.Quarantined(); q > 0 {
		cli.Logf("journal: quarantined %d corrupt lines to %s.rej; their tasks re-run", q, journalPath)
	}

	start := time.Now()
	byFigure, campErr := runCampaign(tasks, j, cc)
	for _, name := range names {
		if pts := byFigure[name]; len(pts) > 0 {
			fmt.Printf("=== %s (scale %s) ===\n", name, scale.Name)
			writeFigure(name, pts, outDir)
			fmt.Println()
		}
	}
	fmt.Printf("--- campaign done in %v ---\n", time.Since(start).Round(time.Second))
	if campErr != nil {
		cli.Fatalf("campaign finished with failed tasks:\n%v", campErr)
	}
}

// writeFigure prints a figure's latency curves and, with an output
// directory, writes its CSV and SVG charts there.
func writeFigure(name string, pts []experiments.Point, outDir string) {
	experiments.FormatCurves(os.Stdout, pts)
	if outDir == "" {
		return
	}
	fh, err := os.Create(filepath.Join(outDir, name+".csv"))
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if err := experiments.WriteCSV(fh, pts); err != nil {
		cli.Fatalf("%v", err)
	}
	if err := fh.Close(); err != nil {
		cli.Fatalf("%v", err)
	}
	if _, err := experiments.WriteSVGs(outDir, pts); err != nil {
		cli.Fatalf("%v", err)
	}
}
