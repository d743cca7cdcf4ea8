// Command chipletfig regenerates the paper's tables and figures.
//
// Usage:
//
//	chipletfig [-scale quick|full] [-out DIR] [-journal FILE [-resume]] EXPERIMENT...
//
// Experiments (experiments.Names): table1, fig11, fig12, fig13, fig14,
// fig15, fig16, ablation, faults, collective, workload, or all; an
// unknown name is rejected before anything runs. Each figure prints its
// latency curves (annotated with the estimated saturation point) to
// stdout and, with -out, writes the raw points to DIR/<experiment>.csv.
//
// Every invocation runs the figures as one campaign: each figure splits
// into tasks (experiments.CampaignTasks) that run one after another,
// and each figure is printed as soon as its last task finishes. A task
// that fails or panics does not stop the campaign; chipletfig prints
// every figure it has points for and exits 1 listing the failed tasks.
//
// With -journal FILE every task outcome is appended to a JSONL journal
// and fsynced, so a killed campaign restarted with -resume re-runs only
// the unfinished or failed tasks and still emits complete figures:
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
	journal := fs.String("journal", "", "journal every task outcome to this JSONL file")
	resume := fs.Bool("resume", false, "with -journal: skip tasks the journal records as complete")
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

	tasks, err := experiments.CampaignTasks(scale, names)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if !*resume && *journal != "" {
		if err := os.Remove(*journal); err != nil && !os.IsNotExist(err) {
			cli.Fatalf("%v", err)
		}
	}
	j, err := experiments.OpenJournal(*journal)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	defer j.Close()
	if q := j.Quarantined(); q > 0 {
		cli.Logf("journal: quarantined %d corrupt lines to %s.rej; their tasks re-run", q, *journal)
	}

	start := time.Now()
	err = runCampaign(tasks, j, cli.Logf, func(name string, pts []experiments.Point) {
		fmt.Printf("=== %s (scale %s) ===\n", name, scale.Name)
		writeFigure(name, pts, *outDir)
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Second))
		start = time.Now()
	})
	if err != nil {
		cli.Fatalf("campaign finished with failed tasks:\n%v", err)
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
