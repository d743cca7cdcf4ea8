// Command chipletsim runs a single simulation of a multi-chiplet
// interconnection network and prints the measured statistics.
//
// Examples:
//
//	chipletsim -topology hypercube -dims 6 -rate 0.3
//	chipletsim -topology ndmesh -dims 4,4,4 -pattern bit-reverse -rate 0.2
//	chipletsim -topology mesh -dims 8,8 -rate 0.5 -json
//
// Long runs can be made resumable: -checkpoint snap.ckpt -checkpoint-every
// 100000 snapshots the complete simulator state periodically (and on
// SIGINT/SIGTERM), and -resume snap.ckpt continues such a run to the exact
// result the uninterrupted run would have produced. -timeout bounds the
// wall-clock time of a runaway simulation.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chipletnet"
	"chipletnet/cmd/internal/cli"
	"chipletnet/internal/checkpoint"
	"chipletnet/internal/workload"
)

func main() {
	cfg := chipletnet.DefaultConfig()
	fs := cli.New("chipletsim")
	fs.Topology(&cfg)
	fs.StringVar(&cfg.Pattern, "pattern", cfg.Pattern, "uniform | hotspot | bit-complement | bit-reverse | bit-shuffle | bit-transpose")
	fs.Float64Var(&cfg.InjectionRate, "rate", cfg.InjectionRate, "injection rate in flits/node/cycle")
	fs.StringVar(&cfg.Interleave, "interleave", cfg.Interleave, "none | message | packet")
	recordPath := ""
	fs.Bind("workload", "non-synthetic workload: replay:<path> | aiscaleout:<spec> | record:<path> | <workload>;record:<path> (empty = synthetic -pattern/-rate traffic)", nil,
		func(s string) (err error) {
			if s != "" {
				cfg.Workload, recordPath, err = workload.ParseFlag(s)
			}
			return err
		})
	fs.Routing(&cfg)
	fs.IntVar(&cfg.OffChipBW, "offchip-bw", cfg.OffChipBW, "chiplet-to-chiplet bandwidth in flits/cycle")
	fs.IntVar(&cfg.OffChipLatency, "offchip-latency", cfg.OffChipLatency, "chiplet-to-chiplet link latency in cycles")
	fs.IntVar(&cfg.VCs, "vcs", cfg.VCs, "virtual channels per port")
	fs.Int64Var(&cfg.WarmupCycles, "warmup", cfg.WarmupCycles, "warm-up cycles")
	fs.Int64Var(&cfg.MeasureCycles, "measure", cfg.MeasureCycles, "measured cycles")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.Float64Var(&cfg.Fault.BER, "fault-ber", cfg.Fault.BER, "per-flit bit-error probability on chiplet-to-chiplet links")
	fs.Float64Var(&cfg.Fault.OnChipBER, "fault-onchip-ber", cfg.Fault.OnChipBER, "per-flit bit-error probability on on-chip links")
	fs.Bind("fault-kill", "permanent link failures as cycle:a-b[,cycle:a-b...]", nil, func(s string) (err error) {
		if s != "" {
			cfg.Fault.Kill, err = cli.Kills(s)
		}
		return err
	})
	fs.Bind("fault-degrade", "link deratings as cycle:a-b:bwdiv[:latmult][,...]", nil, func(s string) (err error) {
		if s != "" {
			cfg.Fault.Degrade, err = cli.Degrades(s)
		}
		return err
	})
	fs.Int64Var(&cfg.Fault.RetransmitTimeout, "fault-timeout", cfg.Fault.RetransmitTimeout, "retransmission timeout in cycles (0 = per-link default)")
	fs.Int64Var(&cfg.Fault.BackoffMax, "fault-backoff-max", cfg.Fault.BackoffMax, "retransmission backoff cap in cycles (0 = default)")
	fs.BoolVar(&cfg.Fault.DisableReverify, "fault-no-reverify", cfg.Fault.DisableReverify, "skip deadlock-freedom re-certification after each kill")
	fs.BoolVar(&cfg.CheckCredits, "checkcredits", cfg.CheckCredits, "audit credit conservation every cycle (slow, diagnostic)")
	fs.Int64Var(&cfg.DrainCycles, "drain", cfg.DrainCycles, "post-run drain budget in cycles (checks delivery completeness)")
	fs.ConfigFile(&cfg)
	fs.Engine()
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	dumpConfig := fs.Bool("dump-config", false, "print the effective config as JSON and exit")
	ckptPath := fs.String("checkpoint", "", "write resumable state snapshots to this file (also on SIGINT/SIGTERM)")
	ckptEvery := fs.Int64("checkpoint-every", 0, "snapshot every N simulated cycles (requires -checkpoint)")
	resumePath := fs.String("resume", "", "resume from a checkpoint file (its embedded config replaces all topology/workload flags)")
	timeout := fs.Duration("timeout", 0, "abort a runaway simulation after this wall-clock time with a diagnostic snapshot (e.g. 30m)")
	fs.Profile()
	fs.MustParse()
	defer cli.StopProfiles()

	// Fault completeness accounting needs a drain window to be meaningful.
	if cfg.Fault.Enabled() && cfg.DrainCycles == 0 && !fs.IsSet("drain") {
		cfg.DrainCycles = 10 * (cfg.WarmupCycles + cfg.MeasureCycles)
	}

	if *dumpConfig {
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			cli.Fatalf("%v", err)
		}
		return
	}

	if *ckptEvery > 0 && *ckptPath == "" {
		cli.Fatalf("-checkpoint-every needs -checkpoint")
	}
	ctrl := chipletnet.RunControl{
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		TracePath:       recordPath,
	}
	if *ckptPath != "" {
		// A first SIGINT/SIGTERM checkpoints and stops cleanly; a second
		// falls back to the default (immediate) signal disposition.
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		intr := make(chan struct{})
		go func() {
			<-sigc
			close(intr)
			<-sigc
			signal.Stop(sigc)
		}()
		ctrl.Interrupt = intr
	}
	if *timeout > 0 {
		dl := make(chan struct{})
		time.AfterFunc(*timeout, func() { close(dl) })
		ctrl.Deadline = dl
	}

	var res chipletnet.Result
	var err error
	if *resumePath != "" {
		res, err = chipletnet.ResumeRun(*resumePath, ctrl)
	} else {
		var sys *chipletnet.System
		if sys, err = chipletnet.Build(cfg); err != nil {
			cli.Fatalf("%v", err)
		}
		res, err = sys.SimulateControlled(ctrl)
	}
	switch {
	case errors.Is(err, chipletnet.ErrInterrupted):
		cli.Logf("interrupted; checkpoint written to %s (resume with -resume %s)", *ckptPath, *ckptPath)
		cli.Exit(130)
	case errors.Is(err, chipletnet.ErrTimeout):
		cli.Logf("wall-clock timeout after %v", *timeout)
		if res.DeadlockReport != nil {
			fmt.Fprintln(os.Stderr, res.DeadlockReport)
		}
		if *asJSON {
			cli.WriteJSON(res)
		}
		cli.Exit(2)
	case errors.Is(err, checkpoint.ErrMismatch):
		// -resume with a checkpoint whose snapshot no longer fits its
		// embedded configuration (edited, truncated, or from another
		// build of the topology): rebuilding would silently diverge, so
		// refuse with the mismatch witness.
		cli.Fatalf("resume %s: checkpoint does not match configuration: %v\n"+
			"chipletsim: the snapshot state disagrees with the config embedded in the checkpoint;\n"+
			"chipletsim: restore the original checkpoint file or re-run from scratch without -resume",
			*resumePath, err)
	case err != nil:
		// A typed fault failure (partition, failed re-certification) still
		// carries a partial Result with the event log; surface it.
		if *asJSON && (res.FaultStats != nil || len(res.FaultEvents) > 0) {
			cli.WriteJSON(res)
		}
		cli.Fatalf("%v", err)
	}

	if recordPath != "" {
		cli.Logf("workload trace written to %s (replay with -workload replay:%s)", recordPath, recordPath)
	}

	if *asJSON {
		if err := cli.WriteJSON(res); err != nil {
			cli.Fatalf("%v", err)
		}
		if res.Deadlocked {
			cli.Exit(2)
		}
		return
	}

	fmt.Printf("system:        %v of %dx%d chiplets (%d endpoints)\n",
		res.Cfg.Topology, res.Cfg.ChipletW, res.Cfg.ChipletH, res.Endpoints)
	if res.Cfg.Workload != "" {
		fmt.Printf("workload:      %s, interleave=%s, routing=%s\n",
			res.Cfg.Workload, res.Cfg.Interleave, res.Cfg.Routing)
	} else {
		fmt.Printf("workload:      %s @ %.3f flits/node/cycle, interleave=%s, routing=%s\n",
			res.Cfg.Pattern, res.Cfg.InjectionRate, res.Cfg.Interleave, res.Cfg.Routing)
	}
	if res.Deadlocked {
		fmt.Println("RESULT:        DEADLOCK detected by the progress watchdog")
		if res.DeadlockReport != nil {
			fmt.Println(res.DeadlockReport)
		}
		cli.Exit(2)
	}
	fmt.Printf("latency:       avg %.1f  p50 %.0f  p95 %.0f  p99 %.0f  p999 %.0f  max %d cycles\n",
		res.AvgLatency, res.P50Latency, res.P95Latency, res.P99Latency, res.P999Latency, res.MaxLatency)
	fmt.Printf("throughput:    %.4f flits/node/cycle accepted (offered %.4f)%s\n",
		res.AcceptedFlitsPerNodeCycle, res.OfferedRate, satMark(res))
	for _, cs := range res.Classes {
		fmt.Printf("class:         %-12s %6d pkts  avg %.1f  p99 %.0f  p999 %.0f  max %d  %.4f flits/node/cycle\n",
			cs.Class, cs.MeasuredPackets, cs.AvgLatency, cs.P99Latency, cs.P999Latency,
			cs.MaxLatency, cs.AcceptedFlitsPerNodeCycle)
	}
	fmt.Printf("hops:          %.2f routers, %.2f on-chip links, %.2f off-chip links\n",
		res.AvgRouters, res.AvgOnChipHops, res.AvgOffChipHops)
	fmt.Printf("energy:        %.2f pJ/bit transport estimate\n", res.EnergyPJPerBit)
	fmt.Printf("packets:       %d measured, %d total delivered\n",
		res.MeasuredPackets, res.DeliveredPackets)
	if st := res.FaultStats; st != nil {
		fmt.Printf("faults:        %d corrupted bundles, %d retransmissions, %d nacks\n",
			st.CorruptedBundles, st.Retransmissions, st.Nacks)
		fmt.Printf("               %d links killed, %d degraded, %d decommissioned, %d packets rerouted\n",
			st.LinksKilled, st.LinksDegraded, st.LinksDecommissioned, st.ReroutedPackets)
		fmt.Printf("delivery:      %d delivered, %d lost, %d duplicated, drained=%v (%d in flight at end)\n",
			st.DeliveredPackets, st.LostPackets, st.DuplicatePackets, res.Drained, res.InFlightAtEnd)
		const maxShown = 10
		for i, ev := range res.FaultEvents {
			if i == maxShown {
				fmt.Printf("  ... %d further events\n", len(res.FaultEvents)-maxShown)
				break
			}
			fmt.Printf("  cycle %-8d %-20s %s\n", ev.Cycle, ev.Kind, ev.Detail)
		}
	}
}

func satMark(r chipletnet.Result) string {
	if r.Saturated() {
		return "  [SATURATED]"
	}
	return ""
}
