package chipletnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"chipletnet/internal/checkpoint"
	"chipletnet/internal/energy"
	"chipletnet/internal/fault"
	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/stats"
	"chipletnet/internal/traffic"
	"chipletnet/internal/workload"
)

// Control-flow sentinels for externally ended runs; test with errors.Is.
// The partial Result returned alongside them is still meaningful for
// diagnostics.
var (
	// ErrTimeout: the run was aborted by RunControl.Deadline. The Result
	// carries a diagnostic snapshot of where traffic was at the abort.
	ErrTimeout = errors.New("chipletnet: simulation aborted by deadline")
	// ErrInterrupted: the run was stopped by RunControl.Interrupt after
	// writing a final checkpoint; resume it with ResumeRun.
	ErrInterrupted = errors.New("chipletnet: simulation interrupted, checkpoint written")
)

// RunControl carries optional external control for a simulation run:
// periodic checkpointing, checkpoint-and-stop interruption, and a
// deadline. The zero value runs to completion exactly like Simulate. The
// simulator itself never consults a clock (determinism); deadlines and
// signals are the caller's, delivered over channels and observed at cycle
// boundaries only, so they never perturb the simulated state — a run cut
// short and resumed finishes bit-identical to an uninterrupted one.
type RunControl struct {
	// CheckpointPath is where snapshots are written (atomic
	// write-then-rename, each replacing the previous). Required for
	// CheckpointEvery and Interrupt.
	CheckpointPath string
	// CheckpointEvery > 0 writes a snapshot every that many cycles.
	CheckpointEvery int64
	// Interrupt, when non-nil and readable (or closed), makes the run
	// write a final checkpoint at the next cycle boundary and stop with
	// ErrInterrupted. Typically wired to SIGINT/SIGTERM by the caller.
	Interrupt <-chan struct{}
	// InterruptAtCycle > 0 acts like Interrupt firing at exactly that
	// cycle boundary — a deterministic interruption, for testing resume.
	InterruptAtCycle int64
	// Deadline, when non-nil and readable (or closed), aborts the run at
	// the next cycle boundary with ErrTimeout and a diagnostic snapshot
	// (Result.DeadlockReport) of where traffic was stuck. Typically wired
	// to a wall-clock timer by the caller.
	Deadline <-chan struct{}
	// TracePath, when non-empty, records the run as a workload trace
	// (internal/workload format) and writes it there when the run
	// completes cleanly. Recording attaches a tracer, so packet pooling is
	// disabled for the run; results stay bit-identical. Not available on
	// ResumeRun (the recorder would miss every pre-checkpoint packet) or
	// together with another tracer.
	TracePath string
}

// buildSource constructs the injection source the configuration asks
// for: the synthetic Bernoulli generator (empty Workload), the causal
// trace replayer, or the AI-scale-out generator.
func (s *System) buildSource() (traffic.Source, error) {
	cfg := s.Cfg
	gran, err := interleave.ParseGranularity(cfg.Interleave)
	if err != nil {
		return nil, err
	}
	pol := interleave.Policy{G: gran}
	kind, arg, err := workload.Split(cfg.Workload)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "":
		pat, err := traffic.NewPattern(cfg.Pattern, len(s.Topo.Cores), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return traffic.NewGenerator(
			s.Topo.Cores, pat, cfg.InjectionRate,
			cfg.PacketFlits, cfg.MsgPackets, pol, cfg.Seed)
	case workload.KindReplay:
		tr, err := workload.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		return traffic.NewReplayer(tr, s.Topo.Cores, pol)
	case workload.KindAIScaleOut:
		spec, err := workload.ParseAIScaleOut(arg)
		if err != nil {
			return nil, err
		}
		alg, err := collectiveAlgorithm(spec.Collective, spec.DataFlits)
		if err != nil {
			return nil, err
		}
		return traffic.NewAIScaleOut(alg, spec, s.Topo.Cores, cfg.PacketFlits, pol, cfg.Seed)
	}
	return nil, fmt.Errorf("chipletnet: unknown workload kind %q", kind)
}

// prepare is the set-up every run starts from: it builds the injection
// source and the statistics collector, points the fabric's sink and
// credit audit at them, and attaches the fault engine when the
// configuration injects faults. ResumeRun then lays the snapshot over
// this state; the fault engine must be attached first, because it
// re-attaches the reliability protocol (with its corruption-stream
// closures) to the links that the fabric restore fills.
func (s *System) prepare() (traffic.Source, *stats.Collector, *fault.Engine, error) {
	cfg := s.Cfg
	src, err := s.buildSource()
	if err != nil {
		return nil, nil, nil, err
	}
	col := &stats.Collector{MeasureFrom: cfg.WarmupCycles + 1}
	f := s.Topo.Fabric
	f.Sink = col.OnDeliver
	f.CreditAudit = cfg.CheckCredits
	var eng *fault.Engine
	if cfg.Fault.Enabled() {
		if eng, err = fault.New(s.Topo, cfg.Fault.engineConfig(cfg.Seed)); err != nil {
			return nil, nil, nil, err
		}
		eng.Attach(f)
	}
	return src, col, eng, nil
}

// SimulateControlled is Simulate with external run control. A System must
// not be simulated twice; rebuild for fresh runs.
func (s *System) SimulateControlled(ctrl RunControl) (Result, error) {
	var rec *workload.Recorder
	if ctrl.TracePath != "" {
		f := s.Topo.Fabric
		if f.Tracer != nil {
			return Result{}, fmt.Errorf("chipletnet: cannot record a workload trace: another tracer is attached")
		}
		var err error
		if rec, err = workload.NewRecorder(s.Topo.Cores); err != nil {
			return Result{}, err
		}
		f.Tracer = rec
	}
	src, col, eng, err := s.prepare()
	if err != nil {
		return Result{}, err
	}
	res, err := s.run(src, col, eng, ctrl, 0)
	if rec != nil && err == nil {
		tr, terr := rec.Trace()
		if terr == nil {
			terr = workload.WriteFile(ctrl.TracePath, tr)
		}
		if terr != nil {
			return res, fmt.Errorf("chipletnet: recording workload trace: %w", terr)
		}
	}
	return res, err
}

// ResumeRun loads a checkpoint, rebuilds the system from the embedded
// configuration, restores the complete dynamic state, and continues the
// run to completion (under the given control). The finished Result is
// bit-identical to the uninterrupted run's.
func ResumeRun(path string, ctrl RunControl) (Result, error) {
	if ctrl.TracePath != "" {
		return Result{}, fmt.Errorf("chipletnet: cannot record a workload trace on resume: the recorder would miss every pre-checkpoint packet")
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var cfg Config
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return Result{}, fmt.Errorf("%w: embedded configuration: %v", checkpoint.ErrCorrupt, err)
	}
	sys, err := Build(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("%w: rebuilding from embedded configuration: %v", checkpoint.ErrMismatch, err)
	}
	src, col, eng, err := sys.prepare()
	if errors.Is(err, fault.ErrBadSchedule) {
		return Result{}, fmt.Errorf("%w: recreating fault engine: %v", checkpoint.ErrMismatch, err)
	}
	if err != nil {
		return Result{}, err
	}
	if err := sys.restore(st, src, col, eng); err != nil {
		return Result{}, fmt.Errorf("%w: %v", checkpoint.ErrMismatch, err)
	}
	return sys.run(src, col, eng, ctrl, st.Cycle)
}

// restore lays the snapshot's dynamic state over a freshly prepared
// system. Each layer's Restore reports what does not fit as a plain
// error; ResumeRun classifies them all as checkpoint.ErrMismatch.
func (s *System) restore(st *checkpoint.State, src traffic.Source, col *stats.Collector, eng *fault.Engine) error {
	if (st.Fault != nil) != (eng != nil) {
		return fmt.Errorf("snapshot fault state %v, configuration fault injection %v", st.Fault != nil, eng != nil)
	}
	if err := s.Topo.Restore(&st.Topo); err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	if err := s.Topo.Fabric.Restore(&st.Fabric, packet.Materialize(st.Packets)); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	if err := src.Restore(&st.Gen); err != nil {
		return fmt.Errorf("traffic source: %w", err)
	}
	col.Restore(&st.Stats)
	if eng != nil {
		if err := eng.Restore(st.Fault); err != nil {
			return fmt.Errorf("fault engine: %w", err)
		}
	}
	return nil
}

// run advances the simulation from the cycle after start to completion,
// observing external control at cycle boundaries, then assembles the
// Result. start is 0 for a fresh run, the checkpoint cycle on resume.
func (s *System) run(src traffic.Source, col *stats.Collector, eng *fault.Engine, ctrl RunControl, start int64) (Result, error) {
	cfg := s.Cfg
	f := s.Topo.Fabric
	total := cfg.WarmupCycles + cfg.MeasureCycles
	stepping.Add(1)
	defer stepping.Add(-1)
	defer f.Close()

	// Chain the source into the sink so dependency-driven sources observe
	// every delivery in the engines' deterministic sink order (a delivery
	// at cycle T can gate injections from T+1 on). The Bernoulli
	// generator's OnDeliver is a no-op.
	{
		inner := f.Sink
		f.Sink = func(p *packet.Packet, now int64) {
			inner(p, now)
			src.OnDeliver(p, now)
		}
	}

	// Recycle delivered packets so the steady-state loop allocates none.
	// At delivery a packet has left every buffer and wire (virtual
	// cut-through: the tail cannot eject before clearing all upstream
	// buffers); only sub-horizon replay entries may still alias it, and
	// those are functionally inert. Recycling is gated off when something
	// could observe a packet after delivery: a Tracer retaining pointers,
	// or scheduled interface kills, whose stranded-packet post-mortem
	// reads replay-buffer packet fields. The source's OnDeliver runs
	// before the recycle, so it may read but never retain the packet.
	if f.Tracer == nil && len(cfg.Fault.Kill) == 0 {
		pool := &packet.Pool{}
		src.SetPool(pool)
		inner := f.Sink
		f.Sink = func(p *packet.Packet, now int64) {
			inner(p, now)
			pool.Put(p)
		}
	}

	var simErr error
	timedOut := false
	var timeoutReport *router.DeadlockReport

	// control runs the external checks after completed cycle cy and
	// reports whether the run must stop.
	control := func(cy int64) bool {
		if ctrl.Deadline != nil {
			select {
			case <-ctrl.Deadline:
				simErr = ErrTimeout
				timedOut = true
				timeoutReport = f.DiagnosticReport()
				return true
			default:
			}
		}
		interrupted := ctrl.InterruptAtCycle > 0 && cy == ctrl.InterruptAtCycle
		if !interrupted && ctrl.Interrupt != nil {
			select {
			case <-ctrl.Interrupt:
				interrupted = true
			default:
			}
		}
		if interrupted {
			if err := s.writeCheckpoint(ctrl.CheckpointPath, src, col, eng, cy); err != nil {
				simErr = err
			} else {
				simErr = ErrInterrupted
			}
			return true
		}
		if ctrl.CheckpointPath != "" && ctrl.CheckpointEvery > 0 && cy%ctrl.CheckpointEvery == 0 {
			if err := s.writeCheckpoint(ctrl.CheckpointPath, src, col, eng, cy); err != nil {
				simErr = err
				return true
			}
		}
		return false
	}

	// Cycles past total are the drain phase: the source stops injecting
	// and the network empties, so delivery completeness (zero lost
	// packets) is checkable. A resumed run may start inside it.
	for cy := start + 1; cy <= total+cfg.DrainCycles; cy++ {
		if cy <= total {
			src.SetMeasured(cy > cfg.WarmupCycles)
			src.Tick(f, cy)
		} else if f.InFlight() == 0 {
			break
		}
		if eng != nil {
			if simErr = eng.Step(cy); simErr != nil {
				break
			}
		}
		if s.auto {
			f.IslandGrain = math.MaxInt
			if stepping.Load() == 1 {
				f.IslandGrain = grainAt(cy)
			}
		}
		f.Step()
		if f.Deadlocked || control(cy) {
			break
		}
	}
	drained := cfg.DrainCycles > 0 && simErr == nil && !f.Deadlocked && f.InFlight() == 0

	offeredRate := cfg.InjectionRate
	if cfg.Workload != "" {
		// Non-synthetic sources have no configured offered load;
		// Saturated() then reports deadlock only.
		offeredRate = 0
	}
	res := Result{
		Cfg:            cfg,
		Summary:        col.Summarize(cfg.MeasureCycles, len(s.Topo.Cores)),
		OfferedPackets: src.Offered(),
		OfferedRate:    offeredRate,
		Deadlocked:     f.Deadlocked,
		DeadlockReport: f.Deadlock,
		Endpoints:      len(s.Topo.Cores),
		Drained:        drained,
		InFlightAtEnd:  f.InFlight(),
		TimedOut:       timedOut,
	}
	if timedOut && res.DeadlockReport == nil {
		res.DeadlockReport = timeoutReport
	}
	res.EnergyPJPerBit = energy.Default().PerBit(res.AvgRouters, res.AvgOnChipHops, res.AvgOffChipHops)
	if eng != nil {
		eng.Finish(src.TotalPackets(), f.InFlight())
		res.FaultEvents = eng.Log
		st := eng.Stats
		res.FaultStats = &st
	}

	// Link utilization summary over the whole run.
	var offSum, onSum float64
	var offN, onN int
	for _, l := range f.Links {
		u := l.Utilization(f.Now)
		if l.OffChip {
			offSum += u
			offN++
			if u > res.PeakOffChipUtilization {
				res.PeakOffChipUtilization = u
			}
		} else {
			onSum += u
			onN++
		}
	}
	if offN > 0 {
		res.AvgOffChipUtilization = offSum / float64(offN)
	}
	if onN > 0 {
		res.AvgOnChipUtilization = onSum / float64(onN)
	}
	// A typed fault failure (partition, failed re-certification), timeout,
	// or interruption ends the run cleanly: the partial Result is still
	// returned for diagnostics.
	return res, simErr
}

// writeCheckpoint captures the complete dynamic state after completed
// cycle cy and writes it atomically to path.
func (s *System) writeCheckpoint(path string, src traffic.Source, col *stats.Collector, eng *fault.Engine, cy int64) error {
	if path == "" {
		return fmt.Errorf("chipletnet: checkpoint requested but RunControl.CheckpointPath is empty")
	}
	st, err := s.captureState(src, col, eng, cy)
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, st)
}

// captureState assembles the checkpoint State for the run at completed
// cycle cy.
func (s *System) captureState(src traffic.Source, col *stats.Collector, eng *fault.Engine, cy int64) (*checkpoint.State, error) {
	cfgJSON, err := json.Marshal(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("chipletnet: serializing configuration: %w", err)
	}
	tbl := packet.NewTable()
	st := &checkpoint.State{
		Config: cfgJSON,
		Cycle:  cy,
		Fabric: s.Topo.Fabric.Snapshot(tbl),
		Gen:    src.Snapshot(),
		Stats:  col.Snapshot(),
		Topo:   s.Topo.Snapshot(),
	}
	if eng != nil {
		st.Fault = eng.Snapshot()
	}
	st.Packets = tbl.List()
	return st, nil
}
