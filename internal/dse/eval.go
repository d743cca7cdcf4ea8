package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"chipletnet"
	"chipletnet/internal/stats"
	"chipletnet/internal/verify"
)

// Params fixes how every candidate is measured. Candidates resolved
// under different Params hash to different cache keys.
type Params struct {
	// Base supplies the non-searched configuration fields (Table II
	// values from chipletnet.DefaultConfig unless overridden). The
	// search axes (topology, NoC, routing, interleave, off-chip BW,
	// pattern) and the fields below overwrite it per candidate.
	Base chipletnet.Config

	// WarmupCycles / MeasureCycles size every evaluation run.
	WarmupCycles  int64
	MeasureCycles int64

	// Rates is the ascending injection-rate ladder the sustainable load
	// is read from: the saturation rate of a candidate is the largest
	// ladder rate whose run did not saturate. The ladder replaces
	// per-candidate bisection so a whole exploration batches into
	// independent, cacheable, parallel runs.
	Rates []float64

	// ZeroLoadRate is the light-load probe rate for zero-load latency
	// and transport energy (a hop-count property).
	ZeroLoadRate float64

	// Seed makes every run reproducible (and is part of the cache key).
	Seed uint64
}

// DefaultParams returns an evaluation setup sized like the experiment
// suite's quick scale: minutes for a whole 16-chiplet exploration.
func DefaultParams() Params {
	return Params{
		WarmupCycles:  300,
		MeasureCycles: 1500,
		Rates:         []float64{0.05, 0.15, 0.3, 0.5, 0.8},
		ZeroLoadRate:  0.02,
		Seed:          1,
	}
}

// normalize fills zero fields from DefaultParams and DefaultConfig.
func (p Params) normalize() Params {
	def := DefaultParams()
	if p.Base.ChipletW == 0 {
		p.Base = chipletnet.DefaultConfig()
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = def.WarmupCycles
	}
	if p.MeasureCycles == 0 {
		p.MeasureCycles = def.MeasureCycles
	}
	if len(p.Rates) == 0 {
		p.Rates = def.Rates
	} else {
		// Canonicalize the ladder: ascending order, so permuted rate
		// lists hash to the same cache key and results.
		p.Rates = append([]float64(nil), p.Rates...)
		sort.Float64s(p.Rates)
	}
	if p.ZeroLoadRate == 0 {
		p.ZeroLoadRate = def.ZeroLoadRate
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	return p
}

// LadderPoint is one rate of a candidate's evaluation ladder.
type LadderPoint struct {
	Rate       float64
	AvgLatency float64
	Accepted   float64 // flits/node/cycle
	Saturated  bool
}

// Record is the cached outcome of one candidate evaluation — everything
// a report or frontier extraction needs, with no wall-clock or
// machine-dependent content, so re-run reports are byte-identical.
type Record struct {
	// Key is the content address (Key(Cfg, Params)).
	Key  string
	Name string
	// Cfg is the fully-resolved configuration (InjectionRate 0).
	Cfg chipletnet.Config
	// Routing/Groups/GroupWidth/Ports/PinBits echo the Candidate.
	Routing    string
	Groups     int
	GroupWidth int
	Ports      int
	PinBits    int

	// SatRate is the largest ladder rate that did not saturate
	// (0 when even the lowest rate saturated).
	SatRate float64
	// ZeroLoadLatency is the average latency of the light-load probe.
	ZeroLoadLatency float64
	// EnergyPJPerBit is the transport energy estimate of the light-load
	// probe (internal/energy's §VII-A model over measured hop counts).
	EnergyPJPerBit float64
	// ZeroLoadOffChipHops is the mean off-chip hops at light load (the
	// pin-crossing count behind the energy figure).
	ZeroLoadOffChipHops float64
	// Ladder holds the per-rate measurements. For a non-synthetic
	// workload candidate (Cfg.Workload non-empty) the ladder is a single
	// point at rate 0: the source sets its own load.
	Ladder []LadderPoint
	// P99Latency is the probe run's 99th-percentile latency and Classes
	// its per-class QoS summaries (nil for synthetic candidates with no
	// classed traffic).
	P99Latency float64              `json:",omitempty"`
	Classes    []stats.ClassSummary `json:",omitempty"`

	// Deadlocked reports that the runtime watchdog fired on a candidate
	// the static pre-flight had certified — a cross-validation failure
	// that cmd/chipletdse surfaces with exit status 2. Diag carries the
	// watchdog's diagnostic snapshot as text.
	Deadlocked bool
	Diag       string `json:",omitempty"`

	// Cert is the content address of the pre-flight certificate
	// (verify.Certificate.Hash) of the candidate's routing structure,
	// recorded alongside the cache key: two candidates with the same Cert
	// were proved safe by the same traversal verdict.
	Cert string `json:",omitempty"`
}

// Rejected records a candidate the verify pre-flight refused: the
// certifying traversal found a fatal defect — a cyclic escape channel
// dependency graph, an unreachable pair, a livelock cycle, a dead-end
// state or a VC-discipline violation — so simulating it risks deadlock or
// non-termination. Reason carries the verifier's first concrete witness;
// Cert content-addresses the full failing certificate.
type Rejected struct {
	Name   string
	Reason string
	Cert   string `json:",omitempty"`
}

// Eval is one pending candidate evaluation.
type Eval struct {
	Candidate Candidate
	Params    Params
	Key       string
	// Cert is the pre-flight certificate hash (see Record.Cert).
	Cert string
}

// Run measures the candidate: the zero-load probe plus the rate ladder,
// executed in parallel through chipletnet.RunMany (the module root owns
// all goroutines; see cmd/chipletlint). The returned Record is
// independent of GOMAXPROCS and of the cycle-engine choice.
func (e Eval) Run() (Record, error) {
	return e.RunCtx(context.Background())
}

// RunCtx is Run under a context: a canceled context aborts the batch at
// the next cycle boundary with an error wrapping chipletnet.ErrCanceled,
// so daemon job deadlines and drains stop an evaluation cleanly
// mid-batch. A completed RunCtx record is identical to Run's.
func (e Eval) RunCtx(ctx context.Context) (Record, error) {
	cfgs := e.configs()
	results, errs := chipletnet.RunMany(ctx, cfgs)
	if err := e.check(cfgs, errs); err != nil {
		return Record{}, err
	}
	return e.record(results), nil
}

// ladder returns the rates the evaluation sweeps. A non-synthetic
// workload source sets its own load, so its ladder is empty and the
// evaluation is the single probe run (SatRate stays 0; such candidates
// compare on latency, QoS and energy).
func (e Eval) ladder() []float64 {
	if e.Candidate.Cfg.Workload != "" {
		return nil
	}
	return e.Params.Rates
}

// configs returns the evaluation's runs: the zero-load probe first, then
// one run per ladder rate.
func (e Eval) configs() []chipletnet.Config {
	rates := e.ladder()
	cfgs := make([]chipletnet.Config, 0, 1+len(rates))
	zero := e.Candidate.Cfg
	zero.InjectionRate = e.Params.ZeroLoadRate
	if zero.Workload != "" {
		zero.InjectionRate = 0
	}
	cfgs = append(cfgs, zero)
	for _, r := range rates {
		c := e.Candidate.Cfg
		c.InjectionRate = r
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// check labels each run error of cfgs with its rate and joins them.
func (e Eval) check(cfgs []chipletnet.Config, errs []error) error {
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("rate %g: %w", cfgs[i].InjectionRate, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("dse: evaluating %s: %w", e.Candidate.Name, err)
	}
	return nil
}

// record assembles the Record from the results of configs(), in order.
func (e Eval) record(results []chipletnet.Result) Record {
	// A very light probe on a tiny network can deliver nothing inside the
	// measurement window (AvgLatency NaN); fall back to the lightest
	// ladder rate — the next-best zero-load estimate — so records stay
	// NaN-free (NaN breaks JSON reports and compares unequal to itself).
	probe := results[0]
	for i := 1; i < len(results) && math.IsNaN(probe.AvgLatency); i++ {
		probe = results[i]
	}
	if math.IsNaN(probe.AvgLatency) {
		probe.AvgLatency = 0
	}
	rec := Record{
		Key:        e.Key,
		Name:       e.Candidate.Name,
		Cfg:        e.Candidate.Cfg,
		Routing:    e.Candidate.Routing,
		Groups:     e.Candidate.Groups,
		GroupWidth: e.Candidate.GroupWidth,
		Ports:      e.Candidate.Ports,
		PinBits:    e.Candidate.PinBits,

		ZeroLoadLatency:     probe.AvgLatency,
		EnergyPJPerBit:      probe.EnergyPJPerBit,
		ZeroLoadOffChipHops: probe.AvgOffChipHops,
		Classes:             probe.Classes,
		Cert:                e.Cert,
	}
	if !math.IsNaN(probe.P99Latency) {
		rec.P99Latency = probe.P99Latency
	}
	for i, r := range e.ladder() {
		res := results[1+i]
		lat := res.AvgLatency
		if math.IsNaN(lat) {
			lat = 0 // nothing delivered at this rate; see probe fallback
		}
		rec.Ladder = append(rec.Ladder, LadderPoint{
			Rate:       r,
			AvgLatency: lat,
			Accepted:   res.AcceptedFlitsPerNodeCycle,
			Saturated:  res.Saturated(),
		})
		if !res.Saturated() && r > rec.SatRate {
			rec.SatRate = r
		}
	}
	for _, res := range results {
		if res.Deadlocked {
			rec.Deadlocked = true
			if res.DeadlockReport != nil {
				rec.Diag = res.DeadlockReport.String()
			}
			break
		}
	}
	return rec
}

// Evaluate runs evs and stores every record in st, in chunks: a chunk
// takes candidates in order until it holds at least GOMAXPROCS runs
// (⌈GOMAXPROCS ÷ runs per candidate⌉ candidates for a uniform ladder) and
// runs them as one chipletnet.RunMany batch. Every record of a chunk is
// Put before each, if non-nil, sees the chunk's records; an error from
// each stops the loop before the next chunk and is returned as is, as is
// an evaluation or store error. The returned records are those of the
// finished chunks, in evs order; they do not depend on GOMAXPROCS, which
// only decides which runs share a batch.
func Evaluate(ctx context.Context, evs []Eval, st *Store, each func(done []Record) error) ([]Record, error) {
	procs := runtime.GOMAXPROCS(0)
	var out []Record
	for start := 0; start < len(evs); {
		// Runs of evaluation start+i are cfgs[at[i]:at[i+1]].
		var cfgs []chipletnet.Config
		at := []int{0}
		end := start
		for end < len(evs) && len(cfgs) < procs {
			cfgs = append(cfgs, evs[end].configs()...)
			at = append(at, len(cfgs))
			end++
		}
		results, errs := chipletnet.RunMany(ctx, cfgs)
		n := len(out)
		for i, ev := range evs[start:end] {
			lo, hi := at[i], at[i+1]
			if err := ev.check(cfgs[lo:hi], errs[lo:hi]); err != nil {
				return out[:n], err
			}
			rec := ev.record(results[lo:hi])
			if err := st.Put(rec); err != nil {
				return out[:n], err
			}
			out = append(out, rec)
		}
		if each != nil {
			if err := each(out[n:]); err != nil {
				return out, err
			}
		}
		start = end
	}
	return out, nil
}

// Plan is a resolved exploration: what was pruned, what verification
// rejected, what the cache already knows, and what still needs
// simulation.
type Plan struct {
	Space  Space
	Params Params

	// Candidates are the verified, statically feasible design points.
	Candidates []Candidate
	// Pruned are the statically infeasible combinations.
	Pruned []Pruned
	// Rejected are the candidates the verify pre-flight refused.
	Rejected []Rejected
	// Hits are the cached records of verified candidates.
	Hits []Record
	// Pending are the verified candidates with no cache entry.
	Pending []Eval

	// Certifications counts the distinct routing structures this plan
	// sent through the certifier; StoredVerdicts those whose pre-flight
	// verdict came from the store instead. They say how the plan was
	// made, not what it holds, and stay out of the reports.
	Certifications int
	StoredVerdicts int
}

// preflightOptions bounds the static analysis. Design-space systems are
// small (tens of chiplets), so the sampled analysis is effectively
// exhaustive while staying cheap per distinct routing structure.
var preflightOptions = verify.Options{MaxDests: 16, MaxSources: 8}

// NewPlan enumerates the space, statically verifies every feasible
// candidate's routing (rejecting deadlock-prone designs with the
// verifier's witness), and partitions the survivors into cache hits and
// pending evaluations. Each distinct routing structure is analyzed once
// per store: a verdict cache already holds is reused, the rest are
// certified in parallel through chipletnet.VerifyEach and their verdicts
// appended to the store in one write. A build failure is not a verdict
// and is retried by the next plan. The plan is independent of GOMAXPROCS
// and of which verdicts came from the store. NewPlan itself runs no
// simulation.
func NewPlan(s Space, p Params, cache *Store) (*Plan, error) {
	p = p.normalize()
	cands, pruned, err := s.Enumerate(p)
	if err != nil {
		return nil, err
	}
	norm, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	plan := &Plan{Space: norm, Params: p, Pruned: pruned}

	// Collect each distinct routing structure in first-seen order and take
	// its verdict from the store when it has one.
	slot := make([]int, len(cands)) // candidate -> index into keys
	first := map[string]int{}       // routing structure -> index into keys
	var keys []verdictKey
	var verdicts []verdict
	var missCfgs []chipletnet.Config
	var miss []int // indices into keys of the structures to certify
	for i, cand := range cands {
		rk := chipletnet.RoutingStructureKey(cand.Cfg)
		j, seen := first[rk]
		if !seen {
			j = len(keys)
			first[rk] = j
			k := verdictKey{Structure: rk, MaxDests: preflightOptions.MaxDests, MaxSources: preflightOptions.MaxSources}
			v, ok := cache.lookupVerdict(k)
			if !ok {
				miss = append(miss, j)
				missCfgs = append(missCfgs, cand.Cfg)
			}
			keys = append(keys, k)
			verdicts = append(verdicts, v)
		}
		slot[i] = j
	}
	plan.Certifications, plan.StoredVerdicts = len(miss), len(keys)-len(miss)

	// Certify the rest as one batch on the module root's worker pool.
	reps, errs := chipletnet.VerifyEach(missCfgs, preflightOptions)
	var newKeys []verdictKey
	var newVerdicts []verdict
	for m, j := range miss {
		rep := reps[m]
		switch {
		case errs[m] != nil:
			verdicts[j] = verdict{Reason: fmt.Sprintf("build failed: %v", errs[m])}
			continue
		case rep.Err() != nil:
			verdicts[j] = verdict{Reason: rep.Err().Error(), Cert: rep.Certificate().Hash()}
		default:
			verdicts[j] = verdict{Cert: rep.Certificate().Hash()}
		}
		newKeys = append(newKeys, keys[j])
		newVerdicts = append(newVerdicts, verdicts[j])
	}
	if err := cache.putVerdicts(newKeys, newVerdicts); err != nil {
		return nil, fmt.Errorf("dse: storing pre-flight verdicts: %w", err)
	}

	for i, cand := range cands {
		v := verdicts[slot[i]]
		if v.Reason != "" {
			plan.Rejected = append(plan.Rejected, Rejected{Name: cand.Name, Reason: v.Reason, Cert: v.Cert})
			continue
		}
		plan.Candidates = append(plan.Candidates, cand)
		key := Key(cand.Cfg, p)
		if rec, ok := cache.Lookup(key); ok {
			plan.Hits = append(plan.Hits, rec)
			continue
		}
		plan.Pending = append(plan.Pending, Eval{Candidate: cand, Params: p, Key: key, Cert: v.Cert})
	}
	return plan, nil
}

// Outcome is a completed exploration: every record (cached + freshly
// measured) plus the extracted Pareto frontier.
type Outcome struct {
	Plan *Plan
	// Records holds one record per verified candidate, sorted by Name.
	Records []Record
	// Frontier is the exact Pareto frontier over (SatRate max,
	// ZeroLoadLatency min, EnergyPJPerBit min), ranked deterministically.
	Frontier []Record
	// Simulated / CacheHits count how the records were obtained.
	Simulated int
	CacheHits int
}

// Explore runs the whole pipeline: plan, evaluate every pending
// candidate into the store (Evaluate), and extract the frontier.
func Explore(s Space, p Params, st *Store) (*Outcome, error) {
	plan, err := NewPlan(s, p, st)
	if err != nil {
		return nil, err
	}
	recs, err := Evaluate(context.TODO(), plan.Pending, st, nil)
	if err != nil {
		return nil, err
	}
	return Collect(plan, append(append([]Record(nil), plan.Hits...), recs...))
}

// Collect assembles an Outcome from a plan and the full record set
// (cache hits plus evaluated pending candidates, in any order).
func Collect(plan *Plan, recs []Record) (*Outcome, error) {
	if len(recs) != len(plan.Candidates) {
		return nil, fmt.Errorf("dse: %d records for %d verified candidates", len(recs), len(plan.Candidates))
	}
	sorted := append([]Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return &Outcome{
		Plan:      plan,
		Records:   sorted,
		Frontier:  Frontier(sorted),
		Simulated: len(plan.Pending),
		CacheHits: len(plan.Hits),
	}, nil
}
