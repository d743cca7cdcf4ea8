package chipletnet

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func ctxTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = Topology{Kind: "mesh", Dims: []int{2, 2}}
	cfg.ChipletW, cfg.ChipletH = 3, 3
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	return cfg
}

// rateLadder returns cfg once per injection rate, in rate order.
func rateLadder(cfg Config, rates []float64) []Config {
	cfgs := make([]Config, len(rates))
	for i, r := range rates {
		cfgs[i] = cfg
		cfgs[i].InjectionRate = r
	}
	return cfgs
}

// TestRunManyOrdersResults: results are positional — results[i] belongs
// to cfgs[i] whatever order the workers finish in.
func TestRunManyOrdersResults(t *testing.T) {
	rates := []float64{0.05, 0.2, 0.6}
	results, errs := RunMany(context.Background(), rateLadder(fastCfg(HypercubeTopology(2)), rates))
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.OfferedRate != rates[i] {
			t.Errorf("result %d has rate %g, want %g", i, r.OfferedRate, rates[i])
		}
	}
	// Latency must not decrease with load.
	if results[2].AvgLatency < results[0].AvgLatency {
		t.Errorf("latency fell with load: %.1f @%.2f vs %.1f @%.2f",
			results[0].AvgLatency, rates[0], results[2].AvgLatency, rates[2])
	}
}

// TestRunManyKeepsCompletedResults: a failing configuration must not
// discard the completed ones — its own error is set and its Result left
// zero, every other slot holds a valid Result.
func TestRunManyKeepsCompletedResults(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	cfg.DrainCycles = 0
	cfg.MeasureCycles = 200
	rates := []float64{0.05, -1, 0.1}
	results, errs := RunMany(context.Background(), rateLadder(cfg, rates))
	if len(results) != len(rates) || len(errs) != len(rates) {
		t.Fatalf("got %d results / %d errs, want %d each", len(results), len(errs), len(rates))
	}
	if errs[1] == nil {
		t.Fatal("a negative rate did not error")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("rate %g: %v", rates[i], errs[i])
		}
		if results[i].Endpoints == 0 || results[i].DeliveredPackets == 0 {
			t.Errorf("rate %g: completed result was discarded: %+v", rates[i], results[i].Summary)
		}
	}
	if results[1].Endpoints != 0 {
		t.Errorf("failed rate produced a non-zero result: %+v", results[1].Summary)
	}
}

// TestRunManyPreCanceled: under an already canceled context every
// configuration is skipped before it starts, and each reports the typed
// cancellation individually.
func TestRunManyPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{ctxTestConfig(), ctxTestConfig(), ctxTestConfig()}
	results, errs := RunMany(ctx, cfgs)
	if len(results) != len(cfgs) || len(errs) != len(cfgs) {
		t.Fatalf("got %d results / %d errs, want %d each", len(results), len(errs), len(cfgs))
	}
	for i, e := range errs {
		if !errors.Is(e, ErrCanceled) {
			t.Errorf("errs[%d] does not wrap ErrCanceled: %v", i, e)
		}
		if results[i].DeliveredPackets != 0 {
			t.Errorf("errs[%d]: skipped run delivered %d packets, want 0", i, results[i].DeliveredPackets)
		}
	}
}

// TestRunManyPreCanceledJoinedError: the joined error callers such as
// internal/dse build from errs is non-nil and still wraps ErrCanceled.
func TestRunManyPreCanceledJoinedError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := RunMany(ctx, []Config{ctxTestConfig(), ctxTestConfig()})
	err := errors.Join(errs...)
	if err == nil {
		t.Fatal("RunMany under a pre-canceled context returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("joined error does not wrap ErrCanceled: %v", err)
	}
}

func TestRunManyCancelMidRun(t *testing.T) {
	// A window long enough that cancellation always lands mid-simulation.
	cfg := ctxTestConfig()
	cfg.MeasureCycles = 50_000_000
	cfg.DeadlockThreshold = 0

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, errs := RunMany(ctx, []Config{cfg})
		done <- errs[0]
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("mid-run cancel error does not wrap ErrCanceled: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunMany did not return promptly after cancel")
	}
}

func TestRunManyCancelSkipsPending(t *testing.T) {
	// One long run followed by many queued ones: canceling while the
	// first runs must abort it AND skip the not-yet-started rest, each
	// with the typed error.
	long := ctxTestConfig()
	long.MeasureCycles = 50_000_000
	long.DeadlockThreshold = 0
	cfgs := make([]Config, 64)
	for i := range cfgs {
		cfgs[i] = long
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []error, 1)
	go func() {
		_, errs := RunMany(ctx, cfgs)
		done <- errs
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case errs := <-done:
		for i, e := range errs {
			if !errors.Is(e, ErrCanceled) {
				t.Errorf("errs[%d] does not wrap ErrCanceled: %v", i, e)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunMany did not return promptly after cancel")
	}
}

func TestRunManyBackgroundMatchesCancelable(t *testing.T) {
	// A cancelable context that is never canceled must not perturb
	// results: the run only observes Done() at cycle boundaries, so it is
	// bit-identical to the uncontrolled run a background context takes.
	cfgs := []Config{ctxTestConfig()}
	plain, errs := RunMany(context.Background(), cfgs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, errs := RunMany(ctx, cfgs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain[0], ctxed[0]) {
		t.Errorf("cancelable-context run differs from plain run:\n got %+v\nwant %+v", ctxed[0], plain[0])
	}
}
