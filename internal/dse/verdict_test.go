package dse

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chipletnet"
	"chipletnet/internal/verify"
)

// verdictSpace has certified and rejected structures: the equal-channel
// nD-mesh candidates are refused by the pre-flight.
func verdictSpace() (Space, Params) {
	return Space{
		Chiplets:      8,
		Topologies:    []string{"ndmesh", "hypercube"},
		Interleavings: []string{"none", "packet"},
	}, DefaultParams()
}

// planIn opens the store at dir, plans verdictSpace against it and
// closes it again.
func planIn(t *testing.T, dir string) (*Plan, int) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, p := verdictSpace()
	plan, err := NewPlan(s, p, st)
	if err != nil {
		t.Fatal(err)
	}
	return plan, st.Quarantined()
}

// freshPlan plans verdictSpace against an empty memory-only store.
func freshPlan(t *testing.T) *Plan {
	t.Helper()
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	s, p := verdictSpace()
	plan, err := NewPlan(s, p, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rejected) == 0 || len(plan.Candidates) == 0 || plan.StoredVerdicts != 0 {
		t.Fatalf("fresh plan: %d rejected, %d verified, %d stored verdicts", len(plan.Rejected), len(plan.Candidates), plan.StoredVerdicts)
	}
	return plan
}

// samePlan reports whether got holds what want holds; the counters of
// how each was made are compared by the callers.
func samePlan(got, want *Plan) bool {
	g := *got
	g.Certifications, g.StoredVerdicts = want.Certifications, want.StoredVerdicts
	return reflect.DeepEqual(&g, want)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestVerdictsServeReopenedStore: a plan from a reopened store certifies
// nothing, writes nothing, and equals a freshly certified plan —
// Rejected entries, reasons and certificates included.
func TestVerdictsServeReopenedStore(t *testing.T) {
	fresh := freshPlan(t)
	dir := filepath.Join(t.TempDir(), "cache")
	cold, _ := planIn(t, dir)
	if cold.Certifications != fresh.Certifications || cold.StoredVerdicts != 0 {
		t.Fatalf("cold plan certified %d (stored %d), want %d and 0", cold.Certifications, cold.StoredVerdicts, fresh.Certifications)
	}
	path := filepath.Join(dir, verdictFile)
	size := fileSize(t, path)
	if lines := strings.Count(readString(t, path), "\n"); lines != cold.Certifications {
		t.Errorf("verdict file holds %d lines for %d certified structures", lines, cold.Certifications)
	}

	warm, q := planIn(t, dir)
	if warm.Certifications != 0 || warm.StoredVerdicts != fresh.Certifications || q != 0 {
		t.Errorf("warm plan certified %d, stored %d, quarantined %d; want 0, %d, 0", warm.Certifications, warm.StoredVerdicts, q, fresh.Certifications)
	}
	if got := fileSize(t, path); got != size {
		t.Errorf("warm plan changed the verdict file: %d -> %d bytes", size, got)
	}
	if !samePlan(warm, fresh) || !samePlan(cold, fresh) {
		t.Errorf("plan from stored verdicts differs from a fresh plan:\n got %+v\nwant %+v", warm.Rejected, fresh.Rejected)
	}
}

func readString(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestVerdictsTornTail: a crash mid-append leaves a torn final line; the
// open drops it, the next plan certifies that structure again, and the
// plan is unchanged.
func TestVerdictsTornTail(t *testing.T) {
	fresh := freshPlan(t)
	dir := filepath.Join(t.TempDir(), "cache")
	planIn(t, dir)
	path := filepath.Join(dir, verdictFile)
	data := readString(t, path)
	last := strings.LastIndex(strings.TrimSuffix(data, "\n"), "\n") + 1
	torn := data[:last+(len(data)-last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	plan, q := planIn(t, dir)
	if plan.Certifications != 1 || q != 0 {
		t.Errorf("after a torn tail: certified %d, quarantined %d; want 1 and 0", plan.Certifications, q)
	}
	if !samePlan(plan, fresh) {
		t.Error("plan after a torn tail differs from a fresh plan")
	}
	if got := readString(t, path); got != data {
		t.Errorf("healed verdict file differs from the original:\n got %q\nwant %q", got, data)
	}
}

// TestVerdictsQuarantineCorruptLine: a corrupt interior line moves to
// the .rej sidecar and is counted; the verdicts around it still serve.
func TestVerdictsQuarantineCorruptLine(t *testing.T) {
	fresh := freshPlan(t)
	dir := filepath.Join(t.TempDir(), "cache")
	planIn(t, dir)
	path := filepath.Join(dir, verdictFile)
	data := readString(t, path)
	cut := strings.Index(data, "\n") + 1
	doctored := data[:cut] + "{\"Version\":1,\"Structure\":\n" + `{"Version":1,"Cert":"no structure"}` + "\n" + data[cut:]
	if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}

	plan, q := planIn(t, dir)
	if q != 2 {
		t.Errorf("Quarantined = %d, want 2", q)
	}
	if plan.Certifications != 0 {
		t.Errorf("certified %d structures, want 0: the valid verdicts must survive the corrupt lines", plan.Certifications)
	}
	if !samePlan(plan, fresh) {
		t.Error("plan after quarantine differs from a fresh plan")
	}
	if rej := readString(t, path+".rej"); strings.Count(rej, "\n") != 2 {
		t.Errorf(".rej sidecar = %q, want the 2 corrupt lines", rej)
	}
	if got := readString(t, path); got != data {
		t.Error("verdict file not restored to its valid lines")
	}
}

// TestVerdictsIgnoreOtherVersion: a verdict taken by another certifier
// version is not used. A forged line claiming the equal-channel
// structure is certified is ignored under an old version — the
// candidates stay Rejected — and, as the control, believed under the
// current one.
func TestVerdictsIgnoreOtherVersion(t *testing.T) {
	s, p := verdictSpace()
	cands, _, err := s.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	// The first equal-channel structure and its candidates.
	var equal string
	forged := map[string]bool{}
	for _, c := range cands {
		if c.Routing != RoutingEqualChannel {
			continue
		}
		if equal == "" {
			equal = chipletnet.RoutingStructureKey(c.Cfg)
		}
		if chipletnet.RoutingStructureKey(c.Cfg) == equal {
			forged[c.Name] = true
		}
	}
	forge := func(version int) []byte {
		line, err := json.Marshal(verdictLine{
			Version: version,
			verdictKey: verdictKey{
				Structure: equal,
				MaxDests:  preflightOptions.MaxDests, MaxSources: preflightOptions.MaxSources,
			},
			verdict: verdict{Cert: "forged"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	rejected := func(plan *Plan) int {
		n := 0
		for _, r := range plan.Rejected {
			if forged[r.Name] && strings.Contains(r.Reason, "cycle") {
				n++
			}
		}
		return n
	}
	fresh := freshPlan(t)
	for _, tc := range []struct {
		version int
		want    int // candidates of the forged structure rejected
	}{
		{verify.Version - 1, rejected(fresh)},
		{verify.Version, 0},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, verdictFile), forge(tc.version), 0o644); err != nil {
			t.Fatal(err)
		}
		plan, q := planIn(t, dir)
		if got := rejected(plan); got != tc.want || q != 0 {
			t.Errorf("forged verdict at version %d: %d of its candidates rejected (quarantined %d), want %d", tc.version, got, q, tc.want)
		}
	}
	if rejected(fresh) == 0 {
		t.Fatal("the forged structure has no rejected candidates")
	}
}

// TestVerdictsSkipBuildFailures: a structure that does not build has no
// verdict to store; every plan tries it again.
func TestVerdictsSkipBuildFailures(t *testing.T) {
	s, p := verdictSpace()
	p.Base = chipletnet.DefaultConfig()
	p.Base.PacketFlits = p.Base.InternalBufFlits + 1 // fails Build's validation
	dir := filepath.Join(t.TempDir(), "cache")
	for run := 0; run < 2; run++ {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(s, p, st)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Candidates) != 0 || plan.StoredVerdicts != 0 || plan.Certifications == 0 {
			t.Fatalf("run %d: %d verified, %d stored verdicts, %d certified; want 0, 0, >0", run, len(plan.Candidates), plan.StoredVerdicts, plan.Certifications)
		}
		for _, r := range plan.Rejected {
			if !strings.HasPrefix(r.Reason, "build failed") {
				t.Errorf("%s: %s", r.Name, r.Reason)
			}
		}
	}
	if size := fileSize(t, filepath.Join(dir, verdictFile)); size != 0 {
		t.Errorf("build failures wrote %d bytes of verdicts", size)
	}
}

// TestVerdictsConcurrentPlans: two plans at once on one store both come
// out as a fresh plan, and the store ends up with one verdict line per
// structure. Run under -race.
func TestVerdictsConcurrentPlans(t *testing.T) {
	fresh := freshPlan(t)
	dir := filepath.Join(t.TempDir(), "cache")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, p := verdictSpace()
	plans := make([]*Plan, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = NewPlan(s, p, st)
		}(i)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i, plan := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !samePlan(plan, fresh) {
			t.Errorf("concurrent plan %d differs from a fresh plan", i)
		}
	}
	if lines := strings.Count(readString(t, filepath.Join(dir, verdictFile)), "\n"); lines != fresh.Certifications {
		t.Errorf("verdict file holds %d lines for %d structures", lines, fresh.Certifications)
	}
	if warm, _ := planIn(t, dir); warm.Certifications != 0 {
		t.Errorf("plan after the concurrent pair certified %d structures, want 0", warm.Certifications)
	}
}
