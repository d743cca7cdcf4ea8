package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"chipletnet"
	"chipletnet/internal/verify"
)

// tiny is the minimal scale for exercising the experiment plumbing.
var tiny = Scale{
	Name:          "tiny",
	WarmupCycles:  200,
	MeasureCycles: 600,
	Rates:         []float64{0.1, 0.5},
	MaxChiplets:   16,
}

func TestFig11Shape(t *testing.T) {
	pts, err := Fig11(tiny, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	// 3 topologies x 2 rates.
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	series := Series(pts)
	want := []string{"2D-mesh", "3D-mesh", "hypercube"}
	if strings.Join(series, ",") != strings.Join(want, ",") {
		t.Errorf("series = %v", series)
	}
	for _, p := range pts {
		if p.Deadlock {
			t.Errorf("deadlock at %s/%g", p.Series, p.X)
		}
		if p.AvgLatency <= 0 {
			t.Errorf("bad latency at %s/%g", p.Series, p.X)
		}
	}
}

func TestFig12RespectsMaxChiplets(t *testing.T) {
	vs := fig12Variants(tiny)
	for _, v := range vs {
		if v.Chiplets > tiny.MaxChiplets {
			t.Errorf("variant %s exceeds cap", v.Label)
		}
	}
	if len(vs) != 2 {
		t.Errorf("want the two 16-chiplet variants, got %d", len(vs))
	}
	full := fig12Variants(Full)
	if len(full) != 4 {
		t.Errorf("full scale should keep all 4 variants, got %d", len(full))
	}
}

func TestFig13EnergyOrdering(t *testing.T) {
	pts, err := Fig13(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 13 advantage grows with chiplet count; at the 16-chiplet
	// tiny scale it holds for the small (4x4) NoC, while the 8x8 NoC is
	// ride-dominated and may invert (the 64/256-chiplet orderings are
	// asserted by the full-scale harness in EXPERIMENTS.md).
	byKey := map[string]float64{}
	for _, p := range pts {
		byKey[p.Series+"@"+itoa(int(p.X))] = p.EnergyPJ
	}
	for _, n := range []int{16} {
		for _, w := range []string{"4x4"} {
			mesh := byKey["2D-mesh-"+w+"NoC@"+itoa(n)]
			cube := byKey["hypercube-"+w+"NoC@"+itoa(n)]
			if mesh == 0 || cube == 0 {
				t.Fatalf("missing energy points for %d chiplets %s", n, w)
			}
			if cube > mesh {
				t.Errorf("%d chiplets %s NoC: hypercube %.2f pJ/bit > mesh %.2f", n, w, cube, mesh)
			}
		}
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestTable1FormulasMatchMeasured(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Measured != r.Formula {
			t.Errorf("%s: measured chiplet diameter %d != formula %d", r.Topology, r.Measured, r.Formula)
		}
		if r.NodeDiameter < r.Measured {
			t.Errorf("%s: node diameter %d below chiplet diameter %d", r.Topology, r.NodeDiameter, r.Measured)
		}
	}
}

func TestFig16InterleavingOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("64-chiplet experiment skipped in -short mode")
	}
	s := tiny
	s.Rates = []float64{0.8} // bandwidth-constrained point
	pts, err := Fig16(s)
	if err != nil {
		t.Fatal(err)
	}
	// At 64 bits/cycle off-chip, interleaving must not reduce accepted
	// throughput.
	get := func(series string) Point {
		for _, p := range pts {
			if p.Experiment == "fig16-bw64bits" && p.Series == series {
				return p
			}
		}
		t.Fatalf("missing %s", series)
		return Point{}
	}
	none := get("interleave-none")
	msg := get("interleave-message")
	pkt := get("interleave-packet")
	if msg.Accepted < none.Accepted*0.97 || pkt.Accepted < none.Accepted*0.97 {
		t.Errorf("interleaving hurt throughput: none=%.3f msg=%.3f pkt=%.3f",
			none.Accepted, msg.Accepted, pkt.Accepted)
	}
}

func TestFig14BandwidthMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("64-chiplet experiment skipped in -short mode")
	}
	s := tiny
	s.Rates = []float64{0.3}
	lat := map[int]float64{}
	for _, bw := range []int{1, 4} {
		pts, err := Fig14(s, bw)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if p.Series == "hypercube" {
				lat[bw] = p.AvgLatency
			}
		}
	}
	// More chiplet-to-chiplet bandwidth must not increase latency.
	if lat[4] > lat[1] {
		t.Errorf("hypercube latency rose with bandwidth: bw1=%.1f bw4=%.1f", lat[1], lat[4])
	}
}

func TestFaultToleranceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("64-chiplet experiment skipped in -short mode")
	}
	s := tiny
	s.Rates = []float64{0.2}
	pts, err := FaultTolerance(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Deadlock {
			t.Errorf("%s deadlocked", p.Series)
		}
	}
}

func TestCollectiveStudyRuns(t *testing.T) {
	s := tiny
	s.CollectiveSizes = []int{64}
	pts, err := CollectiveStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	// 2 topologies x 4 collectives x 1 size.
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	for _, p := range pts {
		if p.AvgLatency <= 0 {
			t.Errorf("%s/%s: completion %f", p.Experiment, p.Series, p.AvgLatency)
		}
	}
}

func TestSaturationPoint(t *testing.T) {
	pts := []Point{
		{Series: "a", X: 0.1, Saturated: false},
		{Series: "a", X: 0.3, Saturated: false},
		{Series: "a", X: 0.5, Saturated: true},
		{Series: "b", X: 0.1, Saturated: true},
	}
	if s := SaturationPoint(pts, "a"); s != 0.3 {
		t.Errorf("a saturates at %g, want 0.3", s)
	}
	if s := SaturationPoint(pts, "b"); s != 0 {
		t.Errorf("b saturates at %g, want 0", s)
	}
}

func TestOutputs(t *testing.T) {
	pts := []Point{
		{Experiment: "e", Series: "s", X: 0.1, XName: "injection-rate", AvgLatency: 42, Accepted: 0.09},
		{Experiment: "e", Series: "s", X: 0.2, XName: "injection-rate", AvgLatency: 50, Accepted: 0.18, Saturated: true},
	}
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, pts); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	if !strings.Contains(out, "avg_latency") || !strings.Contains(out, "42.00") {
		t.Errorf("csv output missing content:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("csv rows = %d, want 3", got)
	}

	var cb bytes.Buffer
	FormatCurves(&cb, pts)
	if !strings.Contains(cb.String(), "## e") || !strings.Contains(cb.String(), "saturation ~0.10") {
		t.Errorf("curve output:\n%s", cb.String())
	}

	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	FormatTable1(&tb, rows)
	if !strings.Contains(tb.String(), "hypercube") {
		t.Errorf("table output:\n%s", tb.String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := []Point{
		{Experiment: "e", Series: "s", X: 0.1, XName: "injection-rate", AvgLatency: 42.25, Accepted: 0.09, Saturated: false},
		{Experiment: "e", Series: "t", X: 0.6, XName: "injection-rate", AvgLatency: 900, Accepted: 0.4, Saturated: true},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d points", len(got))
	}
	if got[0].Experiment != "e" || got[0].Series != "s" || got[0].X != 0.1 ||
		got[0].AvgLatency != 42.25 || got[1].Saturated != true {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if _, err := ReadCSV(strings.NewReader("bogus,header\n1,2\n")); err == nil {
		t.Error("CSV without required columns accepted")
	}
}

func TestWriteSVGs(t *testing.T) {
	dir := t.TempDir()
	pts := []Point{
		{Experiment: "figX", Series: "a", X: 0.1, XName: "injection-rate", AvgLatency: 100},
		{Experiment: "figX", Series: "a", X: 0.3, XName: "injection-rate", AvgLatency: 140},
		{Experiment: "figX", Series: "b", X: 0.1, XName: "injection-rate", AvgLatency: 90},
		{Experiment: "figX", Series: "b", X: 0.3, XName: "injection-rate", AvgLatency: 95},
		{Experiment: "figY", Series: "a", X: 1, XName: "chiplets", AvgLatency: 50},
		{Experiment: "figY", Series: "a", X: 2, XName: "chiplets", AvgLatency: 60},
	}
	paths, err := WriteSVGs(dir, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d files, want 2", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Errorf("%s is not an SVG", p)
		}
	}
}

// TestRunJobsPreflightFirstFailureInJobOrder: runJobs certifies the
// batch's distinct design points together, caches every verdict, and
// reports the first failing job in job order with the message a
// one-at-a-time pre-flight gives — before simulating anything.
func TestRunJobsPreflightFirstFailureInJobOrder(t *testing.T) {
	good := baseConfig(tiny)
	good.Topology = chipletnet.HypercubeTopology(3)
	bad := func(dims ...int) chipletnet.Config {
		cfg := baseConfig(tiny)
		cfg.Topology = chipletnet.NDMeshTopology(dims...)
		cfg.DisableNDMeshVCSeparation = true
		cfg.AllowUnsafeRouting = true
		cfg.Seed = 4242 // a key no other test has cached
		return cfg
	}
	jobs := []job{
		{cfg: good, exp: "t", series: "good", x: 0.1, xname: "injection-rate"},
		{cfg: bad(3, 2, 2), exp: "t", series: "bad-a", x: 0.1, xname: "injection-rate"},
		{cfg: good, exp: "t", series: "good", x: 0.5, xname: "injection-rate"},
		{cfg: bad(2, 2, 2), exp: "t", series: "bad-b", x: 0.5, xname: "injection-rate"},
	}
	_, err := runJobs(jobs)
	rep, verr := chipletnet.VerifyConfig(jobs[1].cfg, verify.Options{MaxDests: 16, MaxSources: 8})
	if verr != nil || rep.Err() == nil {
		t.Fatalf("fixture is not a pre-flight failure: %v", verr)
	}
	want := "t/bad-a at injection-rate=0.1: pre-flight verification failed: " + rep.Err().Error()
	if err == nil || err.Error() != want {
		t.Fatalf("runJobs error:\n got %v\nwant %s", err, want)
	}
	errs := preflightAll([]chipletnet.Config{jobs[3].cfg, good})
	if errs[0] == nil || errs[1] != nil {
		t.Errorf("cached verdicts: bad-b %v, good %v", errs[0], errs[1])
	}
}
