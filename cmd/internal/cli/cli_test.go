package cli

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chipletnet"
)

func TestParseNoCs(t *testing.T) {
	var got [][2]int
	fs := New("test")
	fs.NoCsVar(&got, "noc", "")
	if err := fs.Set("noc", "4x4, 8X6"); err != nil {
		t.Fatal(err)
	}
	if want := [][2]int{{4, 4}, {8, 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("-noc 4x4,8X6 = %v, want %v", got, want)
	}
	for _, bad := range []string{"4", "4x", "axb", "4x4x4"} {
		if err := fs.Set("noc", bad); err == nil {
			t.Errorf("-noc %q accepted", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(" a, b ,,c "); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("splitList = %v", got)
	}
	if got := splitList("  "); got != nil {
		t.Errorf("splitList on blank = %v, want nil (default axis)", got)
	}
}

func TestParseIntsFloats(t *testing.T) {
	var ints []int
	floats := []float64{1}
	fs := New("test")
	fs.IntsVar(&ints, "ints", "")
	fs.FloatsVar(&floats, "floats", "")
	if err := fs.Set("ints", "2,4"); err != nil || !reflect.DeepEqual(ints, []int{2, 4}) {
		t.Errorf("-ints 2,4 = %v, %v", ints, err)
	}
	if err := fs.Set("ints", "2,x"); err == nil {
		t.Error("-ints accepted a non-integer")
	}
	if err := fs.Set("floats", "0.05,0.8"); err != nil || !reflect.DeepEqual(floats, []float64{0.05, 0.8}) {
		t.Errorf("-floats 0.05,0.8 = %v, %v", floats, err)
	}
	if err := fs.Set("floats", "0.05,?"); err == nil {
		t.Error("-floats accepted a non-float")
	}
	if err := fs.Set("floats", ""); err != nil || floats != nil {
		t.Errorf("-floats '' = %v, %v; want nil (default ladder)", floats, err)
	}
}

func TestParseKills(t *testing.T) {
	kills, err := Kills("500:0-16,1200:3-19")
	if err != nil {
		t.Fatal(err)
	}
	want := []chipletnet.FaultKill{
		{Cycle: 500, A: 0, B: 16},
		{Cycle: 1200, A: 3, B: 19},
	}
	if !reflect.DeepEqual(kills, want) {
		t.Errorf("kills = %+v, want %+v", kills, want)
	}
	for _, bad := range []string{"", "500", "500:0", "x:0-16", "500:0-16:2", "500:a-16"} {
		if _, err := Kills(bad); err == nil {
			t.Errorf("Kills(%q) accepted", bad)
		}
	}
}

func TestParseDegrades(t *testing.T) {
	degs, err := Degrades("300:0-16:2,900:3-19:4:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []chipletnet.FaultDegrade{
		{Cycle: 300, A: 0, B: 16, BandwidthDiv: 2, LatencyMult: 1},
		{Cycle: 900, A: 3, B: 19, BandwidthDiv: 4, LatencyMult: 3},
	}
	if !reflect.DeepEqual(degs, want) {
		t.Errorf("degrades = %+v, want %+v", degs, want)
	}
	for _, bad := range []string{"300:0-16", "300:0-16:x", "300:0-16:2:3:4"} {
		if _, err := Degrades(bad); err == nil {
			t.Errorf("Degrades(%q) accepted", bad)
		}
	}
}

// writeConfig saves cfg as a -config file and returns its path.
func writeConfig(t *testing.T, cfg chipletnet.Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.WriteJSON(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// parseConfig binds the Config flags the way chipletsim does and parses
// args.
func parseConfig(t *testing.T, args ...string) chipletnet.Config {
	t.Helper()
	cfg := chipletnet.DefaultConfig()
	fs := New("test")
	fs.Topology(&cfg)
	fs.Routing(&cfg)
	fs.IntVar(&cfg.VCs, "vcs", cfg.VCs, "")
	fs.ConfigFile(&cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%q): %v", args, err)
	}
	return cfg
}

// TestRoutingOverConfig: -routing over a -config file saved with compiled
// routing sets both Routing and CompiledRouting, for each of its values.
func TestRoutingOverConfig(t *testing.T) {
	compiled := chipletnet.DefaultConfig()
	compiled.CompiledRouting = true
	path := writeConfig(t, compiled)
	for _, tc := range []struct {
		flag     string
		routing  chipletnet.RoutingMode
		compiled bool
	}{
		{"duato", chipletnet.RoutingDuato, false},
		{"safe-unsafe", chipletnet.RoutingSafeUnsafe, false},
		{"compiled", chipletnet.RoutingDuato, true},
	} {
		cfg := parseConfig(t, "-config", path, "-routing", tc.flag)
		if cfg.Routing != tc.routing || cfg.CompiledRouting != tc.compiled {
			t.Errorf("-routing %s over a compiled config: Routing %q CompiledRouting %v, want %q %v",
				tc.flag, cfg.Routing, cfg.CompiledRouting, tc.routing, tc.compiled)
		}
	}
}

// TestConfigOverlay: the flags the user set override the -config file,
// and every other field keeps the file's value rather than the flag's
// default.
func TestConfigOverlay(t *testing.T) {
	file := chipletnet.DefaultConfig()
	file.Topology = chipletnet.NDMeshTopology(4, 2, 2)
	file.ChipletW, file.ChipletH = 6, 5
	file.VCs = 4
	path := writeConfig(t, file)

	cfg := parseConfig(t, "-vcs", "3", "-config", path, "-topology", "ndtorus")
	want := file
	want.VCs = 3
	want.Topology.Kind = "ndtorus"
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("overlay = %+v\nwant %+v", cfg, want)
	}
	if cfg := parseConfig(t, "-config", path); !reflect.DeepEqual(cfg, file) {
		t.Errorf("-config alone = %+v\nwant the file %+v", cfg, file)
	}
}
