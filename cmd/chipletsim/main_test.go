package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"chipletnet"
	"chipletnet/internal/checkpoint"
)

// TestMain doubles the test binary as chipletsim itself: with
// CHIPLETSIM_CHILD set the process runs main() on the provided argv, so
// exit codes and stderr diagnostics are asserted on a real process.
func TestMain(m *testing.M) {
	if os.Getenv("CHIPLETSIM_CHILD") == "1" {
		os.Args = append([]string{"chipletsim"}, strings.Fields(os.Getenv("CHIPLETSIM_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestResumeMismatchDiagnostic: -resume with a checkpoint whose snapshot
// no longer fits its embedded configuration must exit 1 with a
// diagnostic naming the mismatch, not crash or silently diverge.
func TestResumeMismatchDiagnostic(t *testing.T) {
	// Produce a real checkpoint, then doctor the embedded config so the
	// snapshot state (which carries fault-engine streams) no longer
	// matches it — the same corruption shape as the root
	// TestCheckpointConfigMismatch.
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(3)
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 500
	cfg.Fault.BER = 5e-4
	path := filepath.Join(t.TempDir(), "doctored.ckpt")
	sys, err := chipletnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SimulateControlled(chipletnet.RunControl{CheckpointPath: path, InterruptAtCycle: 200}); !errors.Is(err, chipletnet.ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var embedded chipletnet.Config
	if err := json.Unmarshal(st.Config, &embedded); err != nil {
		t.Fatal(err)
	}
	embedded.Fault = chipletnet.FaultConfig{}
	if st.Config, err = json.Marshal(embedded); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(path, st); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1", "CHIPLETSIM_ARGS=-resume "+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("doctored resume: err = %v, want a non-zero exit", err)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "does not match configuration") {
		t.Errorf("stderr lacks the mismatch diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "-resume") {
		t.Errorf("stderr does not point at -resume:\n%s", out)
	}
}

// TestResumeMissingFileExits1: a nonexistent checkpoint path is a plain
// fatal error, not the mismatch diagnostic.
func TestResumeMissingFileExits1(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1", "CHIPLETSIM_ARGS=-resume "+filepath.Join(t.TempDir(), "nope.ckpt"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("missing checkpoint: err = %v (stderr %q), want exit 1", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "does not match configuration") {
		t.Errorf("missing file misreported as a config mismatch:\n%s", stderr.String())
	}
}

// runChild runs chipletsim on args in a child process and returns its
// stdout, failing the test on a non-zero exit.
func runChild(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1", "CHIPLETSIM_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("chipletsim %s: %v; stderr:\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestResumeReportsEmbeddedSystem: -resume without topology flags must
// describe the checkpointed run's system, not the flag defaults.
func TestResumeReportsEmbeddedSystem(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	fresh := runChild(t, "-topology hypercube -dims 3 -noc 3x3 -warmup 100 -measure 400 -rate 0.1 -checkpoint "+ckpt+" -checkpoint-every 200")
	resumed := runChild(t, "-resume "+ckpt)
	const want = "system:        hypercube 2^3 of 3x3 chiplets"
	for name, out := range map[string]string{"fresh": fresh, "resumed": resumed} {
		if !strings.Contains(out, want) {
			t.Errorf("%s run report lacks %q:\n%s", name, want, out)
		}
	}
}

// TestJSONEmptyWindow: a measurement window too short to deliver any
// packet leaves the latencies NaN; -json still exits 0 with valid JSON,
// writing them as 0.
func TestJSONEmptyWindow(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1",
		"CHIPLETSIM_ARGS=-topology hypercube -dims 2 -warmup 10 -measure 20 -rate 0.01 -json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("exit: %v; stderr:\n%s", err, stderr.String())
	}
	var res chipletnet.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if res.AvgLatency != 0 || res.MeasuredPackets != 0 {
		t.Errorf("AvgLatency %v over %d measured packets, want 0 over 0", res.AvgLatency, res.MeasuredPackets)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write files that
// `go tool pprof` reads, both when chipletsim returns from main and when
// it exits through a diagnostic (exit 1).
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	dir := t.TempDir()
	check := func(path, want string) {
		t.Helper()
		out, err := exec.Command("go", "tool", "pprof", "-raw", path).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool pprof -raw %s: %v\n%s", path, err, out)
		}
		if !strings.Contains(string(out), want) {
			t.Errorf("%s does not read as a %q profile:\n%s", path, want, out)
		}
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	runChild(t, "-topology hypercube -dims 2 -warmup 50 -measure 200 -cpuprofile "+cpu+" -memprofile "+mem)
	check(cpu, "PeriodType: cpu nanoseconds")
	check(mem, "alloc_space/bytes")

	cpu, mem = filepath.Join(dir, "cpu1.prof"), filepath.Join(dir, "mem1.prof")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1",
		"CHIPLETSIM_ARGS=-checkpoint-every 5 -cpuprofile "+cpu+" -memprofile "+mem)
	var exitErr *exec.ExitError
	if out, err := cmd.CombinedOutput(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("-checkpoint-every without -checkpoint: %v, want exit 1\n%s", err, out)
	}
	check(cpu, "PeriodType: cpu nanoseconds")
	check(mem, "alloc_space/bytes")
}
