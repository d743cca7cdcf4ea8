package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles the test binary as topoviz itself: with TOPOVIZ_CHILD
// set the process runs main() on the provided argv, so exit codes and
// output are asserted on a real process.
func TestMain(m *testing.M) {
	if os.Getenv("TOPOVIZ_CHILD") == "1" {
		os.Args = append([]string{"topoviz"}, strings.Fields(os.Getenv("TOPOVIZ_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes topoviz with args and returns its stdout, stderr and exit
// code.
func run(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TOPOVIZ_CHILD=1", "TOPOVIZ_ARGS="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("topoviz %s: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestHypercube: a 2-D hypercube of 4x4 chiplets exits 0 and reports its
// chiplet and link counts (4 chiplets of 48 unidirectional on-chip links;
// 4 adjacent chiplet pairs joined by 6 bidirectional off-chip links each).
func TestHypercube(t *testing.T) {
	out, stderr, code := run(t, "-topology hypercube -dims 2")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"chiplets:         4 of 4x4 nodes",
		"links:            192 on-chip + 48 chiplet-to-chiplet",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRejectsBadInput: malformed -noc values and an out-of-range -chiplet
// exit 1 with a diagnostic instead of drawing a different topology.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-noc 5", "bad -noc"},
		{"-noc 4xq", "bad -noc"},
		{"-chiplet 99", "chiplet 99 out of range"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			_, stderr, code := run(t, "-topology hypercube -dims 2 "+tc.args)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "topoviz: "+tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr)
			}
		})
	}
}
