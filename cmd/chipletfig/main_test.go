package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles the test binary as chipletfig itself: with
// CHIPLETFIG_CHILD set the process runs main() on the provided argv, so
// exit codes and output are asserted on a real process.
func TestMain(m *testing.M) {
	if os.Getenv("CHIPLETFIG_CHILD") == "1" {
		os.Args = append([]string{"chipletfig"}, strings.Fields(os.Getenv("CHIPLETFIG_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownExperimentRejectedFirst: an unknown experiment name exits 1
// before anything runs — no Table I on stdout, no journal — with and
// without -journal.
func TestUnknownExperimentRejectedFirst(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	for _, args := range []string{"table1 nosuch", "-journal " + journal + " table1 fig11 nosuch"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "CHIPLETFIG_CHILD=1", "CHIPLETFIG_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("chipletfig %s: err = %v, want exit 1; stderr:\n%s", args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
			t.Errorf("chipletfig %s: stderr lacks the diagnostic:\n%s", args, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("chipletfig %s ran before rejecting the name:\n%s", args, stdout.String())
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("the -journal run created %s (stat: %v)", journal, err)
	}
}
