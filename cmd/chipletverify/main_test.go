package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"chipletnet"
	"chipletnet/internal/verify"
)

// TestMain doubles the test binary as chipletverify itself: with
// CHIPLETVERIFY_CHILD set the process runs main() on the provided argv,
// so exit codes and output are asserted on a real process.
func TestMain(m *testing.M) {
	if os.Getenv("CHIPLETVERIFY_CHILD") == "1" {
		os.Args = append([]string{"chipletverify"}, strings.Fields(os.Getenv("CHIPLETVERIFY_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes chipletverify with args and returns its stdout, stderr and
// exit code.
func run(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETVERIFY_CHILD=1", "CHIPLETVERIFY_ARGS="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("chipletverify %s: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestCertifiesHypercube: a known-good hypercube exits 0 with a
// certificate whose four obligations are proved.
func TestCertifiesHypercube(t *testing.T) {
	out, stderr, code := run(t, "-topology hypercube -dims 4")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "— CERTIFIED") || strings.Contains(out, "NOT CERTIFIED") {
		t.Errorf("output does not certify the hypercube:\n%s", out)
	}
	if n := strings.Count(out, " proved — "); n != 4 || strings.Contains(out, "FAILED") {
		t.Errorf("%d of 4 obligations proved:\n%s", n, out)
	}
}

// TestRejectsEqualChannelNDMesh: the equal-channel nD-mesh, built past the
// factory's safety check, exits 2 with a dependency-cycle witness.
func TestRejectsEqualChannelNDMesh(t *testing.T) {
	out, stderr, code := run(t, "-topology ndmesh -dims 3,2,2 -equal-channels -allow-unsafe")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"CYCLE:", "NOT CERTIFIED", "witness: cycle edge"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestJSONCertificateHash: -json emits the report, the certificate and its
// content address; the decoded certificate hashes to that address, and
// both equal what the library computes for the same configuration, in
// another process.
func TestJSONCertificateHash(t *testing.T) {
	out, stderr, code := run(t, "-topology hypercube -dims 3 -json")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	var got struct {
		Report          *verify.Report
		Certificate     *verify.Certificate
		CertificateHash string
	}
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("decode -json output: %v\n%s", err, out)
	}
	if got.Certificate == nil || got.Report == nil {
		t.Fatalf("-json output lacks the report or certificate:\n%s", out)
	}
	if h := got.Certificate.Hash(); h != got.CertificateHash {
		t.Errorf("decoded certificate hashes to %s, CertificateHash is %s", h, got.CertificateHash)
	}

	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(3)
	cfg.ChipletW, cfg.ChipletH = 4, 4
	rep, err := chipletnet.VerifyConfig(cfg, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h := rep.Certificate().Hash(); h != got.CertificateHash {
		t.Errorf("library certificate hash %s, command printed %s", h, got.CertificateHash)
	}
	if !reflect.DeepEqual(rep, got.Report) {
		t.Errorf("decoded report differs from the library's:\n got %+v\nwant %+v", got.Report, rep)
	}
}
