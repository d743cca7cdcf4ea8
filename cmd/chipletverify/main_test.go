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

// TestPinsHypercube2LivelockVerdict pins the current verdict on the
// 4-chiplet hypercube under Duato routing: deadlock freedom and
// reachability hold, but livelock freedom fails with 96 adaptive-cycle
// findings (8 witnesses kept, 88 truncated) such as 17 -> 18 -> 22 -> 21.
// Whether those cycles are real or the check is too strict for this
// shape is an open question; until it is answered, the verdict must not
// move by accident.
func TestPinsHypercube2LivelockVerdict(t *testing.T) {
	out, stderr, code := run(t, "-topology hypercube -dims 2 -json")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	var got struct {
		Report          *verify.Report
		Certificate     *verify.Certificate
		CertificateHash string
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil || got.Report == nil {
		t.Fatalf("decode -json output: %v\n%s", err, out)
	}
	const wantHash = "a0dc5d5e990aa6846f302bd892ff799b133c301f502e0e5faf9301bf734db826"
	if got.CertificateHash != wantHash {
		t.Errorf("certificate %s, want %s", got.CertificateHash, wantHash)
	}
	rep := got.Report
	if n := len(rep.Livelock) + rep.Truncated; len(rep.Livelock) != 8 || n != 96 {
		t.Errorf("%d livelock witnesses + %d truncated, want 8 + 88", len(rep.Livelock), rep.Truncated)
	}
	if rep.Cycle != nil || rep.Unreachable != nil || rep.DeadEnds != nil || rep.VCViolations != nil {
		t.Errorf("only livelock freedom should fail: %+v", rep)
	}
	if rep.States != 18884 || rep.EscapeChannels != 192 || rep.DepEdges != 324 ||
		rep.EscapeHopBound != 18 || rep.AdaptiveHopBound != 17 {
		t.Errorf("traversal moved: %d states, %d escape channels, %d dependencies, hop bounds %d/%d; want 18884, 192, 324, 18/17",
			rep.States, rep.EscapeChannels, rep.DepEdges, rep.EscapeHopBound, rep.AdaptiveHopBound)
	}
	if len(rep.Livelock) > 0 {
		if w := rep.Livelock[0].String(); w != "17 -> 18 -> 22 -> 21 -> 17  [packet to 5, tag 5]" {
			t.Errorf("first livelock witness %q", w)
		}
	}
}
