package verify_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"testing"
	"unicode/utf8"

	"chipletnet/internal/routing"
	"chipletnet/internal/verify"
)

// hypercube4Hash is the content address of the hypercube-4 fixture's
// certificate. It pins Hash's encoding: a return to gob, or any other
// change to how a certificate is addressed, moves it — and such a change
// needs a verify.Version bump.
const hypercube4Hash = "59fe1eec37ca38003ee4f612c3bbb44f4ad4b5b7300b0d1bcb6f87966a292d95"

// TestCertificateDeterministic: two independent runs over the same built
// system must produce byte-identical certificates with the pinned content
// address — the address keys DSE records and the DSE store's persisted
// verdicts, which other processes read.
func TestCertificateDeterministic(t *testing.T) {
	hash := func() string {
		sys := build(t, "hypercube-4")
		install(t, sys, routing.Options{})
		rep := verify.Run(sys, verify.Options{})
		cert := rep.Certificate()
		if !cert.Certified || !cert.PreflightOK {
			t.Fatalf("fixture not certified:\n%s", rep)
		}
		if len(cert.Obligations) != 4 {
			t.Fatalf("want 4 obligations, got %d", len(cert.Obligations))
		}
		for i, name := range []string{"deadlock-freedom", "reachability", "livelock-freedom", "vc-discipline"} {
			if cert.Obligations[i].Name != name {
				t.Fatalf("obligation %d is %q, want %q", i, cert.Obligations[i].Name, name)
			}
			if !cert.Obligations[i].Proved || len(cert.Obligations[i].Witnesses) != 0 {
				t.Fatalf("obligation %q not cleanly proved: %+v", name, cert.Obligations[i])
			}
		}
		return cert.Hash()
	}
	a, b := hash(), hash()
	if a != b {
		t.Errorf("certificate hash not deterministic: %s vs %s", a, b)
	}
	if a != hypercube4Hash {
		t.Errorf("hypercube-4 certificate hash %s, pinned %s: the certificate or its encoding moved (bump verify.Version and re-pin)", a, hypercube4Hash)
	}
}

// TestCertificateAborted: a panicked or unsupported analysis proves
// nothing — every obligation must come back open.
func TestCertificateAborted(t *testing.T) {
	rep := &verify.Report{Unsupported: "routing not analyzable"}
	cert := rep.Certificate()
	if cert.Certified || cert.PreflightOK {
		t.Errorf("aborted analysis certified=%v preflight=%v", cert.Certified, cert.PreflightOK)
	}
	for _, o := range cert.Obligations {
		if o.Proved {
			t.Errorf("obligation %s proved by an aborted analysis", o.Name)
		}
		if o.Basis != "analysis incomplete: routing not analyzable" {
			t.Errorf("obligation %s basis %q", o.Name, o.Basis)
		}
	}
}

// FuzzCertificateRoundTrip: a certificate must survive its two wire
// encodings — gob and JSON (the Hash content address and the chipletverify
// export) — with its content address intact.
func FuzzCertificateRoundTrip(f *testing.F) {
	f.Add("hypercube", "duato-escape", 16, 12, 4096, 9, true, "")
	f.Add("mesh", "safe-unsafe", 9, 1, 81, 0, false, "cycle edge 0->1/vc0 => 1->2/vc0  [packet to 2, tag 0]")
	f.Add("", "", 0, 0, 0, -3, false, "3 -> 5 -> 3  [packet to 0, tag 1]")
	f.Fuzz(func(t *testing.T, topo, mode string, dests, tags, states, bound int, proved bool, witness string) {
		obligations := make([]verify.Obligation, 4)
		for i, name := range []string{"deadlock-freedom", "reachability", "livelock-freedom", "vc-discipline"} {
			obligations[i] = verify.Obligation{Name: name, Proved: proved, Basis: mode}
		}
		if witness != "" {
			obligations[2].Proved = false
			obligations[2].Witnesses = []string{witness}
		}
		c := &verify.Certificate{
			Topology:         topo,
			Mode:             mode,
			Dests:            dests,
			Tags:             tags,
			States:           states,
			EscapeChannels:   dests * tags,
			DepEdges:         states,
			EscapeHopBound:   bound,
			AdaptiveHopBound: bound / 2,
			Obligations:      obligations,
			Certified:        proved && witness == "",
			PreflightOK:      proved,
		}
		h := c.Hash()
		if c.Hash() != h {
			t.Fatal("Hash not stable across calls")
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		var viaGob verify.Certificate
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatalf("gob decode: %v", err)
		}
		if viaGob.Hash() != h {
			t.Errorf("gob round trip changed the content address: %s -> %s", h, viaGob.Hash())
		}
		if viaGob.Topology != c.Topology || viaGob.Certified != c.Certified ||
			viaGob.States != c.States || len(viaGob.Obligations) != len(c.Obligations) {
			t.Errorf("gob round trip changed fields: %+v vs %+v", viaGob, c)
		}

		// JSON cannot represent invalid UTF-8 (Marshal substitutes U+FFFD),
		// so the JSON address-preservation property only holds for valid
		// string content — which is all the certifier ever emits.
		if !utf8.ValidString(topo) || !utf8.ValidString(mode) || !utf8.ValidString(witness) {
			return
		}
		js, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("json marshal: %v", err)
		}
		var viaJSON verify.Certificate
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatalf("json unmarshal: %v", err)
		}
		if viaJSON.Hash() != h {
			t.Errorf("json round trip changed the content address: %s -> %s", h, viaJSON.Hash())
		}
	})
}
