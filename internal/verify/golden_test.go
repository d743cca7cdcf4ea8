package verify_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"chipletnet"
	"chipletnet/internal/dse"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/routing"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

// certificateGolden pins, per analyzed system, the JSON encoding of the
// whole Report (witnesses with their (dst, tag), hop bounds, counts,
// panic text) and of its Certificate, hashed together. Compile cases also
// fold in the compiled table digest. JSON rather than gob: gob numbers
// struct types process-wide in first-use order, so a gob hash depends on
// what the process encoded before. The hashes were taken before the
// analyzer's escape memo and dense channel ids went in and must never
// move without a deliberate change to what the certifier proves or
// reports.
var certificateGolden = map[string]string{
	"dragonfly-6|duato":                                      "7c6564b6c03924a4e8770ae87f5f0362bf176b9723913ffd6c82bc1f21156a5e",
	"dragonfly-6|safe-unsafe":                                "86335d989908f08cae78108db27251cad78644cf69197e14d985a77899608652",
	"hypercube-2^4/noc4x4/adaptive/none/bw2|full":            "3a26d054e03fe1e35f8b64f7ef3a401477cb6fca2abf1ae57cd43c4f6bed1a3b",
	"hypercube-2^4/noc4x4/adaptive/none/bw2|preflight":       "8ece38140e8ab4cbb50ec48430b4ba226dc4ae5301561ec4234339478b687e8b",
	"hypercube-2^4/noc4x4/mfr/none/bw2|full":                 "515f4f697c4b0cd54e08c28cf3c26ed858b6e1f65b2090830465383d6d2885d2",
	"hypercube-2^4/noc4x4/mfr/none/bw2|preflight":            "9f376657e8c167ee755e0dc1324363b9cbb61107fb4f9bb4285d34edca741fe1",
	"hypercube-4|compile":                                    "84be1cb4954dc7f555bf6d3d8e47bc99d25b5db3efcbac2ae889507b40caa7a9",
	"hypercube-4|panic-escape-duato-escape":                  "a30819baceb284fd3c10c5e0fd80f5a95a4a04e25d7730b7924d7499721008ce",
	"hypercube-4|panic-escape-safe-unsafe":                   "351eff9e20e7af1d87a160eeb94b9dba7ae632932d78593c3cf319685badba63",
	"hypercube-4|wild-escape-duato":                          "7b51d759362ed10222da47b57ca113f204c603430d5217e566a3cfdde035844c",
	"hypercube-4|wild-escape-su":                             "4eecab56d45dbce4217a563418a1c556baaf2425c7e9d8bd0d5e3f253d7f830f",
	"hypercube-4|wild-escape-su-badvc":                       "6c34ddc6d1847fb12f505dcaecb7f036670f28708895d3092e1c782e08d7be14",
	"mesh-1x16/noc4x4/adaptive/none/bw2|full":                "039548f8e7f40c89dd2cd3e2b08cb9d778fc93eb7a01af34f742a062277902ad",
	"mesh-1x16/noc4x4/adaptive/none/bw2|preflight":           "3beb24ae8b79b9e65742b07e5e9066e91c2e0e9c63c53ddc635acc0cd0e16587",
	"mesh-1x16/noc4x4/mfr/none/bw2|full":                     "8200f908cbfbe69deb9f603ac096f7e24d98e05f8980aac7f095b20d1744c022",
	"mesh-1x16/noc4x4/mfr/none/bw2|preflight":                "76dfb2e1015b889e55076be559e7987b359b0ab9eadca3ad4ec9a48922f88bc9",
	"mesh-2x8/noc4x4/adaptive/none/bw2|full":                 "12f83d48c69a203f3e24f7b954e2609dc06f005c857c4414c9912c83c001fe6d",
	"mesh-2x8/noc4x4/adaptive/none/bw2|preflight":            "1a6fcc591ad4653362e96c06e60ae74526a06bfea3772d08ad743c60f2f4a37b",
	"mesh-2x8/noc4x4/mfr/none/bw2|full":                      "f6587dc74d5f8b1a37bf0af2e477d7397e092f196d0c3523b9d73bd20d29b1a2",
	"mesh-2x8/noc4x4/mfr/none/bw2|preflight":                 "0c8178e17cfba53d7ccc782548d52531dd7af899782e555f83700a4f378079c9",
	"mesh-3x3|compile":                                       "277f3e34829263a842c676f5b345637af001c963c82285bdd5c78c2e13c05b7e",
	"mesh-3x3|ping-pong":                                     "43772e4e1232f691cb8ab5a439cf9add561d0fba003a886d3fcda03176de61e2",
	"mesh-3x3|unreachable":                                   "adb0e1b5619c4f3d8341ddf9646dbca225e013bd0375ee68e3af40a0fd5b765c",
	"mesh-4x4/noc4x4/adaptive/none/bw2|full":                 "9164fa24cf94e62d2c415426f1fc3b8c273059c4a354eafe8b2e8e5ae1dc3203",
	"mesh-4x4/noc4x4/adaptive/none/bw2|preflight":            "4c9e37b75de7b3673e7a60a87b7aa1372227ddcfb2d525a92ad9ff8d8bf877ed",
	"mesh-4x4/noc4x4/mfr/none/bw2|full":                      "e43226a07d217c554787a559f94b9cdf705511bd4fcb186b5ec2a37aba28b38d",
	"mesh-4x4/noc4x4/mfr/none/bw2|preflight":                 "d319a6929329f36d7517d809320fcdfe3408e3e504a1f30b7dda1ea4c0bf3637",
	"ndmesh-2x2x2x2/noc4x4/adaptive/none/bw2|full":           "4ebb78d51a884b6ed624c800d811583bf591492e3666b64a8cb0ae421c0428a7",
	"ndmesh-2x2x2x2/noc4x4/adaptive/none/bw2|preflight":      "fd44fe97976e69893ad11b34c7a61b253f68cdb528a46dfc33982da661c2180b",
	"ndmesh-2x2x2x2/noc4x4/equal-channel/none/bw2|full":      "1f8d5764b05522a6fb41588fed4ffd270541d245c7011b64eaf73ef6530da1d5",
	"ndmesh-2x2x2x2/noc4x4/equal-channel/none/bw2|preflight": "775ba8734b7323585a18469de659a18a22ec2fb26e8d9fb55ef1e3babf4246ea",
	"ndmesh-2x2x2x2/noc4x4/mfr/none/bw2|full":                "4c1b4b40f1296ef5d32174b9962fee20e18ccaafad9597d2f36c175b57bcd90a",
	"ndmesh-2x2x2x2/noc4x4/mfr/none/bw2|preflight":           "229b48119696028d520ce3a72a23b71659495a434516f3463da01d3f355fa0de",
	"ndmesh-3x2x2|equal-channel":                             "f2537165a097e2b3777eaee690a5e2ddb0d83a135a11d0c0c21edf1874bb7473",
	"ndmesh-4x2x2/noc4x4/adaptive/none/bw2|full":             "7c13f3af5a1291db82cf4f84548b778a1bb8b60e64798327501bc924d86d8ed4",
	"ndmesh-4x2x2/noc4x4/adaptive/none/bw2|preflight":        "00e98c2025e3a095bf2d9f9d68f0be7673cbf8d431f3c158754069ad451660cc",
	"ndmesh-4x2x2/noc4x4/equal-channel/none/bw2|full":        "c31c9e10782a2d8550f8f8d571d63e4047bb1184181ba6d2ddac7e1265bfd0c7",
	"ndmesh-4x2x2/noc4x4/equal-channel/none/bw2|preflight":   "2b85e2b2086e0d10ff3a1a31c8ad98dfa834aec1d39894b08f237369bd9130f7",
	"ndmesh-4x2x2/noc4x4/mfr/none/bw2|full":                  "879ea3bc48a27607a11a1892c28f2770bbabe61f18b47c5561acb5ed8a40ac27",
	"ndmesh-4x2x2/noc4x4/mfr/none/bw2|preflight":             "0d566fc984cab2f665aad60e178a373cba3c64341498c85123b1cf9410e80c31",
	"ndmesh-4x4/noc4x4/adaptive/none/bw2|full":               "af1f3473fb588514124908794b878fe3f0417546265cc5fcfa50f79f8fd2294e",
	"ndmesh-4x4/noc4x4/adaptive/none/bw2|preflight":          "653ecd87fa09a80626839e479f4879d241fb60787a4c95deda63b658df2a1120",
	"ndmesh-4x4/noc4x4/equal-channel/none/bw2|full":          "a13ec6880e70c79dbb29519a1516611e649a6d8bf928062f60873df2ff14c24d",
	"ndmesh-4x4/noc4x4/equal-channel/none/bw2|preflight":     "8644f738472b23b519456dfd6e1d70c16764213bcad18b07f0ece3080e0c6d24",
	"ndmesh-4x4/noc4x4/mfr/none/bw2|full":                    "d716f924006edd985bc4c12f786df6dd3cf4f87530cc386d3c242ccc217d20e2",
	"ndmesh-4x4/noc4x4/mfr/none/bw2|preflight":               "4bf2624f63499810967c568056dce2e97a7a106c032230337dcd20b6fbda84bc",
	"ndmesh-8x2/noc4x4/adaptive/none/bw2|full":               "858a13020ceda5e09ce0dde0fa6023bfa3e0ab9353232e1db9a35c4e563c15c8",
	"ndmesh-8x2/noc4x4/adaptive/none/bw2|preflight":          "083ce026eb8b56ba672fb6085597bb036d7fbf2a0d77034b0da352896149b797",
	"ndmesh-8x2/noc4x4/equal-channel/none/bw2|full":          "44e0d300d429d1f2c73c16a46357d62954f59fc68520c5d5df457cd2b8149cee",
	"ndmesh-8x2/noc4x4/equal-channel/none/bw2|preflight":     "d1b9081983762c2f361e662a9102720d904c05f096c7819f82c70802fe905c94",
	"ndmesh-8x2/noc4x4/mfr/none/bw2|full":                    "f70e1ac817d11d4156078fa4cf1786dd035bf1fdeb2193cb73addbb70ac54090",
	"ndmesh-8x2/noc4x4/mfr/none/bw2|preflight":               "e0d60d94a89c4e99ffe66726015b80f308bc5d5268e74f4e2667fba68e495eb3",
	"ndtorus-4x3|duato":                                      "83f37504abba1f69e1b1c988bc088c3661d56955a19a16d8c14c429f71ad6bdc",
	"ndtorus-4x3|equal-channel":                              "b47d0889b557a49cb5aa016cf3b99cf18c96ead91ca0f4bcb4d52aa580f61579",
	"ndtorus-4x3|safe-unsafe":                                "ec061fd73670dd3281c18a58ae96c48603fd6b4584f1bf0ef9a8319ff095af61",
	"ring-5|duato-unsafe":                                    "a8671f4201b1ccadc3fbc913d8acab09078e74afd343e8e3eddfb2e09d8afce3",
	"ring-5|safe-unsafe":                                     "972455de67632d30668e847257659056a2d96f221bec087b07b43f3de2b71c2d",
	"tree-16-fanout2/noc4x4/adaptive/none/bw2|full":          "2a670018b16b715c8f576b5f68f5af81d815c7f3499c6d45c1e34ee6ad0ef211",
	"tree-16-fanout2/noc4x4/adaptive/none/bw2|preflight":     "7f1110e7ef41d6a8026c2c0ab32d5adb6b55c904830998b854f37a28c4b23af8",
	"tree-16-fanout2/noc4x4/mfr/none/bw2|full":               "d40eb171438319ab80a62c60f76c321f685aff596f2fee95cba8b3dae4a0e418",
	"tree-16-fanout2/noc4x4/mfr/none/bw2|preflight":          "d785da15cbc8e045402f21ad16b7458cdb860012ea2a325422b1be289a1ed2c1",
	"tree-16-fanout3/noc4x4/adaptive/none/bw2|full":          "f5031d8a61c4b811267e6f030fce025702834a4a9938ca28930e1317d68d34a1",
	"tree-16-fanout3/noc4x4/adaptive/none/bw2|preflight":     "a3ff5426d412af62e2fd94ff5e27de84236545ff513b18dcbdc0f3432361e448",
	"tree-16-fanout3/noc4x4/mfr/none/bw2|full":               "bb327dc58a6b44cf89b225802982f52fcc4463378463c769b71b197b30bb0e4e",
	"tree-16-fanout3/noc4x4/mfr/none/bw2|preflight":          "49e8980ff5cbf235eeb0773bae4ea559846a80a6f5afdea555adea48d9fc2632",
	"tree-16-fanout4/noc4x4/adaptive/none/bw2|full":          "d9ea8722dd0b2f812bf6339df72e08402eafbb400b5f24273212b67e807b3f50",
	"tree-16-fanout4/noc4x4/adaptive/none/bw2|preflight":     "ff66bbae003603b50b7429aa9421dab06dbd0e37cdcd2318249052bd259cf40e",
	"tree-16-fanout4/noc4x4/mfr/none/bw2|full":               "e64f2df8edd13fa3decbf6c50e124747a0df960dad141ebd830563aa8632b762",
	"tree-16-fanout4/noc4x4/mfr/none/bw2|preflight":          "11fcb2855f15ef0cada79360770c243470c4dc8da22ea29ee680d5c43ae88951",
	"tree-7|compile":                                         "d26ead022a32252fd2ce4070de02e15fdd03a982afc51bbca5ba9b8e0edc97e8",
}

// reportDigest hashes extra and the JSON encodings of rep and its
// certificate into one hex string.
func reportDigest(t *testing.T, rep *verify.Report, extra string) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", extra)
	enc := json.NewEncoder(h)
	if err := enc.Encode(rep); err != nil {
		t.Fatalf("encode report: %v", err)
	}
	if err := enc.Encode(rep.Certificate()); err != nil {
		t.Fatalf("encode certificate: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wildEscapeRouting wraps a sound routing with an escape function that
// leaves the link graph at one node: from core a it names a non-adjacent
// node b as the next hop, on VC vc (which may lie outside the VC range).
// It exercises the analyzer's handling of channels that are not links.
type wildEscapeRouting struct {
	verify.EscapeAnalyzer
	a, b, vc int
}

func (w *wildEscapeRouting) EscapeStep(v int, p *packet.Packet) (int, int, bool) {
	if v == w.a && p.Dst != w.a && p.Dst != w.b {
		return w.b, w.vc, true
	}
	return w.EscapeAnalyzer.EscapeStep(v, p)
}

// panicEscapeRouting panics in EscapeStep at one (node, destination)
// state, so the recovered panic text and the partial counts pin the
// point at which the traversal first asks for that state.
type panicEscapeRouting struct {
	verify.EscapeAnalyzer
	at, dst int
}

func (q *panicEscapeRouting) EscapeStep(v int, p *packet.Packet) (int, int, bool) {
	if v == q.at && p.Dst == q.dst {
		panic(fmt.Sprintf("escape step at node %d for %d", v, p.Dst))
	}
	return q.EscapeAnalyzer.EscapeStep(v, p)
}

// TestCertificateGolden pins the certifier's output bit for bit:
//   - every distinct routing structure of the 16-chiplet DSE space over
//     mesh, nD-mesh, hypercube, tree and dragonfly (dragonfly is pruned
//     at 16 chiplets) under MFR (safe/unsafe) and adaptive (Duato)
//     routing, plus the deadlock-prone equal-channel nD-mesh, each under
//     the DSE pre-flight bounds and under full analysis;
//   - a 6-chiplet dragonfly and an nD-torus in both routing modes, the
//     cyclic custom ring in both routing modes, the defective
//     wrappers of negative_test.go, and escape functions that leave the
//     link graph or panic;
//   - routing.Compile's table digest on small mesh, hypercube and tree
//     systems.
func TestCertificateGolden(t *testing.T) {
	got := map[string]string{}

	space := dse.Space{
		Chiplets:      16,
		Topologies:    []string{"mesh", "ndmesh", "hypercube", "tree", "dragonfly"},
		Routings:      dse.RoutingModes(),
		Interleavings: []string{"none"},
	}
	cands, _, err := space.Enumerate(dse.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		for _, o := range []struct {
			name string
			opt  verify.Options
		}{{"preflight", verify.Options{MaxDests: 16, MaxSources: 8}}, {"full", verify.Options{}}} {
			rep, err := chipletnet.VerifyConfig(c.Cfg, o.opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			got[c.Name+"|"+o.name] = reportDigest(t, rep, "")
		}
	}

	fixture := func(name string, opt routing.Options) *topology.System {
		sys := build(t, name)
		install(t, sys, opt)
		return sys
	}
	duato := routing.Options{Mode: routing.DuatoEscape}
	su := routing.Options{Mode: routing.SafeUnsafe}
	analyze := func(name string, sys *topology.System, opt verify.Options) *verify.Report {
		rep := verify.Run(sys, opt)
		got[name] = reportDigest(t, rep, "")
		return rep
	}
	for _, name := range []string{"dragonfly-6", "ndtorus-4x3"} {
		analyze(name+"|duato", fixture(name, duato), verify.Options{})
		analyze(name+"|safe-unsafe", fixture(name, su), verify.Options{})
	}
	analyze("ring-5|duato-unsafe", fixture("ring-5", routing.Options{AllowUnsafe: true}), verify.Options{})
	analyze("ring-5|safe-unsafe", fixture("ring-5", su), verify.Options{})
	analyze("ndmesh-3x2x2|equal-channel", fixture("ndmesh-3x2x2",
		routing.Options{DisableNDMeshVCSeparation: true, AllowUnsafe: true}), verify.Options{})
	analyze("ndtorus-4x3|equal-channel", fixture("ndtorus-4x3",
		routing.Options{DisableNDMeshVCSeparation: true, AllowUnsafe: true}), verify.Options{MaxWitnesses: 3})

	sys := fixture("mesh-3x3", su)
	victim := sys.Cores[0]
	wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
		return &unreachableRouting{EscapeAnalyzer: inner, sys: sys, victim: victim}
	})
	analyze("mesh-3x3|unreachable", sys, verify.Options{})

	sys = fixture("mesh-3x3", duato)
	a := sys.Cores[0]
	b := neighbor(sys, a, -1)
	wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
		return &pingPongRouting{EscapeAnalyzer: inner, sys: sys, a: a, b: b}
	})
	analyze("mesh-3x3|ping-pong", sys, verify.Options{})

	for _, tc := range []struct {
		name string
		opt  routing.Options
		vc   int
	}{
		{"hypercube-4|wild-escape-su-badvc", su, 2},
		{"hypercube-4|wild-escape-su", su, 0},
		{"hypercube-4|wild-escape-duato", duato, 1},
	} {
		sys := fixture("hypercube-4", tc.opt)
		a, b := sys.Cores[0], sys.Cores[len(sys.Cores)-1]
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &wildEscapeRouting{EscapeAnalyzer: inner, a: a, b: b, vc: tc.vc}
		})
		analyze(tc.name, sys, verify.Options{})
	}
	for _, opt := range []routing.Options{duato, su} {
		sys := fixture("hypercube-4", opt)
		at, dst := sys.Cores[5], sys.Cores[9]
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &panicEscapeRouting{EscapeAnalyzer: inner, at: at, dst: dst}
		})
		name := fmt.Sprintf("hypercube-4|panic-escape-%v", opt.Mode)
		if rep := analyze(name, sys, verify.Options{}); !strings.Contains(rep.Panic, "escape step at node") {
			t.Errorf("%s: the seeded panic was not reached (Panic %q)", name, rep.Panic)
		}
	}

	for _, name := range []string{"mesh-3x3", "hypercube-4", "tree-7"} {
		sys := fixture(name, duato)
		comp, rep, err := routing.Compile(sys)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		got[name+"|compile"] = reportDigest(t, rep, comp.TableHash())
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var diff strings.Builder
	for _, name := range names {
		if want, ok := certificateGolden[name]; !ok || want != got[name] {
			fmt.Fprintf(&diff, "\t%q: %q,\n", name, got[name])
		}
	}
	for name := range certificateGolden {
		if _, ok := got[name]; !ok {
			fmt.Fprintf(&diff, "\tstale golden entry %q\n", name)
		}
	}
	if diff.Len() > 0 {
		t.Errorf("certifier output moved (%d cases); changed or missing entries:\n%s", len(got), diff.String())
	}
}

// goldenDigests holds, per verify.Version, the digest of
// certificateGolden that version was released with. A change that moves
// the golden — an obligation, a witness, a pre-flight verdict of the DSE
// space — changes what a stored verdict means, so it must come with a
// new Version and a new entry here; old entries stay as the record of
// what each version certified.
var goldenDigests = map[int]string{
	1: "97d17bc1109c34e11433518dd945105ce2b8a32fdf9cfd3e3838117e58f31006",
}

// goldenDigest hashes certificateGolden in sorted name order.
func goldenDigest() string {
	names := make([]string, 0, len(certificateGolden))
	for name := range certificateGolden {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s\n", name, certificateGolden[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestVersionPinsCertifier: verify.Version names the golden the
// certifier currently produces (TestCertificateGolden checks that the
// golden matches the certifier), so persisted verdicts from another
// certifier can never be mistaken for this one's.
func TestVersionPinsCertifier(t *testing.T) {
	got := goldenDigest()
	want, ok := goldenDigests[verify.Version]
	switch {
	case !ok:
		t.Errorf("verify.Version %d has no pinned golden digest; add %d: %q to goldenDigests", verify.Version, verify.Version, got)
	case got != want:
		t.Errorf("certificateGolden moved (digest %s, pinned %s for version %d): bump verify.Version and pin the new digest", got, want, verify.Version)
	}
}
