// Command chipletverify statically certifies a configuration's routing
// without simulating a single cycle: one traversal of the (node,
// destination, tag-class) state space proves deadlock freedom (Duato's
// criterion, acyclic extended CDG), total reachability, livelock freedom
// (bounded adaptive runs, terminating escape walks) and VC discipline
// (Theorem 1's monotone escape classes), and prints the resulting
// certificate — obligations, verdicts, hop bounds and content address.
// Failures come with concrete witnesses in deterministic sorted order.
//
// Examples:
//
//	chipletverify -topology hypercube -dims 6
//	chipletverify -topology ndmesh -dims 4,4,4 -equal-channels -allow-unsafe
//	chipletverify -routing compiled -topology dragonfly -dims 6
//	chipletverify -config sweep.json -json
//
// Exit status: 0 certified (or structurally sound under safe/unsafe flow
// control), 1 usage or build error, 2 verification failure (unsafe
// configuration with witnesses), 3 analysis unsupported or aborted (the
// routing cannot be analyzed; nothing was proved either way).
package main

import (
	"fmt"
	"os"

	"chipletnet"
	"chipletnet/cmd/internal/cli"
	"chipletnet/internal/verify"
)

func main() {
	cfg := chipletnet.DefaultConfig()
	fs := cli.New("chipletverify")
	fs.Topology(&cfg)
	fs.Routing(&cfg)
	fs.IntVar(&cfg.VCs, "vcs", cfg.VCs, "virtual channels per port")
	fs.BoolVar(&cfg.DisableNDMeshVCSeparation, "equal-channels", cfg.DisableNDMeshVCSeparation, "disable the Theorem-1 d+/d- VC separation (known deadlock-prone)")
	fs.BoolVar(&cfg.AllowUnsafeRouting, "allow-unsafe", cfg.AllowUnsafeRouting, "build configurations the factory would reject as unsafe")
	fs.Float64Var(&cfg.CrossLinkFaultFraction, "faults", cfg.CrossLinkFaultFraction, "fraction of cross-chiplet channels to fail before verifying")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed (fault selection)")
	maxDests := fs.Int("max-dests", 0, "bound analyzed destinations (0 = exhaustive)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.ConfigFile(&cfg)
	fs.MustParse()

	rep, err := chipletnet.VerifyConfig(cfg, verify.Options{MaxDests: *maxDests})
	if err != nil {
		cli.Fatalf("%v", err)
	}
	cert := rep.Certificate()

	if *asJSON {
		out := struct {
			Report          *verify.Report
			Certificate     *verify.Certificate
			CertificateHash string
		}{rep, cert, cert.Hash()}
		if err := cli.WriteJSON(out); err != nil {
			cli.Fatalf("%v", err)
		}
	} else {
		fmt.Print(rep)
		fmt.Print(cert)
	}
	switch {
	case rep.Unsupported != "" || rep.Panic != "":
		os.Exit(3)
	case rep.Err() != nil:
		os.Exit(2)
	}
}
