package chipletnet

import (
	"fmt"
	"runtime"

	"chipletnet/internal/verify"
)

// VerifyRouting statically certifies the routing function installed on the
// built system: one traversal of the (node, destination, tag-class) state
// space proves deadlock freedom (acyclic escape-CDG, Duato's criterion for
// virtual cut-through), total reachability, livelock freedom (bounded
// adaptive runs and terminating escape walks) and VC discipline (Theorem
// 1's monotone escape classes). The returned report carries concrete
// witnesses, in deterministic sorted order, for whichever proof obligation
// fails. The analysis only reads routing state; the system can still be
// simulated afterwards.
func (s *System) VerifyRouting(opt verify.Options) *verify.Report {
	return verify.Run(s.Topo, opt)
}

// Certify runs VerifyRouting and distills the verdict into the exportable
// content-addressable certificate (see verify.Certificate).
func (s *System) Certify(opt verify.Options) (*verify.Certificate, *verify.Report) {
	rep := s.VerifyRouting(opt)
	return rep.Certificate(), rep
}

// VerifyConfig builds the system described by cfg and statically verifies
// its routing function. The error is non-nil only for build failures;
// verification verdicts (including failures) are in the report — gate on
// Report.Err for pre-flight use.
func VerifyConfig(cfg Config, opt verify.Options) (*verify.Report, error) {
	sys, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return sys.VerifyRouting(opt), nil
}

// RoutingStructureKey identifies what the routing certifier looks at in
// cfg — topology, chiplet NoC, VCs, routing mode and its safety switches,
// and the cross-link faults with the seed that picks them — so design
// points with equal keys need one analysis between them.
func RoutingStructureKey(cfg Config) string {
	return fmt.Sprintf("%s%v|%dx%d|vc%d|%s|sep%v|unsafe%v|fault%g|seed%d",
		cfg.Topology.Kind, cfg.Topology.Dims, cfg.ChipletW, cfg.ChipletH,
		cfg.VCs, cfg.Routing, cfg.DisableNDMeshVCSeparation,
		cfg.AllowUnsafeRouting, cfg.CrossLinkFaultFraction, cfg.Seed)
}

// VerifyEach builds and statically verifies every configuration on the
// GOMAXPROCS-bounded worker pool RunMany uses, and returns the reports and
// build errors in input order: reps[i] is non-nil exactly when errs[i] is
// nil. A panic in one configuration's Build is recovered into that
// configuration's error; the others still complete. Every analysis gets
// the same opt, so opt.Sink, if set, must be safe for concurrent use.
// This is how internal packages certify a batch of design points in
// parallel without spawning goroutines themselves.
func VerifyEach(cfgs []Config, opt verify.Options) (reps []*verify.Report, errs []error) {
	reps = make([]*verify.Report, len(cfgs))
	errs = forEach(len(cfgs), runtime.GOMAXPROCS(0), func(i int) (err error) {
		reps[i], err = VerifyConfig(cfgs[i], opt)
		return err
	})
	return reps, errs
}
