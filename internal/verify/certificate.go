package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Version names what the certifier proves and how its certificates are
// addressed: the obligations, their witnesses and bases, and Hash's
// encoding. Anything that stores a verdict outside the process (the DSE
// store's verdict file) keys it by Version, so a verdict taken by another
// certifier is never reused. Bump it in the same change as anything that
// alters a certificate or a pre-flight verdict — an obligation, the
// routing functions it analyzes, or the hash encoding;
// TestVersionPinsCertifier fails until the bump is made.
const Version = 1

// Obligation is one proof obligation of the certifying traversal: what was
// to be proved, whether it holds, the basis the verdict rests on, and the
// concrete witnesses when it fails.
type Obligation struct {
	// Name is the obligation's stable identifier: "deadlock-freedom",
	// "reachability", "livelock-freedom" or "vc-discipline".
	Name string
	// Proved reports whether the obligation holds for the analyzed system.
	Proved bool
	// Basis is a one-line human-readable statement of what the verdict
	// rests on (the criterion and the quantities it was checked against).
	Basis string
	// Witnesses are the concrete counterexamples when Proved is false, in
	// deterministic sorted order; empty otherwise.
	Witnesses []string
}

// Certificate is the exportable summary of one certifying traversal: the
// four proof obligations with their verdicts and witnesses, plus the
// traversal dimensions they were checked over. It is the artifact
// cmd/chipletverify prints/exports and the DSE layer content-addresses
// next to its cache key; Hash gives the canonical content address.
type Certificate struct {
	// Topology and Mode identify what was analyzed.
	Topology string
	Mode     string
	// Dests, Tags and States are the traversal dimensions: analyzed
	// destinations, interleave-tag equivalence classes, and visited
	// (node, destination, tag) states.
	Dests, Tags, States int
	// EscapeChannels and DepEdges size the analyzed escape sub-network and
	// its extended channel dependency graph.
	EscapeChannels, DepEdges int
	// EscapeHopBound and AdaptiveHopBound are the certified per-packet hop
	// bounds (see Report).
	EscapeHopBound, AdaptiveHopBound int
	// Obligations holds the four proof obligations in fixed order.
	Obligations []Obligation
	// Certified reports that every obligation is proved (Report.Certified).
	Certified bool
	// PreflightOK reports that the configuration is safe to simulate
	// (Report.Err() == nil): under safe/unsafe flow control a cyclic
	// minus-first structure leaves Certified false but PreflightOK true,
	// because the runtime guarantee there is Algorithm 5's.
	PreflightOK bool
}

func stateStrings(s []StateRef) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = v.String()
	}
	return out
}

// Certificate distills the report into the exportable certificate.
func (r *Report) Certificate() *Certificate {
	mode := "duato-escape"
	if !r.EscapeRequired {
		mode = "safe-unsafe"
	}
	var deadlock []string
	for _, e := range r.Cycle {
		deadlock = append(deadlock, "cycle edge "+e.String())
	}
	for _, s := range r.MissingEscape {
		deadlock = append(deadlock, "no escape continuation at "+s.String())
	}
	var reach []string
	for _, s := range r.DeadEnds {
		reach = append(reach, "dead end at "+s.String())
	}
	for _, f := range r.Unreachable {
		reach = append(reach, f.String())
	}
	var livelock []string
	for _, c := range r.Livelock {
		livelock = append(livelock, c.String())
	}
	deadlockProved := len(r.Cycle) == 0 && len(r.MissingEscape) == 0
	deadlockBasis := fmt.Sprintf("escape sub-network CDG acyclic over %d channels, %d extended dependencies (Duato's criterion for virtual cut-through)",
		r.EscapeChannels, r.DepEdges)
	if !r.EscapeRequired {
		deadlockBasis = fmt.Sprintf("minus-first structure CDG acyclic over %d channels, %d walk dependencies; runtime guarantee is the safe/unsafe flow control (Algorithm 5)",
			r.EscapeChannels, r.DepEdges)
	}
	c := &Certificate{
		Topology:         r.Topology,
		Mode:             mode,
		Dests:            r.Dests,
		Tags:             r.Tags,
		States:           r.States,
		EscapeChannels:   r.EscapeChannels,
		DepEdges:         r.DepEdges,
		EscapeHopBound:   r.EscapeHopBound,
		AdaptiveHopBound: r.AdaptiveHopBound,
		Obligations: []Obligation{
			{
				Name:      "deadlock-freedom",
				Proved:    deadlockProved,
				Basis:     deadlockBasis,
				Witnesses: deadlock,
			},
			{
				Name:   "reachability",
				Proved: len(r.DeadEnds) == 0 && len(r.Unreachable) == 0,
				Basis: fmt.Sprintf("every source reaches every analyzed destination in the candidate graph (%d destinations x %d tag classes), no dead-end states",
					r.Dests, r.Tags),
				Witnesses: reach,
			},
			{
				Name:   "livelock-freedom",
				Proved: len(r.Livelock) == 0,
				Basis: fmt.Sprintf("adaptive candidate sub-graph acyclic per round (runs <= %d hops) and escape walks terminate (<= %d hops)",
					r.AdaptiveHopBound, r.EscapeHopBound),
				Witnesses: livelock,
			},
			{
				Name:      "vc-discipline",
				Proved:    len(r.VCViolations) == 0,
				Basis:     "candidate masks and escape VCs within the configured range, escape VC class monotone within each chiplet (Theorem 1)",
				Witnesses: append([]string(nil), r.VCViolations...),
			},
		},
		Certified:   r.Certified(),
		PreflightOK: r.Err() == nil,
	}
	if r.Panic != "" || r.Unsupported != "" {
		// An aborted analysis proves nothing: mark every obligation open.
		for i := range c.Obligations {
			c.Obligations[i].Proved = false
			c.Obligations[i].Basis = "analysis incomplete: " + r.Panic + r.Unsupported
		}
	}
	return c
}

// Hash is the certificate's content address: the hex SHA-256 of its JSON
// encoding. Two runs over the same built system produce the same hash
// (the traversal and witness ordering are deterministic), so the hash
// keys DSE records and the DSE store's persisted verdicts. JSON — not
// gob — because gob numbers struct types process-wide in first-use order,
// so a gob hash depends on what the process encoded before; JSON writes
// fields in declaration order and Certificate holds no maps, so the
// address is the same in every process (the dse.Key idiom).
func (c *Certificate) Hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("verify: certificate not encodable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// String pretty-prints the certificate.
func (c *Certificate) String() string {
	var b strings.Builder
	verdict := "NOT CERTIFIED"
	if c.Certified {
		verdict = "CERTIFIED"
	}
	fmt.Fprintf(&b, "certificate %s: topology %s, mode %s — %s\n", c.Hash()[:16], c.Topology, c.Mode, verdict)
	fmt.Fprintf(&b, "  traversal: %d destinations x %d tag classes, %d states, %d escape channels, %d dependencies\n",
		c.Dests, c.Tags, c.States, c.EscapeChannels, c.DepEdges)
	for _, o := range c.Obligations {
		mark := "proved"
		if !o.Proved {
			mark = "FAILED"
		}
		fmt.Fprintf(&b, "  %-17s %s — %s\n", o.Name+":", mark, o.Basis)
		for _, w := range o.Witnesses {
			fmt.Fprintf(&b, "    witness: %s\n", w)
		}
	}
	return b.String()
}
