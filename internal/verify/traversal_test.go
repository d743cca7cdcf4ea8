package verify_test

import (
	"fmt"
	"reflect"
	"testing"

	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/routing"
	"chipletnet/internal/verify"
)

// tableEscapeRouting replaces the escape function for one destination
// with a table: step[v] = {next, vc} (next < 0: no escape continuation at
// v), and every node the table does not list escapes straight to the
// destination on VC 0. Other destinations keep the wrapped escape.
type tableEscapeRouting struct {
	verify.EscapeAnalyzer
	dst  int
	step map[int][2]int
}

func (s *tableEscapeRouting) EscapeStep(v int, p *packet.Packet) (int, int, bool) {
	if p.Dst != s.dst {
		return s.EscapeAnalyzer.EscapeStep(v, p)
	}
	st, ok := s.step[v]
	switch {
	case !ok:
		return s.dst, 0, true
	case st[0] < 0:
		return 0, 0, false
	}
	return st[0], st[1], true
}

// TestEscapeWalkSharedSuffix pins the escape-walk findings when sampled
// sources share walk suffixes, the case a per-node walk memo must get
// right. One destination (core 5 of the 3x3 flat mesh), every other core
// a source. Chiplet 1 (nodes 16-31), chiplet 2 (32-47), chiplet 3
// (48-63) and chiplet 4 (64-79) each hold one scenario:
//
//   - 21 -1-> 22 -0-> 17 -0-> 18 -1-> 19 -0-> 20 -> 5: source 21 reports
//     the violation at 22 and not the one at 19 further on; 25 -> 26 ->
//     27 -> 28 -> 17 joins the suffix late and must report 19, and its 8
//     hops are the escape hop bound.
//   - 37 -1-> 38 -0-> 33 -0-> 34 -1-> 35 -0-> 36 -> 5: 37 reports 38; 41
//     -1-> 33 violates at the join node itself and so must not report 35,
//     which nobody reports.
//   - 53 -> 49 -> 50 and 57 -> 51 -> 49 -> 50 both stick at 50, which has
//     no escape continuation.
//   - 69 -> 65 and 73 -> 66 enter the cycle 65 <-> 66 and are reported
//     where the walk bound (4 x 144 nodes) leaves them.
func TestEscapeWalkSharedSuffix(t *testing.T) {
	sys := build(t, "mesh-3x3")
	install(t, sys, routing.Options{Mode: routing.DuatoEscape})
	const dst = 5
	step := map[int][2]int{
		21: {22, 1}, 22: {17, 0}, 17: {18, 0}, 18: {19, 1}, 19: {20, 0}, 20: {dst, 0},
		25: {26, 0}, 26: {27, 0}, 27: {28, 0}, 28: {17, 0},
		37: {38, 1}, 38: {33, 0}, 33: {34, 0}, 34: {35, 1}, 35: {36, 0}, 36: {dst, 0},
		41: {33, 1},
		53: {49, 0}, 49: {50, 0}, 50: {-1, 0}, 57: {51, 0}, 51: {49, 0},
		69: {65, 0}, 65: {66, 0}, 66: {65, 0}, 73: {66, 0},
	}
	wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
		return &tableEscapeRouting{EscapeAnalyzer: inner, dst: dst, step: step}
	})
	opt := verify.Options{MaxDests: 1, MaxSources: len(sys.Cores) / 2}
	for i, src := range []int{21, 25, 37, 41, 53, 57, 69, 73} {
		if sys.Cores[2*(i+2)] != src {
			t.Fatalf("fixture moved: sampled source %d is %d, want %d", 2*(i+2), sys.Cores[2*(i+2)], src)
		}
	}
	rep := verify.Run(sys, opt)
	if rep.Panic != "" || rep.Dests != 1 {
		t.Fatalf("analysis did not run one round: %s", rep)
	}
	viol := func(node int) string {
		return fmt.Sprintf("escape VC class not monotone within chiplet: vc0 after vc1 at %v",
			verify.StateRef{Node: node, Dst: dst})
	}
	wantViol := []string{viol(19), viol(22), viol(33), viol(38)}
	if !reflect.DeepEqual(rep.VCViolations, wantViol) {
		t.Errorf("VCViolations:\n got %q\nwant %q", rep.VCViolations, wantViol)
	}
	stuck := func(src, at int) verify.ReachFailure {
		return verify.ReachFailure{Src: src, Dst: dst,
			Reason: fmt.Sprintf("escape walk does not terminate (stuck near node %d)", at)}
	}
	wantUnreach := []verify.ReachFailure{stuck(53, 50), stuck(57, 50), stuck(69, 65), stuck(73, 66)}
	if !reflect.DeepEqual(rep.Unreachable, wantUnreach) {
		t.Errorf("Unreachable:\n got %v\nwant %v", rep.Unreachable, wantUnreach)
	}
	if rep.EscapeHopBound != 8 {
		t.Errorf("EscapeHopBound %d, want 8 (25 -> 26 -> 27 -> 28 -> 17 -> 18 -> 19 -> 20 -> 5)", rep.EscapeHopBound)
	}
}

// deadEndRouting offers no candidate at node at for packets to dst.
type deadEndRouting struct {
	verify.EscapeAnalyzer
	at, dst int
}

func (d *deadEndRouting) Candidates(r *router.Router, inPort int, p *packet.Packet, buf []router.Candidate) []router.Candidate {
	if r.Node == d.at && p.Dst == d.dst {
		return buf
	}
	return d.EscapeAnalyzer.Candidates(r, inPort, p, buf)
}

// TestDeadEndContinuation pins the extended CDG when a link hop leads
// into a dead end whose escape step the round never asks: core 6 of the
// 3x3 flat mesh offers no candidate toward core 5, is not a sampled
// source, and every escape walk to 5 is one teleporting hop, so only the
// dependency pass asks 6's escape continuation. The digests were taken
// from the two-traversal certifier, which asked it in a second BFS; with
// the step panicking at 6, the panic must surface there too, after the
// first pass finished (same state count as the sound run).
func TestDeadEndContinuation(t *testing.T) {
	const dst, at = 5, 6
	run := func(panicAt bool) *verify.Report {
		sys := build(t, "mesh-3x3")
		install(t, sys, routing.Options{Mode: routing.DuatoEscape})
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			var esc verify.EscapeAnalyzer = &tableEscapeRouting{EscapeAnalyzer: inner, dst: dst}
			if panicAt {
				esc = &panicEscapeRouting{EscapeAnalyzer: esc, at: at, dst: dst}
			}
			return &deadEndRouting{EscapeAnalyzer: esc, at: at, dst: dst}
		})
		return verify.Run(sys, verify.Options{MaxSources: len(sys.Cores) / 2})
	}
	sound, panicked := run(false), run(true)
	if want := (verify.StateRef{Node: at, Dst: dst}); len(sound.DeadEnds) != 1 || sound.DeadEnds[0] != want {
		t.Errorf("dead ends %v, want [%v]", sound.DeadEnds, want)
	}
	if panicked.Panic == "" || panicked.States != sound.States {
		t.Errorf("panic %q after %d states, want the escape-step panic after all %d", panicked.Panic, panicked.States, sound.States)
	}
	for _, c := range []struct {
		name string
		rep  *verify.Report
		want string
	}{
		{"sound", sound, "335a9a22689da7fab368ff8953efd73b0ae221e4e32d9f1a2772db9e373f77d7"},
		{"panicking", panicked, "7fc5c0ca4181014c272786718cab4aca5fd45f9b34b8b6603503dec149dc6467"},
	} {
		if got := reportDigest(t, c.rep, ""); got != c.want {
			t.Errorf("%s: report digest %s, want %s", c.name, got, c.want)
		}
	}
}
