package chipletnet_test

import (
	"testing"

	"chipletnet"
	"chipletnet/internal/dse"
	"chipletnet/internal/verify"
)

// TestRoutingStructureKeyComplete: RoutingStructureKey must name
// everything the certifier looks at, because dse.NewPlan certifies one
// member per key and the DSE store persists that verdict for other
// processes. Over the 16-chiplet space with every interleaving, three
// off-chip bandwidths and every routing mode, all candidates sharing a
// key must get the same pre-flight certificate — each one is certified
// on its own here, not only the first of its key.
func TestRoutingStructureKeyComplete(t *testing.T) {
	space := dse.Space{
		Chiplets:      16,
		Routings:      dse.RoutingModes(),
		Interleavings: []string{"none", "message", "packet"},
		OffChipBWs:    []int{1, 2, 4},
	}
	cands, _, err := space.Enumerate(dse.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]chipletnet.Config, len(cands))
	for i, c := range cands {
		cfgs[i] = c.Cfg
	}
	reps, errs := chipletnet.VerifyEach(cfgs, verify.Options{MaxDests: 16, MaxSources: 8})

	type member struct{ name, cert string }
	groups := map[string][]member{}
	var order []string
	for i, c := range cands {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.Name, errs[i])
		}
		k := chipletnet.RoutingStructureKey(c.Cfg)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], member{c.Name, reps[i].Certificate().Hash()})
	}
	for _, k := range order {
		ms := groups[k]
		if len(ms) < 2 {
			t.Errorf("structure %s has one member (%s): nothing to check it against", k, ms[0].name)
			continue
		}
		for _, m := range ms[1:] {
			if m.cert != ms[0].cert {
				t.Errorf("key %s: %s certifies as %.12s but %s as %.12s; the key misses a field the certifier reads",
					k, ms[0].name, ms[0].cert, m.name, m.cert)
			}
		}
	}
	t.Logf("%d candidates in %d routing structures", len(cands), len(order))
}
