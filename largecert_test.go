package chipletnet

import (
	"testing"

	"chipletnet/internal/routing"
	"chipletnet/internal/verify"
)

// TestLargeSystemCertificates pins the certifier on the five 64-chiplet
// systems of bench/'s build-compiled workload (dragonfly at its 12-chiplet
// cap) under full analysis: the certificate address of the interpreted
// routing, and the certificate and table addresses routing.Compile
// derives from the same traversal with the table attached. The certifier
// golden in internal/verify stops at 16 chiplets; these are the sizes at
// which the traversal's bookkeeping is exercised hardest.
func TestLargeSystemCertificates(t *testing.T) {
	for _, tc := range []struct {
		topo       Topology
		cert, tabl string
	}{
		{MeshTopology(8, 8),
			"7d327f3269692cafb8e85d75a3e27e6e7321909dd04831777aa1cb76590835db",
			"7b80592c00d93bc4c958d7b8d8a935954b3b7be0f2021bd5a9a97ab3f5e03041"},
		{NDMeshTopology(4, 4, 4),
			"9c557cea9f332c9d188d100c428cf336f8246aaf3c43b2518057651dcd8bbe99",
			"d699e39d042ac017361191e1257f6808c62a454a6a2bf78e5c075c37901bc677"},
		{HypercubeTopology(6),
			"238e11b545cca5be50faf380044070c47bb249a8982c955f2869a5b3bedaf05f",
			"743456e639b8e9836d0d2947dea8f54b2d9cd28ea2866750aecf37ba8a2b95e9"},
		{DragonflyTopology(12),
			"b40c3451b57a70a2bc3a1134f51815882f06e1a55a112da1c3b8b5570f8c7d29",
			"edea35c54ef0ead920d607da889e244887009cba8b6af2307ce6517379852f48"},
		{TreeTopology(64, 4),
			"cf0932592a58a7f6e7ef6f6ebfee0ee5319d6c3ec9298a386276583437b7f27e",
			"c3ed56f5a6bc017151886f8bd6a2249271f1b192e814eb99ba145214d5a3760d"},
	} {
		cfg := DefaultConfig()
		cfg.Topology = tc.topo
		sys, err := Build(cfg)
		if err != nil {
			t.Fatalf("%v: %v", tc.topo, err)
		}
		cert, rep := sys.Certify(verify.Options{})
		if err := rep.Err(); err != nil {
			t.Fatalf("%v: %v", tc.topo, err)
		}
		comp, crep, err := routing.Compile(sys.Topo)
		if err != nil {
			t.Fatalf("%v: compile: %v", tc.topo, err)
		}
		if h := crep.Certificate().Hash(); h != cert.Hash() {
			t.Errorf("%v: compile certified %s, Certify %s", tc.topo, h, cert.Hash())
		}
		if cert.Hash() != tc.cert || comp.TableHash() != tc.tabl {
			t.Errorf("%v: certificate %s table %s, want %s and %s",
				tc.topo, cert.Hash(), comp.TableHash(), tc.cert, tc.tabl)
		}
	}
}
