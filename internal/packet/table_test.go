package packet

import (
	"reflect"
	"testing"
)

// TestPacketTableInterns: a packet referenced twice is stored once, nil
// is -1, and Materialize rebuilds the packets at their table indices.
func TestPacketTableInterns(t *testing.T) {
	a := &Packet{ID: 10, Src: 1, Dst: 2, Len: 4, Class: 1}
	b := &Packet{ID: 11, Src: 3, Dst: 0, Len: 2, Rerouted: true}
	tab := NewTable()
	refs := []int{tab.Ref(a), tab.Ref(b), tab.Ref(a), tab.Ref(nil)}
	if want := []int{0, 1, 0, -1}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	if n := len(tab.List()); n != 2 {
		t.Fatalf("table holds %d packets, want 2", n)
	}
	pkts := Materialize(tab.List())
	for i, want := range []*Packet{a, b} {
		if !reflect.DeepEqual(pkts[i], want) {
			t.Errorf("Materialize[%d] = %+v, want %+v", i, pkts[i], want)
		}
	}
}
