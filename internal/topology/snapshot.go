package topology

import (
	"fmt"
	"sort"
)

// TopoState is the checkpoint form of the fault-mutable part of a System:
// interface-group membership (kills remove members), the pre-fault
// membership snapshot, and the condemned-interface set.
type TopoState struct {
	// Groups[c][g] lists group g of chiplet c's current members.
	Groups [][][]int
	// BaseGroups is the pre-fault snapshot, nil if never taken.
	BaseGroups [][][]int
	// Condemned lists condemned interface node ids in ascending order.
	Condemned []int
}

// Snapshot captures the fault-mutable part of the topology: group
// membership (kills remove members), the pre-fault membership snapshot,
// and the condemned-interface set. Everything else in a System is
// structural and rebuilt deterministically by Build.
func (s *System) Snapshot() TopoState {
	st := TopoState{
		Groups:     copyGroups3(groupsOf(s.Chiplets)),
		BaseGroups: copyGroups3(s.BaseGroups),
	}
	for id := range s.Condemned {
		st.Condemned = append(st.Condemned, id)
	}
	sort.Ints(st.Condemned)
	return st
}

// Restore lays snapshot state back onto a System freshly built from the
// same configuration.
func (s *System) Restore(st *TopoState) error {
	if len(st.Groups) != len(s.Chiplets) {
		return fmt.Errorf("snapshot has %d chiplets, system has %d",
			len(st.Groups), len(s.Chiplets))
	}
	for c := range s.Chiplets {
		if len(st.Groups[c]) != len(s.Chiplets[c].Groups) {
			return fmt.Errorf("chiplet %d has %d groups in snapshot, %d in system",
				c, len(st.Groups[c]), len(s.Chiplets[c].Groups))
		}
		for g := range s.Chiplets[c].Groups {
			s.Chiplets[c].Groups[g] = append([]int(nil), st.Groups[c][g]...)
		}
	}
	s.BaseGroups = copyGroups3(st.BaseGroups)
	s.Condemned = nil
	if len(st.Condemned) > 0 {
		s.Condemned = make(map[int]bool, len(st.Condemned))
		for _, id := range st.Condemned {
			if id < 0 || id >= len(s.Nodes) {
				return fmt.Errorf("condemned node %d out of range", id)
			}
			s.Condemned[id] = true
		}
	}
	return nil
}

func groupsOf(chiplets []Chiplet) [][][]int {
	out := make([][][]int, len(chiplets))
	for c := range chiplets {
		out[c] = chiplets[c].Groups
	}
	return out
}

func copyGroups3(in [][][]int) [][][]int {
	if in == nil {
		return nil
	}
	out := make([][][]int, len(in))
	for c := range in {
		out[c] = make([][]int, len(in[c]))
		for g := range in[c] {
			out[c][g] = append([]int(nil), in[c][g]...)
		}
	}
	return out
}
