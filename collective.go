package chipletnet

import (
	"fmt"

	"chipletnet/internal/collective"
	"chipletnet/internal/interleave"
)

// Collective describes a collective-communication operation to run on a
// built system (participants are all core nodes).
type Collective struct {
	// Kind is one of "allreduce-ring", "allreduce-recursive-doubling",
	// "allgather-ring", "alltoall".
	Kind string
	// DataFlits is the per-node payload: the vector size for all-reduce,
	// the per-node block for all-gather, the per-destination block for
	// all-to-all.
	DataFlits int
}

// CollectiveResult reports the timing of one collective execution.
type CollectiveResult = collective.Result

// RunCollective builds cfg's system and executes the collective on it,
// returning its completion time. Traffic-related configuration fields
// (Pattern, InjectionRate, cycles) are ignored; packets use cfg.PacketFlits
// and cfg.Interleave.
func RunCollective(cfg Config, coll Collective) (CollectiveResult, error) {
	alg, err := collectiveAlgorithm(coll.Kind, coll.DataFlits)
	if err != nil {
		return CollectiveResult{}, err
	}
	sys, err := Build(cfg)
	if err != nil {
		return CollectiveResult{}, err
	}
	gran, err := interleave.ParseGranularity(cfg.Interleave)
	if err != nil {
		return CollectiveResult{}, err
	}
	return collective.Run(sys.Topo, alg, cfg.PacketFlits, interleave.Policy{G: gran})
}

// collectiveAlgorithm maps a collective kind name to its schedule
// implementation — the one registry, shared by RunCollective and the
// AI-scale-out workload.
func collectiveAlgorithm(kind string, dataFlits int) (collective.Algorithm, error) {
	switch kind {
	case "allreduce-ring":
		return collective.RingAllReduce{VectorFlits: dataFlits}, nil
	case "allreduce-recursive-doubling":
		return collective.RecursiveDoublingAllReduce{VectorFlits: dataFlits}, nil
	case "allgather-ring":
		return collective.AllGatherRing{BlockFlits: dataFlits}, nil
	case "alltoall":
		return collective.AllToAll{BlockFlits: dataFlits}, nil
	}
	return nil, fmt.Errorf("chipletnet: unknown collective %q", kind)
}

// CollectiveKinds lists the supported collective operations.
func CollectiveKinds() []string {
	return []string{"allreduce-ring", "allreduce-recursive-doubling", "allgather-ring", "alltoall"}
}
