package traffic

import (
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
)

// Source is an injection process driving a simulation: the Bernoulli
// Generator, the causal trace Replayer, or the AI-scale-out generator.
// The runner calls Tick before every fabric step and chains OnDeliver
// into the fabric sink, so dependency-driven sources observe deliveries
// in the engines' deterministic sink order (a delivery at cycle T can
// gate injections from cycle T+1 on).
type Source interface {
	// Tick runs one injection cycle at the given simulation cycle.
	Tick(f *router.Fabric, now int64)
	// OnDeliver observes every delivered packet; time-driven sources
	// ignore it. Called before the packet may be recycled.
	OnDeliver(p *packet.Packet, now int64)
	// SetMeasured turns measurement marking on or off (warm-up control).
	SetMeasured(on bool)
	// SetPool makes the source draw packets from pool instead of
	// allocating; injection stays bit-identical.
	SetPool(pool *packet.Pool)
	// TotalPackets is the number of packets created over the whole run.
	TotalPackets() uint64
	// Offered counts packets created while measurement was on.
	Offered() int
	// Snapshot captures the source's cursor state for a checkpoint;
	// Restore lays it back onto a source freshly constructed from the
	// same configuration.
	Snapshot() GeneratorState
	Restore(st *GeneratorState) error
}

var (
	_ Source = (*Generator)(nil)
	_ Source = (*Replayer)(nil)
	_ Source = (*AIScaleOut)(nil)
)

// OnDeliver implements Source; the Bernoulli process is time-driven and
// ignores deliveries.
func (g *Generator) OnDeliver(p *packet.Packet, now int64) {}

// Offered implements Source.
func (g *Generator) Offered() int { return g.OfferedPackets }
