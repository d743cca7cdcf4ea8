package stats

import "chipletnet/internal/packet"

// CollectorState is the checkpoint form of a Collector's accumulators.
// The per-class sections are slices rather than the Collector's
// fixed-size arrays because gob does not decode a slice into an array.
type CollectorState struct {
	Latencies         []float64
	SumLat            float64
	SumNet            float64
	MaxLat            int64
	MeasuredDelivered int
	DeliveredAll      int
	AcceptedFlits     int64
	SumRouters        float64
	SumOnChip         float64
	SumOffChip        float64

	// Per-class accumulators, indexed by traffic class. Snapshots written
	// before per-class accounting existed decode with these nil; Restore
	// treats absent sections as all-zero.
	ClassLatencies [][]float64
	ClassMax       []int64
	ClassDelivered []int
	ClassFlits     []int64
}

// Snapshot captures the collector's accumulator state.
func (c *Collector) Snapshot() CollectorState {
	st := CollectorState{
		Latencies:         append([]float64(nil), c.latencies...),
		SumLat:            c.sumLat,
		SumNet:            c.sumNet,
		MaxLat:            c.maxLat,
		MeasuredDelivered: c.measuredDelivered,
		DeliveredAll:      c.deliveredAll,
		AcceptedFlits:     c.acceptedFlits,
		SumRouters:        c.sumRouters,
		SumOnChip:         c.sumOnChip,
		SumOffChip:        c.sumOffChip,
		ClassLatencies:    make([][]float64, packet.NumClasses),
		ClassMax:          make([]int64, packet.NumClasses),
		ClassDelivered:    make([]int, packet.NumClasses),
		ClassFlits:        make([]int64, packet.NumClasses),
	}
	for cl := 0; cl < int(packet.NumClasses); cl++ {
		st.ClassLatencies[cl] = append([]float64(nil), c.classLat[cl]...)
		st.ClassMax[cl] = c.classMax[cl]
		st.ClassDelivered[cl] = c.classDelivered[cl]
		st.ClassFlits[cl] = c.classFlits[cl]
	}
	// The per-class latency sums are recomputed on restore from the
	// retained samples, so they are not serialized.
	return st
}

// Restore lays snapshot state back onto the collector. Snapshots written
// before per-class accounting existed carry no class sections; they
// restore with all-zero class accumulators (their traffic predates
// classes, so the aggregate view is the complete one).
func (c *Collector) Restore(st *CollectorState) {
	c.latencies = append([]float64(nil), st.Latencies...)
	c.sumLat = st.SumLat
	c.sumNet = st.SumNet
	c.maxLat = st.MaxLat
	c.measuredDelivered = st.MeasuredDelivered
	c.deliveredAll = st.DeliveredAll
	c.acceptedFlits = st.AcceptedFlits
	c.sumRouters = st.SumRouters
	c.sumOnChip = st.SumOnChip
	c.sumOffChip = st.SumOffChip
	for cl := 0; cl < int(packet.NumClasses); cl++ {
		c.classLat[cl] = nil
		c.classSum[cl] = 0
		c.classMax[cl] = 0
		c.classDelivered[cl] = 0
		c.classFlits[cl] = 0
		if cl < len(st.ClassLatencies) {
			c.classLat[cl] = append([]float64(nil), st.ClassLatencies[cl]...)
			for _, l := range st.ClassLatencies[cl] {
				c.classSum[cl] += l
			}
		}
		if cl < len(st.ClassMax) {
			c.classMax[cl] = st.ClassMax[cl]
		}
		if cl < len(st.ClassDelivered) {
			c.classDelivered[cl] = st.ClassDelivered[cl]
		}
		if cl < len(st.ClassFlits) {
			c.classFlits[cl] = st.ClassFlits[cl]
		}
	}
}
