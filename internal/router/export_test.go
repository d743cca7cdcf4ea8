package router

// FlitRingCap returns the slot count of l's flit ring, for the footprint
// test in the external test package.
func FlitRingCap(l *Link) int { return len(l.flits.buf) }

// workers returns the number of island worker goroutines f runs.
func workers(f *Fabric) int {
	if f.isl == nil || f.isl.crew == nil {
		return 0
	}
	return len(f.isl.crew.workers)
}
