package router

// FlitRingCap returns the slot count of l's flit ring, for the footprint
// test in the external test package.
func FlitRingCap(l *Link) int { return len(l.flits.buf) }
