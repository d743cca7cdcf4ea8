package verify

// SetBlocks makes Run split pass 1 into k blocks (clamped to the
// destination count) instead of GOMAXPROCS, until restore is called.
func SetBlocks(k int) (restore func()) {
	prev := forcedBlocks
	forcedBlocks = k
	return func() { forcedBlocks = prev }
}
