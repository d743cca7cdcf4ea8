package verify

// SetBlocks makes Run split pass 1 into k blocks (clamped to the
// destination count) instead of GOMAXPROCS, until restore is called.
func SetBlocks(k int) (restore func()) {
	prev := forcedBlocks
	forcedBlocks = k
	return func() { forcedBlocks = prev }
}

// SetChipletMemo turns the destination-chiplet memo on (the default: as
// the routing declares) or off, until restore is called.
func SetChipletMemo(on bool) (restore func()) {
	prev := noChipletMemo
	noChipletMemo = !on
	return func() { noChipletMemo = prev }
}
