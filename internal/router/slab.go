package router

import "unsafe"

// slab hands out zeroed values and fixed-length slices of T cut from
// chunks it allocates itself, so building a fabric costs one allocation
// per chunk instead of one per router, port, VC, link and small slice.
// A chunk never moves: when the current one cannot hold a request a new
// one is started, so a pointer into an earlier chunk stays valid for the
// fabric's life. Chunks double from slabMinChunk elements up to
// slabMaxChunkBytes, so a fabric of a few routers allocates a few small
// chunks and a large one leaves at most one partly used chunk per slab.
//
// Every slice carve returns is capacity-clipped (s[i:j:j]): an append
// past its length reallocates instead of writing into the next carve.
type slab[T any] struct {
	free []T // unused tail of the current chunk, len(free) == cap(free)
	next int // element count of the next chunk
}

// Chunk bounds: the first chunk's element count and the byte size the
// chunks stop doubling at.
const (
	slabMinChunk      = 8
	slabMaxChunkBytes = 16 << 10
)

// chunkLimit is the element count of T's largest chunk.
func chunkLimit[T any]() int {
	var zero T
	return max(slabMinChunk, slabMaxChunkBytes/int(unsafe.Sizeof(zero)))
}

// carve returns a zeroed slice of length and capacity n.
func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		s.next = min(max(2*s.next, slabMinChunk), chunkLimit[T]())
		s.free = make([]T, max(n, s.next))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// put stores v in the slab and returns its address.
func (s *slab[T]) put(v T) *T {
	p := &s.carve(1)[0]
	*p = v
	return p
}
