package router

// fifo is a ring-buffer queue whose capacity is a power of two. It grows
// (doubling, from 4 slots) only when a Push finds it full, so its storage
// is bounded by the peak occupancy it has seen, and a queue that
// alternates pushes and pops at low occupancy never moves its elements.
// The zero value is an empty queue. The 32-bit indices keep the struct
// as small as the slice-and-head queue it replaced, so the VC and Link
// structs that embed queues stay in their size classes.
type fifo[T any] struct {
	buf  []T   // len(buf) is 0 or a power of two
	head int32 // index of the front element in buf
	n    int32 // number of queued elements
}

func (f *fifo[T]) Len() int { return int(f.n) }

func (f *fifo[T]) Push(v T) {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	f.buf[int(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// grow doubles the ring (to 4 slots from empty), unrolling the queue to
// the front of the new storage.
func (f *fifo[T]) grow() {
	buf := make([]T, max(4, 2*len(f.buf)))
	if f.n > 0 {
		k := copy(buf, f.buf[f.head:])
		copy(buf[k:f.n], f.buf)
	}
	f.buf, f.head = buf, 0
}

// Front returns a pointer to the first element. It panics if empty.
func (f *fifo[T]) Front() *T { return f.At(0) }

// At returns a pointer to the i-th element from the front. It panics
// unless 0 <= i < Len().
func (f *fifo[T]) At(i int) *T {
	if uint(i) >= uint(f.n) {
		panic("router: fifo index out of range")
	}
	return &f.buf[(int(f.head)+i)&(len(f.buf)-1)]
}

func (f *fifo[T]) Pop() T {
	p := f.Front()
	v := *p
	var zero T
	*p = zero // release references for GC
	f.head = (f.head + 1) & int32(len(f.buf)-1)
	f.n--
	return v
}
