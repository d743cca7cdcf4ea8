package router

// fifo is a simple amortized-O(1) queue with a moving head index.
// It avoids the per-element allocation of container/list and the
// capacity leak of repeated q = q[1:].
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) Len() int { return len(f.items) - f.head }

func (f *fifo[T]) Push(v T) { f.items = append(f.items, v) }

// Front returns a pointer to the first element. It panics if empty.
func (f *fifo[T]) Front() *T { return &f.items[f.head] }

// At returns a pointer to the i-th element from the front.
func (f *fifo[T]) At(i int) *T { return &f.items[f.head+i] }

func (f *fifo[T]) Pop() T {
	v := f.items[f.head]
	var zero T
	f.items[f.head] = zero // release references for GC
	f.head++
	// Compact once the dead prefix dominates, so memory stays bounded.
	if f.head > 32 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return v
}
