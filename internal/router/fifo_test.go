package router

import (
	"testing"
	"testing/quick"
)

func TestFifoOrder(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 100; i++ {
		f.Push(i)
	}
	for i := 0; i < 100; i++ {
		if f.Len() != 100-i {
			t.Fatalf("Len = %d, want %d", f.Len(), 100-i)
		}
		if got := f.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after drain", f.Len())
	}
}

func TestFifoFrontAndAt(t *testing.T) {
	var f fifo[string]
	f.Push("a")
	f.Push("b")
	f.Push("c")
	f.Pop()
	if *f.Front() != "b" || *f.At(1) != "c" {
		t.Errorf("Front=%q At(1)=%q", *f.Front(), *f.At(1))
	}
	*f.Front() = "B" // Front returns a mutable pointer
	if f.Pop() != "B" {
		t.Error("mutation through Front not visible")
	}
}

// nextPow2 returns the smallest power of two >= n (1 for n <= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// TestFifoCompaction pins the ring's storage to its peak occupancy: heavy
// push/pop churn at occupancy <= k never grows the ring past
// max(4, nextPow2(k)) slots, and order survives the wrap-arounds. A
// moving-head slice, which grows until its dead prefix is compacted,
// fails the bound.
func TestFifoCompaction(t *testing.T) {
	for _, k := range []int{1, 3, 4, 5, 9, 33} {
		var f fifo[int]
		next, expect := 0, 0
		for round := 0; round < 200; round++ {
			for f.Len() < k {
				f.Push(next)
				next++
			}
			for i := 0; i < 1+round%k; i++ {
				if got := f.Pop(); got != expect {
					t.Fatalf("k=%d round %d: Pop = %d, want %d", k, round, got, expect)
				}
				expect++
			}
		}
		if got, bound := len(f.buf), max(4, nextPow2(k)); got > bound {
			t.Errorf("occupancy <= %d grew the ring to %d slots, want <= %d", k, got, bound)
		}
	}
}

func TestFifoQuick(t *testing.T) {
	// Model-based: fifo must behave like a slice queue for any op string.
	f := func(ops []bool, vals []int) bool {
		var q fifo[int]
		var model []int
		vi := 0
		for _, push := range ops {
			if push || len(model) == 0 {
				v := 0
				if vi < len(vals) {
					v = vals[vi]
					vi++
				}
				q.Push(v)
				model = append(model, v)
			} else {
				if q.Pop() != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
