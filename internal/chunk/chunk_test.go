package chunk

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunPreparesAllFoldsInOrder: every item is prepared exactly once,
// chunks are folded in index order, each after it was prepared, and a
// run of one chunk or less starts no goroutine.
func TestRunPreparesAllFoldsInOrder(t *testing.T) {
	for _, n := range []int{0, 1, Size - 1, Size, Size + 1, 16*Size + 3} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("n=%d/procs=%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				prepared := make([]atomic.Int32, n)
				goroutines := runtime.NumGoroutine()
				var inline atomic.Bool
				inline.Store(true)
				next := 0
				Run(n, func(lo, hi int) {
					if runtime.NumGoroutine() != goroutines {
						inline.Store(false)
					}
					for i := lo; i < hi; i++ {
						prepared[i].Add(1)
					}
				}, func(lo, hi int) {
					if lo != next || hi != min(lo+Size, n) {
						t.Fatalf("folded [%d, %d), want the chunk at %d", lo, hi, next)
					}
					for i := lo; i < hi; i++ {
						if prepared[i].Load() != 1 {
							t.Fatalf("folded item %d before it was prepared", i)
						}
					}
					next = hi
				})
				if next != n {
					t.Fatalf("folded through %d of %d items", next, n)
				}
				for i := range prepared {
					if c := prepared[i].Load(); c != 1 {
						t.Fatalf("item %d prepared %d times", i, c)
					}
				}
				if n <= Size && !inline.Load() {
					t.Fatal("a run of one chunk started a goroutine")
				}
			})
		}
	}
}
