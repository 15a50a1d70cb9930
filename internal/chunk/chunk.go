// Package chunk runs the two-phase passes that the store's recovery and
// replication and the agent's validation share: a prepare phase over
// independent items, on every core, and a fold phase that applies the
// prepared results in item order, on the calling goroutine.
package chunk

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size is how many contiguous items one goroutine prepares at a time. A
// run of Size items or fewer is prepared and folded on the calling
// goroutine alone.
const Size = 64

// Run cuts n items into chunks of Size contiguous items and calls
// prepare(lo, hi) once per chunk on up to GOMAXPROCS goroutines, which
// take the chunks in index order, each taking the next one as it
// finishes one. It calls fold(lo, hi) once per chunk, in index order, on
// the calling goroutine, as soon as that chunk is prepared; fold may be
// nil. While the next chunk to fold is still being prepared, the calling
// goroutine prepares chunks too. Run returns once every chunk is folded.
func Run(n int, prepare, fold func(lo, hi int)) {
	chunks := (n + Size - 1) / Size
	span := func(c int) (int, int) { return c * Size, min((c+1)*Size, n) }
	workers := min(runtime.GOMAXPROCS(0), chunks) - 1
	if workers <= 0 {
		for c := range chunks {
			lo, hi := span(c)
			prepare(lo, hi)
			if fold != nil {
				fold(lo, hi)
			}
		}
		return
	}
	ready := make([]chan struct{}, chunks)
	for c := range ready {
		ready[c] = make(chan struct{})
	}
	var next atomic.Int64
	// claim prepares the next unclaimed chunk, reporting false when
	// every chunk is claimed.
	claim := func() bool {
		c := int(next.Add(1) - 1)
		if c >= chunks {
			return false
		}
		prepare(span(c))
		close(ready[c])
		return true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for claim() {
			}
		}()
	}
	for c := range chunks {
		for !closed(ready[c]) && claim() {
		}
		<-ready[c]
		if fold != nil {
			fold(span(c))
		}
	}
	wg.Wait()
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
