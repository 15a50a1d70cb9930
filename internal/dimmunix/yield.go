package dimmunix

import (
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/stacktrace"
)

// The yield discipline of a runtime's mutexes and of the channels built
// on it (internal/commdlk, via ShareGraph).
//
// Avoidance (§II-A) parks a thread whose next step would instantiate a
// history signature: it becomes a Yielder, registered in the runtime's
// one yielder table under the runtime's mutex, with the threads occupying
// the signature's other slots as its blockers. Anything that may dissolve
// the threat wakes it, and the woken thread re-evaluates. Parking can
// itself close a cycle — a yielder's blocker waits, on a lock or a
// channel, directly or through other yielders, on the yielder — and
// BreakYieldCycles forces one yielder of every such cycle through.

// yieldRehomeNanos is how long a parked yielder sleeps before
// re-evaluating on its own, in nanoseconds (atomic so tests can shorten
// it without racing live runtimes). A wake normally arrives from a
// release that dissolves the threat; the timeout only matters for a
// yielder no future wake can reach (one whose every registered shard
// was unlinked by a refresh with no replacement), so
// the park re-homes itself against the current index. One spurious
// re-evaluation per interval is the cost ceiling.
var yieldRehomeNanos atomic.Int64

func init() { yieldRehomeNanos.Store(int64(time.Second)) }

// SetYieldRehomeTimeout adjusts the park re-home interval of every
// yielder in the process, mutex and channel alike. Intervals ≤ 0 are
// ignored. Intended for tests and benchmarks.
func SetYieldRehomeTimeout(d time.Duration) {
	if d > 0 {
		yieldRehomeNanos.Store(int64(d))
	}
}

// Half is what avoidance keeps apart for each kind of primitive of a
// runtime: its mutexes, and the channels built on it (ShareGraph). Each
// counts its own ops' yields and forced breaks, and closes on its own.
type Half struct {
	// Yields counts avoidance suspensions of the half's ops.
	Yields atomic.Uint64
	// Breaks counts the half's yielders forced through to break a
	// wait+yield cycle.
	Breaks atomic.Uint64
	// Closed, once set, sends the half's parked ops home with ErrClosed
	// at their next wake, as the runtime's Close does every half's.
	Closed atomic.Bool
	// Parked counts the half's ops parked right now; guarded by the
	// runtime's mutex.
	Parked int
}

// Yielder is one thread parked by avoidance. A thread that yields again
// does so under a fresh Yielder.
type Yielder struct {
	// Thread is the parked thread (a goroutine id for channel ops).
	Thread ThreadID
	// Blockers are the threads occupying the other slots of the
	// signature whose instantiation Thread would complete: its yield
	// edges.
	Blockers map[ThreadID]struct{}
	// Forced is set by BreakYieldCycles: the thread must proceed past
	// avoidance despite the threat. Guarded by the owning runtime's
	// mutex.
	Forced bool

	signal chan struct{} // buffered(1)
	// woken records that a wake was delivered: the yielder is
	// re-evaluating, not durably parked. Atomic because its wakers may
	// hold only a shard lock.
	woken atomic.Bool
}

// NewYielder returns a Yielder for thread, blocked by blockers.
func NewYielder(thread ThreadID, blockers map[ThreadID]struct{}) *Yielder {
	return &Yielder{Thread: thread, Blockers: blockers, signal: make(chan struct{}, 1)}
}

// wake prompts the parked thread to re-evaluate. It never blocks, and a
// wake delivered before park is not lost. Callers hold a lock the yielder
// is registered under.
func (y *Yielder) wake() {
	y.woken.Store(true)
	select {
	case y.signal <- struct{}{}:
	default:
	}
}

// park waits for a wake or the re-home timeout, whichever comes first,
// and reports whether the yielder was woken (a wake that raced the
// timeout counts). It is called with the runtime's mutex released;
// shutdown needs no channel of its own, since each half's Close wakes
// its registered yielders.
func (y *Yielder) park() bool {
	rehome := time.NewTimer(time.Duration(yieldRehomeNanos.Load()))
	select {
	case <-y.signal:
	case <-rehome.C:
	}
	rehome.Stop()
	return y.woken.Load()
}

// ShareGraph builds a channel runtime (internal/commdlk) on rt, at most
// one: g, the channel side of the waits-for graph, joins the lock waits
// in rt's one graph, which the detector, the yield-cycle breaker and the
// true-positive check all read. The channel half shares rt's mutex
// (which guards the graph, the yielder table and every read of g),
// configuration and capture cache. From then on Acquire's thread ids
// must be goroutine ids.
func (rt *Runtime) ShareGraph(g ChanGraph) (*sync.Mutex, Config, *stacktrace.Cache) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.chans != nil {
		panic("dimmunix: runtime already carries a channel runtime")
	}
	rt.chans = g
	return &rt.mu, rt.cfg, rt.capture
}

// parkLocked enters y in the yielder table, breaks the cycles that
// closes, and unless y was forced through, parks it with rt.mu released.
// It returns with rt.mu held and y out of the table, reporting whether y
// was woken.
func (rt *Runtime) parkLocked(y *Yielder) (woken bool) {
	rt.yielders[y.Thread] = y
	BreakYieldCycles(rt.yielders, rt.casesLocked)
	if !y.Forced {
		rt.mu.Unlock()
		woken = y.park()
		rt.mu.Lock()
	}
	delete(rt.yielders, y.Thread)
	return woken
}

// WakeYieldersLocked prompts every parked yielder to re-evaluate: a
// Close's wake, for the yielders of the half that closed. Everything
// else wakes only the yielders its change concerns: a dropped position
// those of its shard (UnregisterPositions), a removed signature those
// of its shard, the cycle breaker the one it forces. Caller holds rt.mu.
func (rt *Runtime) WakeYieldersLocked() {
	for _, y := range rt.yielders {
		y.wake()
	}
}

// BreakYieldCycles breaks the cycles of the combined wait+yield graph
// that pass through a yielder. Edges leave a thread toward the rescuers
// of its cases (its wait edges, as the deadlock detector reads them)
// and, if it is an unforced yielder, toward its Blockers. While some
// unforced yielder can reach itself, the smallest-id such yielder is
// forced through and woken. It returns how many it forced. Pure wait
// cycles are real deadlocks and are left to detection. The caller holds
// the runtime's mutex, which guards yielders and everything cases
// reads. With no yielders it returns at once, without allocating.
func BreakYieldCycles(yielders map[ThreadID]*Yielder, cases func(ThreadID) [][]ThreadID) int {
	forced := 0
	for len(yielders) > 0 {
		var best *Yielder
		for _, y := range yielders {
			if !y.Forced && (best == nil || y.Thread < best.Thread) && onYieldCycle(y, yielders, cases) {
				best = y
			}
		}
		if best == nil {
			break
		}
		best.Forced = true
		best.wake()
		forced++
	}
	return forced
}

// onYieldCycle reports whether y reaches itself over wait and yield
// edges.
func onYieldCycle(y *Yielder, yielders map[ThreadID]*Yielder, cases func(ThreadID) [][]ThreadID) bool {
	seen := make(map[ThreadID]struct{}, 8)
	var stack []ThreadID
	push := func(t ThreadID) {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			stack = append(stack, t)
		}
	}
	// Seed with y's successors, so that reaching y takes a real cycle.
	cur := y.Thread
	for {
		for _, rs := range cases(cur) {
			for _, next := range rs {
				push(next)
			}
		}
		if cy, ok := yielders[cur]; ok && !cy.Forced {
			for b := range cy.Blockers {
				push(b)
			}
		}
		if len(stack) == 0 {
			return false
		}
		cur, stack = stack[len(stack)-1], stack[:len(stack)-1]
		if cur == y.Thread {
			return true
		}
	}
}
