package dimmunix

import (
	"communix/internal/sig"
)

// findCycleLocked reports the wait-for cycle through tid, if tid's
// enqueue closed one. Each thread waits for at most one lock, so the
// wait-for graph is functional and a pointer chase suffices: follow
// tid → owner(wait lock) → …; if the chase returns to tid, the visited
// prefix from tid is the cycle (in wait order).
func (rt *Runtime) findCycleLocked(tid ThreadID) []ThreadID {
	var chain []ThreadID
	seen := make(map[ThreadID]struct{}, 8)
	cur := tid
	for {
		if _, dup := seen[cur]; dup {
			if cur != tid {
				// The chase converged on a pre-existing cycle that does
				// not include tid: tid merely waits on a deadlocked
				// thread. Only the cycle's own closer fingerprints it.
				return nil
			}
			return chain
		}
		seen[cur] = struct{}{}
		chain = append(chain, cur)
		ts, ok := rt.threads[cur]
		if !ok || ts.wait == nil {
			return nil
		}
		owner := ts.wait.lock.owner
		if owner == 0 {
			return nil
		}
		cur = owner
	}
}

// buildDeadlockLocked extracts the deadlock fingerprint from a wait-for
// cycle (§II-A): for every thread in the cycle, the outer stack is the
// call stack it had when it acquired the lock the previous thread waits
// for, and the inner stack is its current (blocked) call stack.
func (rt *Runtime) buildDeadlockLocked(cycle []ThreadID) *Deadlock {
	n := len(cycle)
	threads := make([]sig.ThreadSpec, 0, n)
	for i, tid := range cycle {
		ts := rt.threads[tid]
		if ts == nil || ts.wait == nil {
			return nil
		}
		// The lock this thread holds that participates in the cycle is
		// the one the previous thread in the chain waits for.
		prev := cycle[(i-1+n)%n]
		prevTS := rt.threads[prev]
		if prevTS == nil || prevTS.wait == nil {
			return nil
		}
		heldInCycle := prevTS.wait.lock
		var outer sig.Stack
		for _, h := range ts.held {
			if h.lock == heldInCycle {
				outer = h.outer
				break
			}
		}
		if outer == nil {
			return nil
		}
		threads = append(threads, sig.ThreadSpec{
			Outer: outer.Clone(),
			Inner: ts.wait.stack.Clone(),
		})
	}
	s := sig.New(threads...)
	s.Origin = sig.OriginLocal
	dl := &Deadlock{
		Signature: s,
		Threads:   append([]ThreadID(nil), cycle...),
		Known:     rt.history.Get(s.ID()) != nil,
	}
	return dl
}
