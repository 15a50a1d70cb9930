package dimmunix

import (
	"communix/internal/sig"
)

// waitChainLocked follows start's wait chain — start, the owner of the
// lock it queues for, that owner's wait lock's owner, … — each thread
// once. Each thread waits for at most one lock, so the wait-for graph is
// functional and a pointer chase suffices. cycle reports that the chase
// returned to start: the chain is then the wait-for cycle start's
// enqueue closed, in wait order. A chase that converges on a cycle
// without start (start merely waits on a deadlocked thread) is none:
// only the cycle's own closer fingerprints it.
func (rt *Runtime) waitChainLocked(start ThreadID) (chain []ThreadID, cycle bool) {
	seen := make(map[ThreadID]struct{}, 8)
	for cur := start; ; {
		if _, dup := seen[cur]; dup {
			return chain, cur == start
		}
		seen[cur] = struct{}{}
		chain = append(chain, cur)
		ts, ok := rt.threads[cur]
		if !ok || ts.wait == nil || ts.wait.lock.owner == 0 {
			return chain, false
		}
		cur = ts.wait.lock.owner
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
