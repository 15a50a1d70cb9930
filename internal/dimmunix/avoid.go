package dimmunix

import (
	"communix/internal/sig"
)

// avoidLocked implements the avoidance module (§II-A): it returns when
// granting l to tid with stack cs can no longer instantiate any history
// signature. Called and returns with rt.mu held; it releases the lock
// while the thread is parked.
//
// A signature with outer stacks CS1..CSn instantiates when distinct
// threads t1..tn hold or wait for distinct locks l1..ln with stacks
// matching CS1..CSn. The caller is about to become one such (t, l, cs)
// triple; if the remaining slots are currently occupied, it yields
// (yield.go). A yielder forced through by the wait+yield cycle breaker
// is recorded as an avoidance break (Dimmunix treats these as
// false-positive evidence).
//
// On a nil error the returned keys are the signature slots (tid, l, cs)
// now occupies: the caller hands them to the hold or the waiter it
// creates without releasing rt.mu, or unregisters them if it grants
// nothing.
func (rt *Runtime) avoidLocked(tid ThreadID, l *Lock, cs sig.Stack) ([]slotKey, error) {
	var lastSeq uint64
	timedOut := false
	for {
		// The lock may have been restored to fast mode (and fast-acquired)
		// while this thread yielded with rt.mu dropped; re-import so the
		// owner read below is accurate.
		rt.revokeLocked(l)

		refs := rt.history.MatchOuter(cs)
		if len(refs) == 0 {
			return nil, nil
		}
		shards := rt.shardsForRefs(refs)
		lockShards(shards)
		threat, blockers := rt.instantiationThreat(refs, shards, tid, l)
		if blockers == nil {
			// No threat: occupy the slots inside the critical section
			// that found them free. Registering after the shards are
			// released would let a matched fast acquisition (which never
			// takes rt.mu) find the slots empty in between, register,
			// and publish — both threads past avoidance, and the
			// signature instantiates.
			keys := putPositions(nil, refs, shards, tid, l)
			unlockShards(shards)
			return keys, nil
		}
		y := NewYielder(tid, blockers)
		y.mutex = true
		// Register the yielder in every matched shard *before* releasing
		// the shard locks: any position release that could resolve the
		// threat must touch one of these shards, and doing so after this
		// critical section guarantees it sees the yielder and wakes it —
		// no missed wake, even from matched fast releases that never take
		// rt.mu.
		for _, sh := range shards {
			sh.yielders[tid] = y
		}
		unlockShards(shards)

		// The suspension is a true positive if the acquisition would have
		// closed a real wait-for cycle right now; otherwise it is
		// evidence toward the §III-C1 false-positive warning. A re-park
		// caused only by the re-home timeout re-confirming the same
		// threat is not a new instantiation — the schedule did not move —
		// so it adds no false-positive evidence and no yield count.
		var warning *FalsePositiveWarning
		if !timedOut || threat.Seq != lastSeq {
			tp := false
			if o := l.owner; o != 0 && o != tid {
				tp = rt.cycleLocked(tid, [][]ThreadID{{o}}) != nil
			}
			if warning = rt.fp.recordInstantiation(threat.Seq, tp); warning != nil {
				warning.SigID = rt.history.nameOf(threat.Sig)
			}
			rt.stats.yields.Add(1)
		}
		lastSeq = threat.Seq

		// In the table before the warning's callback drops rt.mu, so a
		// release meanwhile wakes y.
		rt.yielders[tid] = y
		rt.fireWarning(warning)
		timedOut = !rt.ParkLocked(y)
		// Shards unlinked meanwhile (signature removed) are dead objects
		// to delete from harmlessly.
		for _, sh := range shards {
			sh.mu.Lock()
			if sh.yielders[tid] == y {
				delete(sh.yielders, tid)
			}
			sh.mu.Unlock()
		}
		if rt.closed.Load() {
			return nil, ErrClosed
		}
		if y.Forced {
			rt.stats.avoidanceBreak.Add(1)
			// Forced through: the slots are occupied despite the threat.
			return rt.registerPositions(tid, l, cs), nil
		}
		// Re-evaluate from scratch: the history may have changed while we
		// slept.
		rt.refreshPositionsLocked()
	}
}

// fireWarning emits a false-positive warning while holding rt.mu: it
// must release the lock around the user callback.
func (rt *Runtime) fireWarning(w *FalsePositiveWarning) {
	if w == nil || rt.cfg.OnFalsePositive == nil {
		return
	}
	rt.mu.Unlock()
	rt.cfg.OnFalsePositive(*w)
	rt.mu.Lock()
}
