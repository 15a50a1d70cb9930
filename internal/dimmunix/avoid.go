package dimmunix

import (
	"communix/internal/sig"
)

// AvoidLocked implements the avoidance module (§II-A), for a lock
// acquisition and a channel op alike: it returns when the engagement of
// tid on r with stack cs can no longer instantiate any history
// signature. Called and returns with rt.mu held; it releases the lock
// while the thread is parked. h is the half the op belongs to: it counts
// the op's yields and breaks, and a park ends with ErrClosed once h or
// the runtime closed.
//
// A signature with outer stacks CS1..CSn instantiates when distinct
// threads t1..tn are engaged on distinct resources r1..rn with stacks
// matching CS1..CSn: they hold or wait for a lock, or hold a deposit in
// a channel or block on one. A channel's stacks carry the op's kind on
// their top frame, so they match channel slots only, and a lock's match
// lock slots only. The caller is about to become one such (t, r, cs)
// triple; if the remaining slots are currently occupied, it yields
// (yield.go). A yielder forced through by the wait+yield cycle breaker
// is recorded as an avoidance break (Dimmunix treats these as
// false-positive evidence). With avoidance disabled it only occupies its
// slots.
//
// wait returns the rescuer sets the op would wait on were it to block
// now, or nil when it would not block: a suspension is a true positive
// when that wait would close a wait-for cycle.
//
// On a nil error the returned keys are the signature slots (tid, r, cs)
// now occupies: the caller hands them to the engagement it creates
// without releasing rt.mu, or unregisters them if it creates none.
func (rt *Runtime) AvoidLocked(h *Half, tid ThreadID, r *Resource, cs sig.Stack, wait func() [][]ThreadID) (Slots, error) {
	rt.refreshPositionsLocked()
	if rt.cfg.AvoidanceDisabled {
		return rt.RegisterPositions(tid, r, cs), nil
	}
	var lastSeq uint64
	timedOut := false
	for {
		refs := rt.history.MatchOuter(cs)
		if len(refs) == 0 {
			return nil, nil
		}
		shards := rt.appendShards(nil, refs)
		lockShards(shards)
		threat, blockers := rt.instantiationThreat(refs, shards, tid, r)
		if blockers == nil {
			// No threat: occupy the slots inside the critical section
			// that found them free. Registering after the shards are
			// released would let a matched fast acquisition (which never
			// takes rt.mu) find the slots empty in between, register,
			// and publish — both threads past avoidance, and the
			// signature instantiates.
			keys := putPositions(nil, refs, shards, tid, r)
			unlockShards(shards)
			return keys, nil
		}
		y := NewYielder(tid, blockers)
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

		// The suspension is a true positive if the op would have closed
		// a real wait-for cycle right now; otherwise it is evidence
		// toward the §III-C1 false-positive warning. A re-park caused
		// only by the re-home timeout re-confirming the same threat is
		// not a new instantiation — the schedule did not move — so it
		// adds no false-positive evidence and no yield count.
		var warning *FalsePositiveWarning
		if !timedOut || threat.Seq != lastSeq {
			tp := false
			if cases := wait(); cases != nil {
				tp = rt.cycleLocked(tid, cases) != nil
			}
			if warning = rt.fp.recordInstantiation(threat.Seq, tp); warning != nil {
				warning.SigID = rt.history.nameOf(threat.Sig)
				warning.Signature = threat.Sig
			}
			h.Yields.Add(1)
		}
		lastSeq = threat.Seq

		// In the table before the warning's callback drops rt.mu, so a
		// release meanwhile wakes y.
		rt.yielders[tid] = y
		rt.fireWarning(warning)
		h.Parked++
		timedOut = !rt.parkLocked(y)
		h.Parked--
		// Shards unlinked meanwhile (signature removed) are dead objects
		// to delete from harmlessly.
		for _, sh := range shards {
			sh.mu.Lock()
			if sh.yielders[tid] == y {
				delete(sh.yielders, tid)
			}
			sh.mu.Unlock()
		}
		if rt.closed.Load() || h.Closed.Load() {
			return nil, ErrClosed
		}
		if y.Forced {
			h.Breaks.Add(1)
			// Forced through: the slots are occupied despite the threat.
			return rt.RegisterPositions(tid, r, cs), nil
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
