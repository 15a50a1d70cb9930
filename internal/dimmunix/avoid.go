package dimmunix

import (
	"sync/atomic"
	"time"

	"communix/internal/sig"
)

// yieldRehomeNanos is how long a parked yielder sleeps before
// re-evaluating on its own, in nanoseconds (atomic so tests can shorten
// it without racing live runtimes). A wake normally arrives from a
// release touching one of its shards or from rt.mu-side broadcasts; the
// timeout only matters for a yielder whose every registered shard was
// unlinked by a refresh with no replacement — no future release can
// route a wake there, so the park re-homes itself against the current
// index. One spurious re-evaluation per interval is the cost ceiling.
var yieldRehomeNanos atomic.Int64

func init() { yieldRehomeNanos.Store(int64(time.Second)) }

// YieldRehomeTimeout returns the park re-home interval shared by every
// yielder discipline in the process — mutex yielders here and channel
// yielders in internal/commdlk, which parks with the same timeout so
// both classes of avoidance degrade identically when wakes are lost.
func YieldRehomeTimeout() time.Duration {
	return time.Duration(yieldRehomeNanos.Load())
}

// SetYieldRehomeTimeout adjusts the shared park re-home interval.
// Intervals ≤ 0 are ignored. Intended for tests and benchmarks.
func SetYieldRehomeTimeout(d time.Duration) {
	if d > 0 {
		yieldRehomeNanos.Store(int64(d))
	}
}

// threatCarry hands a matched fast acquisition's threat evaluation to
// the slow path. The yielder y was registered in shards (the matched
// signatures' shards) under the same shard critical section that
// evaluated the threat, so any position release resolving it — before
// or after the slow path adopts the carry — wakes y; the park consumes
// the buffered wake and re-evaluates. The carry is only adoptable while
// the index it was evaluated under is still current (idx pointer and
// refreshed version both unmoved); otherwise it must be dropped via
// dropCarriedYielder.
type threatCarry struct {
	idx    *AvoidIndex
	shards []*sigShard
	sigID  string
	y      *yielder
}

// dropCarriedYielder unregisters a carried-but-unadopted yielder from
// its shards. Safe for nil carry. Caller holds rt.mu (the carry's
// yielder was never in rt.yielders, so only shard state needs undoing,
// but the rt.mu → shard order must hold).
func (rt *Runtime) dropCarriedYielder(tid ThreadID, c *threatCarry) {
	if c == nil {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.yielders[tid] == c.y {
			delete(sh.yielders, tid)
		}
		sh.mu.Unlock()
	}
}

// avoidLocked implements the avoidance module (§II-A): it returns when
// granting l to tid with stack cs can no longer instantiate any history
// signature. Called and returns with rt.mu held; it releases the lock
// while the thread is suspended.
//
// A signature with outer stacks CS1..CSn instantiates when distinct
// threads t1..tn hold or wait for distinct locks l1..ln with stacks
// matching CS1..CSn. The caller is about to become one such (t, l, cs)
// triple; if the remaining slots are currently occupied, the acquisition
// is suspended.
//
// Avoidance itself can deadlock (a yielding thread blocks the threads it
// waits on); such cycles are detected over the combined wait+yield graph
// and broken by forcing one yielder to proceed, which is recorded as an
// avoidance break (Dimmunix treats these as false-positive evidence).
//
// carry, when non-nil, is the matched fast path's already-computed
// threat (threatCarry): if the index has not moved since that
// evaluation, the first loop iteration adopts its yielder and blocker
// set instead of re-matching and re-evaluating under rt.mu.
//
// On a nil error the returned keys are the signature slots (tid, l, cs)
// now occupies: the caller hands them to the hold or the waiter it
// creates without releasing rt.mu, or unregisters them if it grants
// nothing.
func (rt *Runtime) avoidLocked(tid ThreadID, l *Lock, cs sig.Stack, carry *threatCarry) ([]slotKey, error) {
	lastSigID := ""
	timedOut := false
	for {
		// The lock may have been restored to fast mode (and fast-acquired)
		// while this thread yielded with rt.mu dropped; re-import so the
		// owner read below is accurate.
		rt.revokeLocked(l)

		var (
			shards []*sigShard
			sigID  string
			y      *yielder
		)
		if c := carry; c != nil {
			carry = nil
			// Adoptable only if the position table still reflects exactly
			// the index the fast attempt evaluated under. Position changes
			// since then are fine: they went through the carry's shards and
			// left a wake buffered in c.y, so the park below re-evaluates
			// immediately.
			if rt.histVer.Load() == c.idx.version && rt.history.idx.Load() == c.idx {
				shards, sigID, y = c.shards, c.sigID, c.y
			} else {
				rt.dropCarriedYielder(tid, c)
			}
		}
		if y == nil {
			refs := rt.history.MatchOuter(cs)
			if len(refs) == 0 {
				return nil, nil
			}
			shards = rt.shardsForRefs(refs)
			lockShards(shards)
			var blockers map[ThreadID]struct{}
			sigID, blockers = rt.instantiationThreat(refs, shards, tid, l)
			if sigID == "" {
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
			y = &yielder{
				thread:   tid,
				blockers: blockers,
				wake:     make(chan struct{}, 1),
			}
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
		}

		// The suspension is a true positive if the acquisition would have
		// closed a real wait-for cycle right now; otherwise it is
		// evidence toward the §III-C1 false-positive warning. A re-park
		// caused only by the re-home timeout re-confirming the same
		// threat is not a new instantiation — the schedule did not move —
		// so it adds no false-positive evidence and no yield count.
		var warning *FalsePositiveWarning
		if !timedOut || sigID != lastSigID {
			tp := l.owner != 0 && l.owner != tid && rt.reachesThreadLocked(l.owner, tid)
			warning = rt.fp.recordInstantiation(sigID, tp)
			rt.stats.yields.Add(1)
		}
		lastSigID = sigID

		rt.yielders[tid] = y
		rt.resolveAvoidanceCyclesLocked()

		if y.proceed || rt.closed.Load() {
			rt.removeYielderLocked(tid, y, shards)
			if rt.closed.Load() {
				rt.fireWarning(warning)
				return nil, ErrClosed
			}
			rt.stats.avoidanceBreak.Add(1)
			rt.fireWarning(warning)
			// Forced through: the slots are occupied despite the threat.
			return rt.registerPositions(tid, l, cs), nil
		}

		rt.mu.Unlock()
		rt.fireWarningUnlocked(warning)
		rehome := time.NewTimer(time.Duration(yieldRehomeNanos.Load()))
		select {
		case <-y.wake:
		case <-rehome.C:
		}
		rehome.Stop()
		rt.mu.Lock()

		// A wake that raced the timeout still counts as a wake.
		timedOut = !y.woken.Load() && !y.proceed
		rt.removeYielderLocked(tid, y, shards)
		if rt.closed.Load() {
			return nil, ErrClosed
		}
		if y.proceed {
			rt.stats.avoidanceBreak.Add(1)
			return rt.registerPositions(tid, l, cs), nil
		}
		// Re-evaluate from scratch: the history may have changed while we
		// slept.
		rt.refreshPositionsLocked()
	}
}

// removeYielderLocked drops y from the global yielder table and from the
// shard wake lists it was parked under. Caller holds rt.mu; shards may
// meanwhile have been unlinked from the shard table (signature removed),
// in which case deleting from the dead object is harmless.
func (rt *Runtime) removeYielderLocked(tid ThreadID, y *yielder, shards []*sigShard) {
	delete(rt.yielders, tid)
	for _, sh := range shards {
		sh.mu.Lock()
		if sh.yielders[tid] == y {
			delete(sh.yielders, tid)
		}
		sh.mu.Unlock()
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

// fireWarningUnlocked emits a warning with rt.mu already released.
func (rt *Runtime) fireWarningUnlocked(w *FalsePositiveWarning) {
	if w == nil || rt.cfg.OnFalsePositive == nil {
		return
	}
	rt.cfg.OnFalsePositive(*w)
}

// wakeYieldersLocked prompts every suspended yielder to re-evaluate its
// threat; called whenever positions shrink under rt.mu (release, denied
// waiter) and after a history refresh. Matched fast releases wake the
// affected shards' yielders directly instead (shard.go).
func (rt *Runtime) wakeYieldersLocked() {
	for _, y := range rt.yielders {
		wakeYielder(y)
	}
}

// resolveAvoidanceCyclesLocked breaks cycles in the combined wait+yield
// graph that pass through a yielder, forcing the smallest-id yielder in
// each cycle to proceed. Pure wait cycles are real deadlocks and are
// handled by detection.
func (rt *Runtime) resolveAvoidanceCyclesLocked() {
	for {
		y := rt.findYielderInCycleLocked()
		if y == nil {
			return
		}
		y.proceed = true
		wakeYielder(y)
	}
}

// findYielderInCycleLocked returns an active yielder that can reach
// itself over wait+yield edges, preferring the smallest thread id for
// determinism, or nil.
func (rt *Runtime) findYielderInCycleLocked() *yielder {
	var best *yielder
	for _, y := range rt.yielders {
		if y.proceed {
			continue
		}
		if rt.reachesThreadLocked2(y.thread, y.thread) {
			if best == nil || y.thread < best.thread {
				best = y
			}
		}
	}
	return best
}

// reachesThreadLocked reports whether target is reachable from start over
// real wait edges only (start's wait chain).
func (rt *Runtime) reachesThreadLocked(start, target ThreadID) bool {
	cur := start
	seen := make(map[ThreadID]struct{}, 8)
	for {
		if cur == target {
			return true
		}
		if _, dup := seen[cur]; dup {
			return false
		}
		seen[cur] = struct{}{}
		ts, ok := rt.threads[cur]
		if !ok || ts.wait == nil {
			return false
		}
		next := ts.wait.lock.owner
		if next == 0 {
			return false
		}
		cur = next
	}
}

// reachesThreadLocked2 reports whether target is reachable from start
// over the combined graph: wait edges (waiter→owner) and yield edges
// (yielder→blockers). Used for avoidance-cycle detection.
func (rt *Runtime) reachesThreadLocked2(start, target ThreadID) bool {
	seen := make(map[ThreadID]struct{}, 8)
	stack := []ThreadID{}
	push := func(t ThreadID) {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			stack = append(stack, t)
		}
	}
	// Seed with start's successors (so that start reaching itself
	// requires an actual cycle).
	for _, next := range rt.successorsLocked(start) {
		push(next)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		for _, next := range rt.successorsLocked(cur) {
			push(next)
		}
	}
	return false
}

// successorsLocked lists the threads that t currently waits on: the owner
// of the lock it queues for, plus the blockers it yields for.
func (rt *Runtime) successorsLocked(t ThreadID) []ThreadID {
	var out []ThreadID
	if ts, ok := rt.threads[t]; ok && ts.wait != nil {
		if owner := ts.wait.lock.owner; owner != 0 {
			out = append(out, owner)
		}
	}
	if y, ok := rt.yielders[t]; ok && !y.proceed {
		for b := range y.blockers {
			out = append(out, b)
		}
	}
	return out
}
