package dimmunix

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"communix/internal/sig"
)

// Differential testing: the fast-path runtime and the reference
// (FastPathDisabled) runtime are driven through the same totally ordered
// operation sequence, and every observable decision — grant, block,
// avoidance yield, deadlock denial, error — must match. The driver keeps
// the interleaving deterministic by issuing one operation at a time and
// waiting until it settles (completed, or durably parked) on both
// runtimes before issuing the next.

// diffOp is one potentially blocking acquisition issued to both runtimes.
type diffOp struct {
	tid      ThreadID
	lock     int
	fastDone chan error
	refDone  chan error
	fastErr  error
	refErr   error
	fastRcvd bool
	refRcvd  bool
}

// diffRig drives a fast and a reference runtime in lockstep.
type diffRig struct {
	t         *testing.T
	fast, ref *Runtime
	fastHist  *History
	refHist   *History
	fastLocks []*Lock
	refLocks  []*Lock
	pending   map[ThreadID]*diffOp
	held      map[ThreadID][]int // test-side model of granted holds
	// refreshEveryStep checks both runtimes' refreshed positions against
	// the from-scratch oracle at every quiescent step of a script, not
	// only after hot-swaps.
	refreshEveryStep bool
}

// newDiffRig builds the default rig: the full sharded fast path against
// the all-slow global-mutex reference (FastPathDisabled).
func newDiffRig(t *testing.T, nLocks int, mutate func(*Config)) *diffRig {
	return newDiffRigRef(t, nLocks, mutate, func(c *Config) { c.FastPathDisabled = true })
}

// newDiffRigGlobal builds the sharded-vs-global rig: the full sharded
// fast path against the pre-shard runtime (fast path on, matched
// acquisitions through rt.mu — ShardedAvoidanceDisabled), so every
// grant/yield/denial of the sharded matched path is checked against the
// global-mutex matched path specifically.
func newDiffRigGlobal(t *testing.T, nLocks int, mutate func(*Config)) *diffRig {
	return newDiffRigRef(t, nLocks, mutate, func(c *Config) { c.ShardedAvoidanceDisabled = true })
}

func newDiffRigRef(t *testing.T, nLocks int, mutate func(*Config), refMutate func(*Config)) *diffRig {
	t.Helper()
	r := &diffRig{
		t:        t,
		fastHist: NewHistory(),
		refHist:  NewHistory(),
		pending:  make(map[ThreadID]*diffOp),
		held:     make(map[ThreadID][]int),
	}
	fastCfg := Config{History: r.fastHist, Policy: RecoverBreak}
	if mutate != nil {
		mutate(&fastCfg)
	}
	refCfg := fastCfg
	refCfg.History = r.refHist
	refMutate(&refCfg)
	r.fast = NewRuntime(fastCfg)
	r.ref = NewRuntime(refCfg)
	for i := 0; i < nLocks; i++ {
		r.fastLocks = append(r.fastLocks, r.fast.NewLock(fmt.Sprintf("L%d", i)))
		r.refLocks = append(r.refLocks, r.ref.NewLock(fmt.Sprintf("L%d", i)))
	}
	t.Cleanup(func() {
		r.fast.Close()
		r.ref.Close()
		// Drain anything the close released.
		for _, op := range r.pending {
			<-op.fastDone
			<-op.refDone
		}
	})
	return r
}

// install applies the same signature to both histories at a quiescent
// point — the agent's hot-swap, replayed identically.
func (r *diffRig) install(s *sig.Signature) {
	fa := r.fastHist.Add(s)
	ra := r.refHist.Add(s)
	if fa != ra {
		r.t.Fatalf("install divergence: fast added=%v ref added=%v", fa, ra)
	}
}

// remove drops a signature from both histories.
func (r *diffRig) remove(id string) {
	fr := r.fastHist.Remove(id)
	rr := r.refHist.Remove(id)
	if fr != rr {
		r.t.Fatalf("remove divergence: fast removed=%v ref removed=%v", fr, rr)
	}
}

// replace swaps signatures on both histories in one mutation — the
// generalization path's atomic install of a merged signature.
func (r *diffRig) replace(oldID string, s *sig.Signature) {
	fr := r.fastHist.Replace(oldID, s)
	rr := r.refHist.Replace(oldID, s)
	if fr != rr {
		r.t.Fatalf("replace divergence: fast=%v ref=%v", fr, rr)
	}
}

// parked reports whether tid is durably suspended in rt: queued with no
// verdict delivered, or yielding with no pending wake.
func parked(rt *Runtime, tid ThreadID) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ts, ok := rt.threads[tid]; ok && ts.wait != nil {
		return !ts.wait.notified
	}
	if y, ok := rt.yielders[tid]; ok {
		return !y.Forced && !y.woken.Load()
	}
	return false
}

// acquire issues Acquire(tid, lock) with stack cs on both runtimes and
// waits for it to settle. It returns true if the op completed (errors
// compared), false if it parked identically on both (now pending).
func (r *diffRig) acquire(tid ThreadID, lock int, cs sig.Stack) bool {
	r.t.Helper()
	if _, busy := r.pending[tid]; busy {
		r.t.Fatalf("driver bug: thread %d already has a pending op", tid)
	}
	op := &diffOp{
		tid: tid, lock: lock,
		fastDone: make(chan error, 1),
		refDone:  make(chan error, 1),
	}
	go func() { op.fastDone <- r.fast.Acquire(tid, r.fastLocks[lock], cs) }()
	go func() { op.refDone <- r.ref.Acquire(tid, r.refLocks[lock], cs) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		op.poll()
		if op.fastRcvd && op.refRcvd {
			r.compareResult(op)
			if op.fastErr == nil {
				r.held[tid] = append(r.held[tid], lock)
			}
			return true
		}
		if !op.fastRcvd && !op.refRcvd && parked(r.fast, tid) && parked(r.ref, tid) {
			// Parked state can still race a verdict already in flight;
			// give the channels one more look before committing.
			op.poll()
			if !op.fastRcvd && !op.refRcvd {
				r.pending[tid] = op
				return false
			}
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("acquire(t%d, L%d) diverged: fast done=%v(err=%v) ref done=%v(err=%v) fastParked=%v refParked=%v",
				tid, lock, op.fastRcvd, op.fastErr, op.refRcvd, op.refErr, parked(r.fast, tid), parked(r.ref, tid))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// poll non-blockingly collects any delivered verdicts.
func (op *diffOp) poll() {
	if !op.fastRcvd {
		select {
		case op.fastErr = <-op.fastDone:
			op.fastRcvd = true
		default:
		}
	}
	if !op.refRcvd {
		select {
		case op.refErr = <-op.refDone:
			op.refRcvd = true
		default:
		}
	}
}

// compareResult demands the same verdict from both runtimes.
func (r *diffRig) compareResult(op *diffOp) {
	r.t.Helper()
	switch {
	case op.fastErr == nil && op.refErr == nil:
	case errors.Is(op.fastErr, ErrDeadlock) && errors.Is(op.refErr, ErrDeadlock):
	case errors.Is(op.fastErr, ErrClosed) && errors.Is(op.refErr, ErrClosed):
	case errors.Is(op.fastErr, ErrNotOwner) && errors.Is(op.refErr, ErrNotOwner):
	default:
		r.t.Fatalf("verdict divergence on t%d/L%d: fast=%v ref=%v", op.tid, op.lock, op.fastErr, op.refErr)
	}
}

// release issues Release on both runtimes (never blocks), compares the
// verdicts, then waits for any pending op the release may have resolved.
func (r *diffRig) release(tid ThreadID, lock int) {
	r.t.Helper()
	fastErr := r.fast.Release(tid, r.fastLocks[lock])
	refErr := r.ref.Release(tid, r.refLocks[lock])
	switch {
	case fastErr == nil && refErr == nil:
		holds := r.held[tid]
		for i, l := range holds {
			if l == lock {
				r.held[tid] = append(holds[:i], holds[i+1:]...)
				break
			}
		}
	case errors.Is(fastErr, ErrNotOwner) && errors.Is(refErr, ErrNotOwner):
	default:
		r.t.Fatalf("release divergence on t%d/L%d: fast=%v ref=%v", tid, lock, fastErr, refErr)
	}
	r.drainResolved()
}

// drainResolved waits until every pending op reaches a durable state on
// both runtimes: resolved on both (verdicts compared) or parked on both.
// An op that resolves on one runtime while staying parked on the other
// is a decision divergence.
func (r *diffRig) drainResolved() {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		durable := true
		for tid, op := range r.pending {
			op.poll()
			if op.fastRcvd && op.refRcvd {
				r.compareResult(op)
				if op.fastErr == nil {
					r.held[tid] = append(r.held[tid], op.lock)
				}
				delete(r.pending, tid)
				continue
			}
			if op.fastRcvd || op.refRcvd || !parked(r.fast, tid) || !parked(r.ref, tid) {
				// A verdict is in flight (wake consumed, channel not yet
				// written) on at least one side: not durable yet.
				durable = false
			}
		}
		if durable {
			return
		}
		if time.Now().After(deadline) {
			for tid, op := range r.pending {
				if op.fastRcvd != op.refRcvd {
					r.t.Fatalf("pending op t%d/L%d resolved on one runtime only: fast=%v ref=%v",
						tid, op.lock, op.fastRcvd, op.refRcvd)
				}
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// compareStats demands equal decision counters; meaningful at quiescent
// points of a lockstep script, where both runtimes have processed the
// identical totally ordered event sequence.
func (r *diffRig) compareStats() {
	r.t.Helper()
	fs, rs := r.fast.Stats(), r.ref.Stats()
	if fs != rs {
		r.t.Fatalf("stats divergence:\n fast: %+v\n  ref: %+v", fs, rs)
	}
	r.compareHistories()
}

// compareStatsRelaxed is compareStats for scripts where two suspended
// threads can be woken by one event: which of them runs first then
// decides whether the loser queues behind the winner's fresh hold or
// yields against it, so Contended, Yields, and AvoidanceBreak are
// schedule-dependent by ±the number of simultaneous wakes and compared
// only as zero/non-zero. Grants, denials, and the per-op
// completed-vs-parked verdicts (checked at issue time) remain exact.
func (r *diffRig) compareStatsRelaxed() {
	r.t.Helper()
	fs, rs := r.fast.Stats(), r.ref.Stats()
	if fs.Acquisitions != rs.Acquisitions || fs.Deadlocks != rs.Deadlocks {
		r.t.Fatalf("stats divergence:\n fast: %+v\n  ref: %+v", fs, rs)
	}
	if (fs.Contended == 0) != (rs.Contended == 0) ||
		(fs.Yields == 0) != (rs.Yields == 0) ||
		(fs.AvoidanceBreak == 0) != (rs.AvoidanceBreak == 0) {
		r.t.Fatalf("decision-class divergence:\n fast: %+v\n  ref: %+v", fs, rs)
	}
	r.compareHistories()
}

// compareHistories demands both histories learned the same signatures.
func (r *diffRig) compareHistories() {
	r.t.Helper()
	if fl, rl := r.fastHist.Len(), r.refHist.Len(); fl != rl {
		r.t.Fatalf("history divergence: fast has %d signatures, ref has %d", fl, rl)
	}
	for _, s := range r.fastHist.All() {
		if r.refHist.Get(s.ID()) == nil {
			r.t.Fatalf("history divergence: signature %s only in fast history", s.ID())
		}
	}
}

// --- Scripted scenarios ---

// TestDifferentialAvoidanceYield replays the canonical avoidance
// scenario: with the pair signature installed, the second thread's outer
// acquisition must yield on both runtimes, then proceed after the first
// thread releases.
func TestDifferentialAvoidanceYield(t *testing.T) {
	r := newDiffRig(t, 2, nil)
	ps := newPairStacks()
	r.install(ps.signature())

	if !r.acquire(1, 0, ps.outerA) {
		t.Fatal("thread 1's unthreatened acquisition should complete")
	}
	if r.acquire(2, 1, ps.outerB) {
		t.Fatal("thread 2 should yield: granting would instantiate the signature")
	}
	if y := r.fast.Stats().Yields; y == 0 {
		t.Error("fast runtime recorded no yield")
	}
	r.release(1, 0) // wakes thread 2 on both
	r.drainResolved()
	if len(r.pending) != 0 {
		t.Fatal("thread 2 still parked after the blocker released")
	}
	r.release(2, 1)
	r.compareStats()
}

// TestDifferentialDeadlockDetection replays the canonical deadlock with
// an empty history: the cycle-closing acquisition is denied under
// RecoverBreak on both runtimes and both histories learn the same
// signature.
func TestDifferentialDeadlockDetection(t *testing.T) {
	r := newDiffRig(t, 2, nil)
	ps := newPairStacks()

	if !r.acquire(1, 0, ps.outerA) || !r.acquire(2, 1, ps.outerB) {
		t.Fatal("outer acquisitions should be lock-free grants")
	}
	if r.acquire(1, 1, ps.innerAB) {
		t.Fatal("thread 1 should block behind thread 2's hold")
	}
	// Thread 2 closes the cycle: denied immediately on both.
	if !r.acquire(2, 0, ps.innerBA) {
		t.Fatal("cycle-closing acquisition should resolve (denial), not park")
	}
	r.release(2, 1) // thread 1's wait resolves
	r.drainResolved()
	r.release(1, 1)
	r.release(1, 0)
	r.compareStats()
	if r.fast.Stats().Deadlocks != 1 {
		t.Errorf("deadlocks = %d, want 1", r.fast.Stats().Deadlocks)
	}
	// Reoccurrence is now avoided, identically.
	if !r.acquire(1, 0, ps.outerA) {
		t.Fatal("re-acquire A")
	}
	if r.acquire(2, 1, ps.outerB) {
		t.Fatal("history should make thread 2 yield this time")
	}
	r.release(1, 0)
	r.drainResolved()
	r.release(2, 1)
	r.compareStats()
}

// TestDifferentialHotSwap installs a signature while a matching stack is
// held on the fast path, and verifies both runtimes make the same
// avoidance decision afterwards (the import path).
func TestDifferentialHotSwap(t *testing.T) {
	r := newDiffRig(t, 2, nil)
	ps := newPairStacks()

	if !r.acquire(1, 0, ps.outerA) {
		t.Fatal("initial acquisition should complete")
	}
	r.install(ps.signature()) // hot-swap while held
	if r.acquire(2, 1, ps.outerB) {
		t.Fatal("thread 2 should yield against the imported hold on both runtimes")
	}
	r.release(1, 0)
	r.drainResolved()
	r.release(2, 1)

	// Removing the signature re-enables the lock-free path identically.
	r.remove(ps.signature().ID())
	if !r.acquire(1, 0, ps.outerA) || !r.acquire(2, 1, ps.outerB) {
		t.Fatal("with the signature removed both acquisitions complete")
	}
	r.release(1, 0)
	r.release(2, 1)
	r.compareStats()
}

// TestDifferentialReentrancyAndErrors pins identical edge-case verdicts.
func TestDifferentialReentrancyAndErrors(t *testing.T) {
	r := newDiffRig(t, 1, nil)
	cs := mkStack("T", "s", 5)
	if !r.acquire(1, 0, cs) || !r.acquire(1, 0, cs) {
		t.Fatal("reentrant acquisitions should complete")
	}
	r.release(2, 0) // not the owner: identical error on both (checked by release)
	r.release(1, 0)
	r.release(1, 0)
	r.release(1, 0) // over-release: identical error
	r.compareStats()
}

// --- Fuzzed interleavings ---

// chooser abstracts the randomness source so the same script driver
// serves both the seeded fuzz test and the go-fuzz target.
type chooser interface {
	intn(n int) int
}

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

type byteChooser struct {
	data []byte
	pos  int
}

func (c *byteChooser) intn(n int) int {
	if n <= 1 {
		return 0
	}
	if c.pos >= len(c.data) {
		c.pos = 0 // wrap: scripts stay short anyway
	}
	v := int(c.data[c.pos]) % n
	c.pos++
	return v
}

// runDifferentialScript generates a legal operation sequence from the
// chooser and replays it through the lockstep rig built by rigFn.
// "Legal" keeps the script resolvable: at most one thread parked at a
// time, and while one is parked the next operations work toward
// unparking it (releasing a blocker's hold), possibly via a
// cycle-closing acquisition that detection denies.
func runDifferentialScript(t *testing.T, ch chooser, ops int, detectionDisabled bool,
	rigFn func(*testing.T, int, func(*Config)) *diffRig) {
	const (
		nLocks   = 4
		nThreads = 4
	)
	r := rigFn(t, nLocks, func(c *Config) {
		c.DetectionDisabled = detectionDisabled
	})
	ps := newPairStacks()
	r.install(ps.signature())
	// A second signature whose slot-0 outer is a suffix of outerA: the
	// outerA and Deep stacks then match *two* signatures, exercising the
	// sorted multi-shard lock order on every such acquisition.
	suffixSig := func() *sig.Signature {
		s := sig.New(
			sig.ThreadSpec{Outer: ps.outerA.Suffix(3).Clone(), Inner: mkStack("Sfx", "si", 5)},
			sig.ThreadSpec{Outer: mkStack("Sfx", "so", 5), Inner: mkStack("Sfx", "soi", 5)},
		)
		s.Origin = sig.OriginLocal
		return s
	}()
	r.install(suffixSig)

	// Stack pool: plain stacks (never match), the installed signature's
	// outer stacks, and suffix-extended variants of those (also match —
	// outerA-derived ones against both signatures).
	stacks := []sig.Stack{
		mkStack("P0", "p0", 5),
		mkStack("P1", "p1", 6),
		mkStack("P2", "p2", 4),
		ps.outerA,
		ps.outerB,
		append(mkStack("Deep", "d", 3), ps.outerA.Clone()...),
	}

	extraSig := func() *sig.Signature {
		s := sig.New(
			sig.ThreadSpec{Outer: stacks[0], Inner: mkStack("P0", "i0", 5)},
			sig.ThreadSpec{Outer: stacks[1], Inner: mkStack("P1", "i1", 5)},
		)
		s.Origin = sig.OriginLocal
		return s
	}()
	// A same-outer variant (different inner stacks, so a different ID):
	// Replace swaps one for the other in a single mutation, exercising a
	// refresh that removes and adds at once.
	extraSigAlt := func() *sig.Signature {
		s := sig.New(
			sig.ThreadSpec{Outer: stacks[0], Inner: mkStack("P0", "i0alt", 5)},
			sig.ThreadSpec{Outer: stacks[1], Inner: mkStack("P1", "i1alt", 5)},
		)
		s.Origin = sig.OriginLocal
		return s
	}()
	extraSigs := [2]*sig.Signature{extraSig, extraSigAlt}
	extraCur := -1 // index into extraSigs currently installed; -1 none
	wedgeRetries := 0

	// blockerHolds asks the reference runtime who is blocking the single
	// parked thread, and returns a (tid, lock) pair from the test model
	// that, once released, makes progress toward unparking it.
	blockerHolds := func(parkedTid ThreadID) (ThreadID, int, bool) {
		r.ref.mu.Lock()
		blockers := make(map[ThreadID]struct{})
		if ts, ok := r.ref.threads[parkedTid]; ok && ts.wait != nil {
			if o := ts.wait.lock.owner; o != 0 {
				blockers[o] = struct{}{}
			}
		}
		if y, ok := r.ref.yielders[parkedTid]; ok {
			for b := range y.Blockers {
				blockers[b] = struct{}{}
			}
		}
		r.ref.mu.Unlock()
		for b := range blockers {
			if holds := r.held[b]; len(holds) > 0 {
				return b, holds[len(holds)-1], true
			}
		}
		return 0, 0, false
	}

	for i := 0; i < ops; i++ {
		if r.refreshEveryStep && len(r.pending) == 0 {
			checkRefresh(t, r.fast, fmt.Sprintf("fast runtime at op %d", i))
			checkRefresh(t, r.ref, fmt.Sprintf("reference runtime at op %d", i))
		}
		if len(r.pending) > 0 {
			var parkedTid ThreadID
			for tid := range r.pending {
				parkedTid = tid
			}
			// Occasionally let a second thread close a cycle on the parked
			// thread's lock — detection denies it immediately (never under
			// DetectionDisabled, where it would park unresolvably).
			if !detectionDisabled && ch.intn(4) == 0 {
				if b, _, ok := blockerHolds(parkedTid); ok && b != parkedTid {
					if _, busy := r.pending[b]; !busy {
						pl := r.pending[parkedTid].lock
						r.acquire(b, pl, stacks[ch.intn(len(stacks))])
						r.drainResolved()
					}
				}
			}
			// Work toward unparking: release one of the blocker's holds.
			if b, lock, ok := blockerHolds(parkedTid); ok {
				if _, busy := r.pending[b]; !busy {
					r.release(b, lock)
					continue
				}
			}
			// Blockers hold nothing we know of (or are parked themselves):
			// release any model-known hold to keep draining.
			released := false
			for tid, holds := range r.held {
				if _, busy := r.pending[tid]; !busy && len(holds) > 0 {
					r.release(tid, holds[len(holds)-1])
					released = true
					break
				}
			}
			if !released {
				// Nothing to release: either a parked op's verdict is still
				// in flight (a wake was consumed microseconds ago), or the
				// script is genuinely wedged. Wait briefly and retry; fail
				// only after sustained lack of progress.
				wedgeRetries++
				if wedgeRetries > 2000 {
					t.Fatalf("script wedged: parked=%v held=%v pending=%d", parkedTid, r.held, len(r.pending))
				}
				time.Sleep(time.Millisecond)
				r.drainResolved()
			} else {
				wedgeRetries = 0
			}
			continue
		}

		switch ch.intn(10) {
		case 0, 1, 2, 3, 4, 5: // acquire
			tid := ThreadID(1 + ch.intn(nThreads))
			if _, busy := r.pending[tid]; busy {
				continue
			}
			r.acquire(tid, ch.intn(nLocks), stacks[ch.intn(len(stacks))])
		case 6, 7: // release a held lock
			for tid, holds := range r.held {
				if _, busy := r.pending[tid]; !busy && len(holds) > 0 {
					r.release(tid, holds[ch.intn(len(holds))])
					break
				}
			}
		case 8: // hot-swap: install, remove, or swap the extra signature
			switch {
			case extraCur < 0:
				r.install(extraSigs[0])
				extraCur = 0
			case ch.intn(2) == 0:
				r.remove(extraSigs[extraCur].ID())
				extraCur = -1
			default: // one Replace mutation: one version bump
				r.replace(extraSigs[extraCur].ID(), extraSigs[1-extraCur])
				extraCur = 1 - extraCur
			}
			// Quiescent (nothing is parked): the refresh must register
			// exactly what the from-scratch oracle does.
			checkRefresh(t, r.fast, fmt.Sprintf("after hot-swap at op %d", i))
		case 9: // stats comparison mid-script (also polls pending)
			r.drainResolved()
			if len(r.pending) == 0 {
				r.compareStatsRelaxed()
			}
		}
	}

	// Drain: release everything, resolve all pending ops, compare.
	for i := 0; i < 4*ops && len(r.pending)+len(heldCount(r.held)) > 0; i++ {
		if b, lock, ok := func() (ThreadID, int, bool) {
			for tid := range r.pending {
				return blockerHolds(tid)
			}
			return 0, 0, false
		}(); ok {
			if _, busy := r.pending[b]; !busy {
				r.release(b, lock)
				continue
			}
		}
		progressed := false
		for tid, holds := range r.held {
			if _, busy := r.pending[tid]; !busy && len(holds) > 0 {
				r.release(tid, holds[len(holds)-1])
				progressed = true
				break
			}
		}
		if !progressed {
			break
		}
	}
	r.drainResolved()
	if len(r.pending) == 0 {
		r.compareStatsRelaxed()
	}
}

// heldCount flattens the hold model (helper for the drain loop).
func heldCount(held map[ThreadID][]int) []int {
	var all []int
	for _, h := range held {
		all = append(all, h...)
	}
	return all
}

func TestDifferentialFuzzedInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferentialScript(t, randChooser{rand.New(rand.NewSource(seed))}, 120, false, newDiffRig)
		})
	}
	t.Run("detection-disabled", func(t *testing.T) {
		runDifferentialScript(t, randChooser{rand.New(rand.NewSource(42))}, 120, true, newDiffRig)
	})
}

// TestDifferentialShardedVsGlobal replays the fuzzed scripts with the
// pre-shard runtime (matched acquisitions through rt.mu) as the
// reference, so the sharded matched path's every grant/yield/denial is
// compared against the global-mutex matched path specifically.
func TestDifferentialShardedVsGlobal(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferentialScript(t, randChooser{rand.New(rand.NewSource(seed))}, 120, false, newDiffRigGlobal)
		})
	}
	t.Run("detection-disabled", func(t *testing.T) {
		runDifferentialScript(t, randChooser{rand.New(rand.NewSource(43))}, 120, true, newDiffRigGlobal)
	})
}

// TestDifferentialIncrementalVsFullRebuild replays the fuzzed scripts
// with the refresh checked at every quiescent step, on both runtimes:
// the positions the incremental refresh leaves registered must equal a
// full rebuild of the table from scratch (expectedDigest), computed by
// the test from the runtime's holds, waits and published fast holds.
func TestDifferentialIncrementalVsFullRebuild(t *testing.T) {
	rigFn := func(t *testing.T, nLocks int, mutate func(*Config)) *diffRig {
		r := newDiffRig(t, nLocks, mutate)
		r.refreshEveryStep = true
		return r
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferentialScript(t, randChooser{rand.New(rand.NewSource(seed))}, 120, false, rigFn)
		})
	}
	t.Run("detection-disabled", func(t *testing.T) {
		runDifferentialScript(t, randChooser{rand.New(rand.NewSource(44))}, 120, true, rigFn)
	})
}

// FuzzDifferentialInterleavings lets the fuzzer drive the op selection
// directly; any decision divergence between the fast-path and reference
// runtimes, or any refresh that disagrees with the from-scratch oracle
// after a hot-swap, fails the run. Input length mod 2 picks the
// reference: 0 compares sharded vs the all-slow reference, 1 vs the
// global-mutex matched path.
func FuzzDifferentialInterleavings(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 9, 9, 9, 8, 8, 6, 6, 1, 3, 5, 7})
	f.Add([]byte{4, 4, 4, 4, 8, 9, 2, 2, 6, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		rigFn := newDiffRig
		if len(data)%2 == 1 {
			rigFn = newDiffRigGlobal
		}
		runDifferentialScript(t, &byteChooser{data: data}, 60, false, rigFn)
	})
}
