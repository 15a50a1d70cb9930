package dimmunix

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/sig"
	"communix/internal/stacktrace"
)

// ThreadID identifies a thread (a goroutine, for native use).
type ThreadID uint64

// LockID identifies a lock within one Runtime.
type LockID uint64

// Errors returned by Acquire.
var (
	// ErrDeadlock reports that this acquisition closed a wait-for cycle
	// and the RecoverBreak policy denied it. The paper's Dimmunix leaves
	// the program deadlocked (the user restarts it); RecoverBreak is the
	// cheap equivalent for workloads and tests, modelling the restart as
	// a failed acquisition the caller backs out of.
	ErrDeadlock = errors.New("dimmunix: acquisition would deadlock (signature recorded)")
	// ErrClosed reports that the runtime was shut down while the caller
	// was blocked.
	ErrClosed = errors.New("dimmunix: runtime closed")
	// ErrNotOwner reports a release of a lock the thread does not hold.
	ErrNotOwner = errors.New("dimmunix: release by non-owner")
)

// RecoveryPolicy selects what happens to the acquisition that closes a
// detected deadlock cycle.
type RecoveryPolicy int

// Policies.
const (
	// RecoverNone mirrors the paper: the deadlock is fingerprinted and the
	// threads stay blocked (a real deadlocked program hangs until
	// restarted). Close unblocks them with ErrClosed.
	RecoverNone RecoveryPolicy = iota + 1
	// RecoverBreak denies the cycle-closing acquisition with ErrDeadlock
	// after fingerprinting, letting workloads and tests continue.
	RecoverBreak
)

// Deadlock describes one detected deadlock.
type Deadlock struct {
	// Signature is the extracted fingerprint (outer + inner stacks).
	Signature *sig.Signature
	// Threads are the deadlocked threads, in cycle order.
	Threads []ThreadID
	// Known reports whether an identical signature was already in the
	// history (a reoccurrence avoidance failed to prevent, or avoidance
	// disabled).
	Known bool
}

// FalsePositiveWarning is emitted when a signature trips the §III-C1
// false-positive heuristic: at least 100 instantiations, no true
// positive, and some one-second interval with more than 10
// instantiations. The user (or embedding application) may then remove
// the signature from the history.
type FalsePositiveWarning struct {
	SigID          string
	Instantiations uint64
}

// Config parameterizes a Runtime.
type Config struct {
	// History is the deadlock history to avoid and extend. nil means a
	// fresh in-memory history.
	History *History
	// Policy selects deadlock recovery; default RecoverNone.
	Policy RecoveryPolicy
	// AvoidanceDisabled turns the avoidance module off (detection only) —
	// the "Dimmunix detection without immunity" baseline.
	AvoidanceDisabled bool
	// DetectionDisabled turns the detection module off (avoidance only).
	DetectionDisabled bool
	// OnDeadlock, if set, is called synchronously after a deadlock is
	// fingerprinted, before recovery applies. It runs with internal locks
	// dropped; implementations may call back into the History but must
	// not call Acquire/Release from the same goroutine.
	OnDeadlock func(Deadlock)
	// OnFalsePositive, if set, is called when a signature trips the
	// false-positive heuristic (once per signature per flagging).
	OnFalsePositive func(FalsePositiveWarning)
	// Clock injects time for the false-positive burst window; defaults to
	// time.Now. Tests use a fake clock.
	Clock func() time.Time
	// FastPathDisabled forces every acquisition through the global-mutex
	// slow path — the pre-fast-path reference semantics the differential
	// tests compare the fast path against.
	FastPathDisabled bool
	// ShardedAvoidanceDisabled forces every acquisition whose stack
	// matches the avoidance index through the global-mutex slow path, as
	// before the per-signature position shards — the matched-path
	// reference ("global" mode) the differential tests compare the
	// sharded matched path against. Unmatched acquisitions keep the
	// lock-free fast path.
	ShardedAvoidanceDisabled bool
}

// Runtime is one Dimmunix instance: a lock manager whose scheduling
// decisions implement deadlock avoidance, plus a wait-for-graph deadlock
// detector.
type Runtime struct {
	cfg     Config
	history *History
	capture *stacktrace.Cache

	mu         sync.Mutex
	threads    map[ThreadID]*threadState
	yielders   map[ThreadID]*yielder
	nextLockID atomic.Uint64

	// applied is the index the position table reflects: every shard
	// holds exactly the positions applied matches. Guarded by rt.mu;
	// starts at emptyIndex.
	applied *AvoidIndex
	// histVer is applied's version. Written only at the *end* of
	// refreshPositionsLocked (under rt.mu); read lock-free by the matched
	// fast path, which may only trust the shards when histVer equals its
	// claim-time index version — anything else means a refresh is
	// pending or mid-flight and the slow path must run it first.
	histVer atomic.Uint64

	// shards is the per-signature position table (see shard.go): one
	// sigShard per live signature instance (the history's stable
	// normalized instance — instance identity is signature identity),
	// created on demand, pruned of removed signatures by
	// refreshPositionsLocked. A sync.Map keyed by *sig.Signature: the
	// matched fast path resolves its shard with one lock-free
	// pointer-keyed load. Each shard's state is guarded by its own
	// mutex, taken after rt.mu on the slow path.
	shards sync.Map // *sig.Signature → *sigShard

	// closed is written under rt.mu (Close) but read lock-free by the
	// acquisition fast path.
	closed atomic.Bool

	// locks lists the runtime's registered locks, so a history change can
	// sweep live fast-path holds into the slow path
	// (refreshPositionsLocked). Guarded by locksMu, not rt.mu, keeping
	// lock registration off the global mutex. The slice is only ever
	// appended to or wholesale replaced (pruneLocksLocked), so readers
	// may iterate a snapshot of it outside locksMu. Free fast-mode locks
	// are pruned once the list doubles — they hold no state the sweep
	// needs, and they re-register on their next acquisition — bounding
	// the registry by the number of locks in use rather than the number
	// ever created.
	locksMu      sync.Mutex
	locks        []*Lock
	locksPruneAt int

	fp *fpDetector

	stats counters

	// refreshes counts history refreshes and refreshNanos accumulates the
	// time spent in them. Kept out of Stats — they describe the refresh,
	// not lock-manager events — and read via RefreshCounts/RefreshNanos
	// by tests and the benchmark.
	refreshes    atomic.Uint64
	refreshNanos atomic.Int64

	// afterAvoidHook, when set by a test, runs in acquireSlow under rt.mu
	// once avoidance has let the acquisition through and before it is
	// granted or queued — the window the slot registration must not
	// leave open.
	afterAvoidHook func(tid ThreadID)
}

// Stats counts runtime events; retrieved via Runtime.Stats.
type Stats struct {
	Acquisitions   uint64 // successful lock grants
	Contended      uint64 // grants that had to queue first
	Yields         uint64 // avoidance suspensions
	Deadlocks      uint64 // detected deadlocks
	AvoidanceBreak uint64 // forced proceeds to break avoidance cycles
}

// counters is the runtime-internal, atomically updated form of Stats:
// the fast path increments without rt.mu, and Stats() reads without
// blocking the lock manager.
type counters struct {
	acquisitions   atomic.Uint64
	contended      atomic.Uint64
	yields         atomic.Uint64
	deadlocks      atomic.Uint64
	avoidanceBreak atomic.Uint64
}

// slotKey names one signature slot a hold or wait occupies, carrying
// the owning shard directly so unregistration needs no table probe. A
// key can outlive its shard's table membership (signature removed); the
// dead shard object stays valid and empty, so late drops are no-ops.
type slotKey struct {
	shard *sigShard
	slot  int
}

// threadState tracks one thread's held locks and blocking state.
type threadState struct {
	id   ThreadID
	held []*heldLock
	// wait is non-nil while the thread is queued on a lock.
	wait *waiter
}

// heldLock is one acquired lock with its acquisition (outer) stack.
type heldLock struct {
	lock  *Lock
	outer sig.Stack
	slots []slotKey // signature slots this hold occupies
}

// waiter is a thread queued on a lock.
type waiter struct {
	thread ThreadID
	lock   *Lock
	stack  sig.Stack
	slots  []slotKey
	grant  chan error // buffered(1): grant or denial
	// notified guards against double notification (grant racing a
	// deadlock denial or Close); set under rt.mu before the single send.
	notified bool
}

// notifyLocked delivers the waiter's verdict exactly once.
func notifyLocked(w *waiter, err error) bool {
	if w.notified {
		return false
	}
	w.notified = true
	w.grant <- err
	return true
}

// yielder is a thread suspended by the avoidance module. It is
// registered both in rt.yielders (cycle resolution, global wakes,
// Close) and in the shard of every signature its stack matches (so a
// matched fast release can wake it without rt.mu).
type yielder struct {
	thread ThreadID
	// blockers are the threads occupying the other slots of the
	// signature(s) whose instantiation this thread would complete.
	blockers map[ThreadID]struct{}
	wake     chan struct{} // buffered(1)
	// proceed forces the thread past avoidance (avoidance-cycle breaker).
	// Written and read under rt.mu only.
	proceed bool
	// woken records that a wake was delivered: the yielder is
	// re-evaluating, not durably parked. Atomic because wakers run under
	// rt.mu or under a shard lock while readers (test instrumentation)
	// hold rt.mu only. A thread that yields again does so under a fresh
	// yielder value.
	woken atomic.Bool
}

// wakeYielder delivers a wake to y exactly once per park. Callers hold
// rt.mu or the shard lock y is registered under.
func wakeYielder(y *yielder) {
	y.woken.Store(true)
	select {
	case y.wake <- struct{}{}:
	default:
	}
}

// Lock is a mutex managed by a Runtime. Create with NewLock; acquire and
// release through the Runtime (or wrap in a Mutex for native use). Locks
// are reentrant, like Java monitors.
type Lock struct {
	id   LockID
	name string

	// fast is the lock-free fast-path word, fastOuter the published
	// hold's outer stack, and fastSlots the signature slots a published
	// *matched* hold occupies (empty for unmatched holds); see
	// fastpath.go for the protocol. Both plain fields are written by the
	// word owner between the claiming CAS and the publishing store (or,
	// for fastSlots, cleared before the releasing CAS), so the word
	// protocol orders every access. The remaining fields are slow-path
	// state, guarded by rt.mu and meaningful only while fast carries the
	// slow bit.
	fast      atomic.Uint64
	fastOuter sig.Stack
	fastSlots []slotKey
	// fastTop is frameFilterKey of the published hold's outer top frame
	// (0 for an empty stack), stored between the claiming CAS and the
	// publishing store. The incremental refresh sweep reads it atomically
	// to skip fast holds whose top site cannot match any added signature
	// — a torn read of fastOuter itself would be unsafe without
	// revocation. Staleness is harmless: a hold published after the new
	// index pointer re-validates and retreats on its own, and a hash
	// collision only costs a spurious (correct) revocation.
	fastTop atomic.Uint64
	// registered tracks membership in the runtime's lock registry (the
	// history-refresh sweep's work list); cleared when the registry
	// prunes a free lock, re-set by the lock's next acquisition.
	registered atomic.Bool
	// slowKeeps counts consecutive registry prunes that kept this lock
	// only because it sat in slow mode (word == fastSlowBit) — the
	// age/generation heuristic that lets the prune eventually drop
	// discarded slow-parked locks instead of rescanning them on every
	// trigger. Guarded by rt.locksMu.
	slowKeeps int

	owner     ThreadID
	ownerHold *heldLock
	recursion int
	queue     []*waiter
}

// NewRuntime builds a runtime from the config.
func NewRuntime(cfg Config) *Runtime {
	if cfg.History == nil {
		cfg.History = NewHistory()
	}
	if cfg.Policy == 0 {
		cfg.Policy = RecoverNone
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	rt := &Runtime{
		cfg:      cfg,
		history:  cfg.History,
		capture:  stacktrace.NewCache(stacktrace.NewRegistry()),
		applied:  emptyIndex,
		threads:  make(map[ThreadID]*threadState),
		yielders: make(map[ThreadID]*yielder),
	}
	rt.fp = newFPDetector(cfg.Clock, cfg.OnFalsePositive)
	return rt
}

// History returns the runtime's deadlock history.
func (rt *Runtime) History() *History { return rt.history }

// Stats returns a snapshot of runtime event counters. It reads atomic
// counters and never blocks the lock manager, so it is safe to poll from
// monitoring loops.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Acquisitions:   rt.stats.acquisitions.Load(),
		Contended:      rt.stats.contended.Load(),
		Yields:         rt.stats.yields.Load(),
		Deadlocks:      rt.stats.deadlocks.Load(),
		AvoidanceBreak: rt.stats.avoidanceBreak.Load(),
	}
}

// NewLock creates a lock. The name is used in diagnostics only.
func (rt *Runtime) NewLock(name string) *Lock {
	l := &Lock{id: LockID(rt.nextLockID.Add(1)), name: name}
	rt.registerLock(l)
	return l
}

// lockRegistryFloor is the registry size below which pruning is not
// attempted.
const lockRegistryFloor = 1024

// registerLock puts l into the lock registry (idempotent), pruning
// discarded locks when the registry has doubled since the last prune.
func (rt *Runtime) registerLock(l *Lock) {
	rt.locksMu.Lock()
	if !l.registered.Load() {
		rt.locks = append(rt.locks, l)
		l.registered.Store(true)
		l.slowKeeps = 0
		if rt.locksPruneAt == 0 {
			rt.locksPruneAt = lockRegistryFloor
		}
		if len(rt.locks) >= rt.locksPruneAt {
			rt.pruneLocksLocked()
		}
	}
	rt.locksMu.Unlock()
}

// lockSlowKeepGenerations is how many consecutive prunes may keep a
// lock that shows nothing but slow mode before the prune drops it as
// cold (see pruneLocksLocked).
const lockSlowKeepGenerations = 2

// pruneLocksLocked drops registry entries for locks that are free in
// fast mode: they hold nothing the history-refresh sweep could need. A
// pruned lock is no longer fast-eligible (fastAcquire refuses on the
// cleared flag); its next acquisition goes through the slow path once,
// and maybeRestoreFastLocked re-registers it. Locks with fast-word
// activity (fast-held, publishing) are kept — their state cannot be
// inspected safely here.
//
// Slow-managed locks (word == fastSlowBit) age out instead of being
// kept forever: under a high lock discard rate, an application that
// churns locks through one contended burst and drops them would
// otherwise leave the prune re-walking and keeping every such lock on
// every trigger. A lock kept only for its slow word through
// lockSlowKeepGenerations consecutive prunes is dropped: everything the
// refresh needs about a slow lock lives in the thread table, its
// release path re-registers it via maybeRestoreFastLocked, and the only
// thing lost is the refresh sweep's courtesy restore — which a lock
// nobody touches again never needed. Caller holds locksMu.
//
// The deregister-then-inspect order pairs with fastAcquire's
// claim-then-recheck: both sides use sequentially consistent atomics,
// so either the prune observes the claimed word (and keeps the lock)
// or the acquirer observes the cleared flag (and aborts its claim).
func (rt *Runtime) pruneLocksLocked() {
	kept := make([]*Lock, 0, len(rt.locks)/2)
	for _, l := range rt.locks {
		l.registered.Store(false)
		w := l.fast.Load()
		if w == 0 {
			continue // free in fast mode: drop
		}
		if w == fastSlowBit {
			if l.slowKeeps >= lockSlowKeepGenerations {
				l.slowKeeps = 0
				continue // cold slow-parked lock: drop instead of rescanning
			}
			l.slowKeeps++
		} else {
			l.slowKeeps = 0
		}
		l.registered.Store(true)
		kept = append(kept, l)
	}
	rt.locks = kept
	rt.locksPruneAt = 2 * len(kept)
	if rt.locksPruneAt < lockRegistryFloor {
		rt.locksPruneAt = lockRegistryFloor
	}
}

// Close shuts the runtime down: every blocked or yielding thread is
// released with ErrClosed, and future acquisitions fail with ErrClosed.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed.Load() {
		rt.mu.Unlock()
		return
	}
	rt.closed.Store(true)
	for _, ts := range rt.threads {
		if ts.wait != nil {
			notifyLocked(ts.wait, ErrClosed)
		}
	}
	for _, y := range rt.yielders {
		wakeYielder(y)
	}
	rt.mu.Unlock()
}

// thread returns (creating if needed) the state for tid. Caller holds rt.mu.
func (rt *Runtime) thread(tid ThreadID) *threadState {
	ts, ok := rt.threads[tid]
	if !ok {
		ts = &threadState{id: tid}
		rt.threads[tid] = ts
	}
	return ts
}

// Acquire requests lock l for thread tid, with cs as the thread's current
// call stack (which becomes the outer stack of the hold). It blocks while
// the avoidance module predicts a signature instantiation (§II-A), then
// while the lock is owned. It returns nil on acquisition, ErrDeadlock if
// this acquisition closed a detected cycle under RecoverBreak, or
// ErrClosed after Close.
//
// An acquisition whose stack matches no history signature, on a lock
// that is free (or already fast-held by tid), completes on the lock-free
// fast path; everything else — contention, an avoidance-index match,
// shutdown — takes the global-mutex slow path below.
func (rt *Runtime) Acquire(tid ThreadID, l *Lock, cs sig.Stack) error {
	if l == nil {
		return fmt.Errorf("dimmunix: acquire nil lock")
	}
	// tid 0 means "no owner" to the slow path's bookkeeping; keep such
	// (malformed) callers off the fast path so they fail the same way
	// they always did.
	if tid != 0 && !rt.cfg.FastPathDisabled {
		granted, carry := rt.fastAcquire(tid, l, cs)
		if granted {
			return nil
		}
		return rt.acquireSlow(tid, l, cs, carry)
	}
	return rt.acquireSlow(tid, l, cs, nil)
}

// acquireSlow is the original global-mutex acquisition path: avoidance,
// queueing, and detection under rt.mu. It also serves as the semantic
// reference the fast path is differentially tested against
// (Config.FastPathDisabled). carry, when non-nil, is a threat evaluation
// the matched fast path already performed (with its yielder registered
// in the matched shards); avoidLocked adopts it if still valid, and any
// exit that cannot reach avoidLocked must drop it.
func (rt *Runtime) acquireSlow(tid ThreadID, l *Lock, cs sig.Stack, carry *threatCarry) error {
	rt.mu.Lock()
	if rt.closed.Load() {
		rt.dropCarriedYielder(tid, carry)
		rt.mu.Unlock()
		return ErrClosed
	}
	rt.refreshPositionsLocked()
	// The slow path owns the lock's queue and owner fields: pull the lock
	// out of fast mode, importing any fast hold, before reading them.
	rt.revokeLocked(l)

	// Reentrant fast path.
	if l.owner == tid {
		rt.dropCarriedYielder(tid, carry)
		l.recursion++
		rt.mu.Unlock()
		return nil
	}

	// Avoidance: suspend while granting would let a history signature
	// instantiate. From here on (tid, l, cs) occupies its signature slots
	// (keys), which pass to the hold or the waiter below under this same
	// rt.mu critical section.
	var keys []slotKey
	if rt.cfg.AvoidanceDisabled {
		rt.dropCarriedYielder(tid, carry)
		keys = rt.registerPositions(tid, l, cs)
	} else {
		var err error
		if keys, err = rt.avoidLocked(tid, l, cs, carry); err != nil {
			rt.mu.Unlock()
			return err
		}
		if rt.afterAvoidHook != nil {
			rt.afterAvoidHook(tid)
		}
		if rt.closed.Load() {
			rt.unregisterPositions(tid, l, keys)
			rt.mu.Unlock()
			return ErrClosed
		}
		// avoidLocked may have released rt.mu while yielding; the lock can
		// have been restored to fast mode by a release in that window.
		rt.revokeLocked(l)
	}

	ts := rt.thread(tid)

	// Fast path: free lock.
	if l.owner == 0 && len(l.queue) == 0 {
		rt.grantLocked(ts, l, cs, keys)
		rt.stats.acquisitions.Add(1)
		rt.mu.Unlock()
		return nil
	}

	// Queue as a waiter; its slots are occupied already ("hold or are
	// block waiting", §II-A).
	w := &waiter{thread: tid, lock: l, stack: cs, slots: keys, grant: make(chan error, 1)}
	l.queue = append(l.queue, w)
	ts.wait = w
	rt.stats.contended.Add(1)

	// Detection: does this wait close a cycle?
	var dl *Deadlock
	if !rt.cfg.DetectionDisabled {
		if cycle := rt.findCycleLocked(tid); cycle != nil {
			dl = rt.buildDeadlockLocked(cycle)
			if dl != nil {
				rt.stats.deadlocks.Add(1)
				if !dl.Known {
					rt.history.Add(dl.Signature)
				}
				if rt.cfg.Policy == RecoverBreak {
					notifyLocked(w, ErrDeadlock)
				}
			}
		}
	}
	// This wait may also have closed a mixed wait+yield cycle; break it by
	// forcing a yielder through.
	rt.resolveAvoidanceCyclesLocked()
	rt.mu.Unlock()
	if dl != nil && rt.cfg.OnDeadlock != nil {
		rt.cfg.OnDeadlock(*dl)
	}

	err := <-w.grant

	rt.mu.Lock()
	ts.wait = nil
	if err != nil {
		// Denied (deadlock break or close): withdraw from the queue and
		// drop the waiter's slot registrations.
		rt.removeWaiterLocked(l, w)
		rt.unregisterPositions(tid, l, w.slots)
		rt.wakeYieldersLocked()
		rt.maybeRestoreFastLocked(l)
	}
	rt.reapThreadLocked(ts)
	rt.mu.Unlock()
	return err
}

// reapThreadLocked drops bookkeeping for threads holding nothing and
// waiting on nothing, keeping the thread table bounded under churny
// goroutine workloads.
func (rt *Runtime) reapThreadLocked(ts *threadState) {
	if len(ts.held) == 0 && ts.wait == nil {
		delete(rt.threads, ts.id)
	}
}

// Release releases lock l held by tid. Reentrant holds unwind before the
// lock is handed to the next waiter. A fast-path hold is released with a
// single CAS; slow-managed locks go through rt.mu.
func (rt *Runtime) Release(tid ThreadID, l *Lock) error {
	if l == nil {
		return fmt.Errorf("dimmunix: release nil lock")
	}
	if tid != 0 && !rt.cfg.FastPathDisabled && rt.fastRelease(tid, l) {
		return nil
	}
	rt.mu.Lock()
	// Import a fast hold (ours or a wrong-owner caller's) so the check
	// below sees the true owner.
	rt.revokeLocked(l)
	if l.owner != tid {
		rt.maybeRestoreFastLocked(l)
		rt.mu.Unlock()
		return fmt.Errorf("%w: lock %q owned by %d, released by %d", ErrNotOwner, l.name, l.owner, tid)
	}
	if l.recursion > 0 {
		l.recursion--
		rt.mu.Unlock()
		return nil
	}

	ts := rt.thread(tid)
	// Drop the hold record and its slot registrations.
	for i, h := range ts.held {
		if h.lock == l {
			rt.unregisterPositions(tid, l, h.slots)
			ts.held = append(ts.held[:i], ts.held[i+1:]...)
			break
		}
	}
	l.owner = 0
	l.ownerHold = nil

	// Hand over to the next waiter, if any; a lock left free with no
	// waiters returns to the fast path.
	rt.promoteLocked(l)
	rt.maybeRestoreFastLocked(l)
	// State changed: yielding threads re-evaluate.
	rt.wakeYieldersLocked()
	rt.reapThreadLocked(ts)
	rt.mu.Unlock()
	return nil
}

// grantLocked makes tid the owner of l with outer stack cs, whose
// signature slots keys are already registered.
func (rt *Runtime) grantLocked(ts *threadState, l *Lock, cs sig.Stack, keys []slotKey) {
	h := &heldLock{lock: l, outer: cs, slots: keys}
	ts.held = append(ts.held, h)
	l.owner = ts.id
	l.ownerHold = h
	l.recursion = 0
}

// promoteLocked grants l to the first live waiter in its queue, skipping
// waiters already denied (deadlock break, shutdown).
func (rt *Runtime) promoteLocked(l *Lock) {
	for len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if w.notified {
			continue
		}
		ts := rt.thread(w.thread)
		// The waiter's slot registrations carry over to the hold.
		h := &heldLock{lock: l, outer: w.stack, slots: w.slots}
		ts.held = append(ts.held, h)
		l.owner = w.thread
		l.ownerHold = h
		l.recursion = 0
		rt.stats.acquisitions.Add(1)
		notifyLocked(w, nil)
		return
	}
}

// removeWaiterLocked deletes w from l's queue if still present.
func (rt *Runtime) removeWaiterLocked(l *Lock, w *waiter) {
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return
		}
	}
}

// refreshPositionsLocked brings the position table up to date with the
// current history (the Communix agent adds or merges signatures while
// the application runs). It runs under rt.mu before every avoidance
// decision, so no decision is ever made against a stale position table.
//
// The refresh applies the difference between the index the table
// reflects (rt.applied) and the current one: the signatures only the
// current index holds are added, those only the applied one holds are
// removed (applyDeltaLocked), and every other shard stays live with its
// yielders parked. The same step serves every gap — the first attach of
// a populated history, one pushed signature, a Replace, bulk ingestion,
// a runtime idle through many mutations.
//
// Ordering matters for the matched fast path racing a refresh: the
// Index() call below publishes the rebuilt index pointer *before* any
// shard is touched, and matchedFastAcquire re-reads that pointer inside
// its shard critical section — so a matched claim either registered
// before the refresh (its claiming CAS then precedes the lock sweep,
// which imports the hold under the new index) or observes the new
// pointer and retreats to the slow path. histVer is published last, so
// the matched fast path trusts the shards only once every refresh step
// is visible.
func (rt *Runtime) refreshPositionsLocked() {
	idx := rt.history.Index()
	if idx == rt.applied {
		return
	}
	t0 := time.Now()
	added, removed := indexDelta(rt.applied, idx)
	rt.applyDeltaLocked(idx, added, removed)
	rt.refreshes.Add(1)
	rt.refreshNanos.Add(time.Since(t0).Nanoseconds())
	rt.applied = idx
	rt.histVer.Store(idx.version)
}

// RefreshCounts reports how many history refreshes ran. Every refresh
// applies a delta, so full is always 0.
func (rt *Runtime) RefreshCounts() (delta, full uint64) {
	return rt.refreshes.Load(), 0
}

// RefreshNanos reports the cumulative time spent refreshing, the set
// difference included. full is always 0.
func (rt *Runtime) RefreshNanos() (delta, full int64) {
	return rt.refreshNanos.Load(), 0
}

// ResetRefreshStats zeroes the refresh counter and timing. Benchmarks
// call it after setup so the initial history attach — every signature
// added at once to a not-yet-representative runtime — does not pollute
// the measured refresh costs.
func (rt *Runtime) ResetRefreshStats() {
	rt.refreshes.Store(0)
	rt.refreshNanos.Store(0)
}

// applyDeltaLocked moves the position table from rt.applied to idx,
// which differ by exactly the (added, removed) signature instances, so
// only their state moves. Removed signatures' shards are cleared, their
// yielders woken, and the shards unlinked; existing holds and waits are
// registered against the added signatures only (an exact top-site probe
// makes non-matching threads O(1)); and the registry sweep imports only
// fast holds whose published top-site hash can match an added
// signature. Every other shard stays live, its positions intact and its
// yielders parked. Caller holds rt.mu and publishes histVer afterwards.
//
// Soundness: signature updates commute — positions of distinct
// signatures share no state, and a thread's match set against unchanged
// signatures is unchanged — so registering every hold and wait against
// only the added signatures, and dropping only the removed signatures'
// shards, reaches exactly the table a from-scratch registration against
// idx would. The order of the instances in added and removed carries
// nothing. TestDifferentialIncrementalRefreshDigest pins this against a
// from-scratch oracle.
func (rt *Runtime) applyDeltaLocked(idx *AvoidIndex, added, removed []*sig.Signature) {
	// 1. Removed signatures: clear and unlink their shards, waking the
	// yielders parked against them — their threat may be gone, and no
	// future release will route a wake to an unlinked shard. Stale slot
	// keys held by threads keep pointing at the dead shard objects;
	// dropping from a dead shard is a harmless no-op, and the add-scan
	// below filters them out when it walks the threads anyway.
	var dead map[*sigShard]struct{}
	for _, s := range removed {
		if v, ok := rt.shards.Load(s); ok {
			sh := v.(*sigShard)
			sh.mu.Lock()
			sh.slots = make(map[int]map[ThreadID]map[*Lock]struct{})
			sh.wakeYielders()
			sh.mu.Unlock()
			rt.shards.Delete(s)
			if dead == nil {
				dead = make(map[*sigShard]struct{}, len(removed))
			}
			dead[sh] = struct{}{}
		}
	}
	if len(added) == 0 {
		return
	}

	// 2. Added signatures: register existing slow-managed holds and
	// waits against them. addedSet identifies the new refs inside the
	// index's candidate groups; addedTops (exact top sites) rejects
	// non-matching stacks with one map probe, and addedTopHashes is the
	// atomic-read form the registry sweep below filters fast holds with.
	addedSet := make(map[*sig.Signature]struct{}, len(added))
	addedTops := make(map[topKey]struct{}, len(added)*2)
	addedTopHashes := make(map[uint64]struct{}, len(added)*2)
	for _, s := range added {
		addedSet[s] = struct{}{}
		for _, t := range s.Threads {
			top := t.Outer.Top()
			addedTops[topKeyOf(top)] = struct{}{}
			addedTopHashes[frameFilterKey(&top)] = struct{}{}
		}
	}
	appendAdded := func(tid ThreadID, l *Lock, cs sig.Stack, slots []slotKey) []slotKey {
		if len(dead) != 0 {
			kept := slots[:0]
			for _, k := range slots {
				if _, gone := dead[k.shard]; !gone {
					kept = append(kept, k)
				}
			}
			slots = kept
		}
		if len(cs) == 0 {
			return slots
		}
		top := cs.Top()
		if _, hit := addedTops[topKeyOf(top)]; !hit {
			return slots
		}
		for _, r := range idx.Candidates(cs) {
			if _, isNew := addedSet[r.Sig]; !isNew {
				continue
			}
			if !cs.HasSuffix(r.Sig.Threads[r.Slot].Outer) {
				continue
			}
			sh := rt.shardFor(r.Sig)
			sh.mu.Lock()
			sh.put(r.Slot, tid, l)
			sh.mu.Unlock()
			slots = append(slots, slotKey{shard: sh, slot: r.Slot})
		}
		return slots
	}
	for tid, ts := range rt.threads {
		for _, h := range ts.held {
			h.slots = appendAdded(tid, h.lock, h.outer, h.slots)
		}
		if ts.wait != nil {
			ts.wait.slots = appendAdded(tid, ts.wait.lock, ts.wait.stack, ts.wait.slots)
		}
	}

	// 3. Sweep the lock registry, filtered: only a fast hold whose
	// published top-site hash appears among the added signatures' top
	// sites can newly occupy a slot, so everything else is one atomic
	// load. Free slow-mode locks are restored unconditionally —
	// restoration is what lets the prune drop discarded locks
	// (TestRefreshRestoresAndPrunesFreeSlowLocks).
	rt.locksMu.Lock()
	locks := rt.locks // append-only: the prefix we iterate is immutable
	rt.locksMu.Unlock()
	restored := 0
	sweep := func(l *Lock, w uint64) {
		switch {
		case w != 0 && w&fastSlowBit == 0:
			if _, hit := addedTopHashes[l.fastTop.Load()]; hit {
				rt.revokeLocked(l)
			}
		case w == fastSlowBit:
			rt.maybeRestoreFastLocked(l)
			if l.fast.Load() == 0 {
				restored++
			}
		}
	}
	// Two passes: a claim mid-publish must be waited out before its
	// fastTop is readable (the claim may have validated against the old
	// index), but yielding to it inline parks this sweep behind every
	// runnable goroutine. Defer pending words and settle them after the
	// rest of the registry — their nanosecond-scale publish windows have
	// closed by then, so the second pass almost never spins.
	var pendingLocks []*Lock
	for _, l := range locks {
		w := l.fast.Load()
		if w&fastPendingBit != 0 && w&fastSlowBit == 0 {
			pendingLocks = append(pendingLocks, l)
			continue
		}
		sweep(l, w)
	}
	for _, l := range pendingLocks {
		w := l.fast.Load()
		for w&fastPendingBit != 0 && w&fastSlowBit == 0 {
			runtime.Gosched()
			w = l.fast.Load()
		}
		sweep(l, w)
	}
	if restored > 0 {
		rt.locksMu.Lock()
		if len(rt.locks) >= lockRegistryFloor {
			rt.pruneLocksLocked()
		}
		rt.locksMu.Unlock()
	}

	// 4. Wake only the yielders parked in the changed shards: removed
	// ones were woken in step 1; added signatures' shards are fresh (a
	// yielder cannot be parked under a shard that did not exist when it
	// parked, so there is nothing to wake there). Yielders elsewhere
	// keep sleeping — their signatures' positions did not change, so
	// their threat verdicts still hold.

	// Re-unlink any removed shard a concurrent matched claim resurrected
	// via shardFor's LoadOrStore between our pre-validation window and
	// now: the claim itself aborts (it re-reads the index pointer inside
	// its shard critical section), but the empty shard object would
	// linger in the table.
	for _, s := range removed {
		rt.shards.Delete(s)
	}
}
