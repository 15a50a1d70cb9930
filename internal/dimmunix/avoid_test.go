package dimmunix

import (
	"errors"
	"testing"

	"communix/internal/sig"
)

// TestAvoidanceImmunizesAgainstKnownDeadlock is the core Dimmunix
// property: once a deadlock's signature is in the history, replaying the
// same execution flow no longer deadlocks — the avoidance module
// serializes the threads instead.
func TestAvoidanceImmunizesAgainstKnownDeadlock(t *testing.T) {
	ps := newPairStacks()
	history := NewHistory()
	if !history.Add(ps.signature()) {
		t.Fatal("seeding history failed")
	}

	deadlocks := 0
	rt := NewRuntime(Config{
		History:    history,
		Policy:     RecoverBreak,
		OnDeadlock: func(Deadlock) { deadlocks++ },
	})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")

	// Deterministic replay of the dangerous flow:
	// t1 takes A at the signature's first outer stack.
	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatalf("t1 outer: %v", err)
	}
	// t2's acquisition of B at the second outer stack would complete the
	// instantiation; the avoidance module must suspend it.
	t2done := make(chan error, 1)
	go func() {
		err := rt.Acquire(2, b, ps.outerB)
		if err == nil {
			if err2 := rt.Acquire(2, a, ps.innerBA); err2 == nil {
				_ = rt.Release(2, a)
			} else {
				err = err2
			}
			_ = rt.Release(2, b)
		}
		t2done <- err
	}()
	eventually(t, func() bool { return rt.Stats().Yields >= 1 }, "t2 suspended by avoidance")

	// t1 proceeds through the critical section unharmed: B is free
	// because t2 was held back.
	if err := rt.Acquire(1, b, ps.innerAB); err != nil {
		t.Fatalf("t1 inner: %v", err)
	}
	if err := rt.Release(1, b); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}

	// t2 resumes and completes.
	if err := waitErr(t, t2done, "thread 2"); err != nil {
		t.Fatalf("t2: %v", err)
	}
	if deadlocks != 0 {
		t.Errorf("deadlocks = %d, want 0 (immunity)", deadlocks)
	}
	if got := rt.Stats().Yields; got < 1 {
		t.Errorf("yields = %d, want >= 1", got)
	}
}

// TestAvoidanceRequiresFullSuffixMatch: stacks that reach the same locks
// through different call paths do not match the signature and are not
// serialized (this is why generalization matters, §III-D).
func TestAvoidanceRequiresFullSuffixMatch(t *testing.T) {
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())

	rt := NewRuntime(Config{History: history, Policy: RecoverBreak})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")

	// Different caller chains, same top sites.
	otherA := mkStack("OTHER1", "siteA", 6)
	otherB := mkStack("OTHER2", "siteB", 6)

	if err := rt.Acquire(1, a, otherA); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, b, otherB) }()
	if err := waitErr(t, done, "t2 outer"); err != nil {
		t.Fatalf("t2 should not be suspended: %v", err)
	}
	if got := rt.Stats().Yields; got != 0 {
		t.Errorf("yields = %d, want 0 (no suffix match)", got)
	}
	_ = rt.Release(2, b)
	_ = rt.Release(1, a)
}

// TestAvoidanceGeneralizedSignatureCoversAllManifestations: after merging
// to top-frames-only (depth 1), any call path into the sites is
// serialized.
func TestAvoidanceGeneralizedSignatureCoversAllManifestations(t *testing.T) {
	ps := newPairStacks()
	general := sig.New(
		sig.ThreadSpec{Outer: ps.outerA.Suffix(1), Inner: ps.innerAB.Suffix(1)},
		sig.ThreadSpec{Outer: ps.outerB.Suffix(1), Inner: ps.innerBA.Suffix(1)},
	)
	history := NewHistory()
	history.Add(general)

	rt := NewRuntime(Config{History: history, Policy: RecoverBreak})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")

	if err := rt.Acquire(1, a, mkStack("ANY1", "siteA", 9)); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := rt.Acquire(2, b, mkStack("ANY2", "siteB", 9)); err == nil {
			_ = rt.Release(2, b)
		}
	}()
	eventually(t, func() bool { return rt.Stats().Yields >= 1 }, "generalized signature matched")
	_ = rt.Release(1, a)
}

// TestAvoidanceCycleBroken: when avoidance itself would deadlock (a
// yielder blocks the thread it waits on), the cycle is detected over the
// combined graph and one yielder is forced through.
func TestAvoidanceCycleBroken(t *testing.T) {
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())

	rt := NewRuntime(Config{History: history, Policy: RecoverBreak})
	defer rt.Close()
	a := rt.NewLock("A")
	b := rt.NewLock("B")
	c := rt.NewLock("C")

	// t2 holds C.
	if err := rt.Acquire(2, c, mkStack("T2", "siteC", 5)); err != nil {
		t.Fatal(err)
	}
	// t1 holds A at the signature's first outer stack.
	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}
	// t2 tries B at the second outer stack -> yields on t1.
	t2done := make(chan error, 1)
	go func() {
		err := rt.Acquire(2, b, ps.outerB)
		if err == nil {
			_ = rt.Release(2, b)
		}
		_ = rt.Release(2, c)
		t2done <- err
	}()
	eventually(t, func() bool { return rt.Stats().Yields >= 1 }, "t2 yields")

	// t1 now waits for C (held by t2): wait edge t1->t2 plus yield edge
	// t2->t1 closes a mixed cycle; the runtime must force t2 through
	// rather than hang both.
	t1done := make(chan error, 1)
	go func() {
		err := rt.Acquire(1, c, mkStack("T1", "siteC2", 5))
		if err == nil {
			_ = rt.Release(1, c)
		}
		_ = rt.Release(1, a)
		t1done <- err
	}()

	if err := waitErr(t, t2done, "t2 (forced through avoidance)"); err != nil {
		t.Fatalf("t2: %v", err)
	}
	if err := waitErr(t, t1done, "t1"); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if got := rt.Stats().AvoidanceBreak; got < 1 {
		t.Errorf("AvoidanceBreak = %d, want >= 1", got)
	}
}

// TestAvoidancePicksUpHistoryChanges: signatures added while the
// application runs (by the Communix agent) take effect on the next
// acquisition without restarting the runtime.
func TestAvoidancePicksUpHistoryChanges(t *testing.T) {
	ps := newPairStacks()
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")

	// Take and release once with an empty history: no yields.
	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}

	// Agent installs the signature mid-run.
	rt.History().Add(ps.signature())

	// The already-held lock must now occupy its slot (positions refresh),
	// so t2's matching acquisition yields.
	go func() {
		if err := rt.Acquire(2, b, ps.outerB); err == nil {
			_ = rt.Release(2, b)
		}
	}()
	eventually(t, func() bool { return rt.Stats().Yields >= 1 }, "yield after live history update")
	_ = rt.Release(1, a)
}

// TestAvoidanceDisabled: the deadlock happens even with the signature in
// the history.
func TestAvoidanceDisabled(t *testing.T) {
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())
	deadlocks := 0
	rt := NewRuntime(Config{
		History:           history,
		AvoidanceDisabled: true,
		Policy:            RecoverBreak,
		OnDeadlock:        func(Deadlock) { deadlocks++ },
	})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")
	err1, err2 := deadlockPair(t, rt, a, b, ps)
	if !errors.Is(err1, ErrDeadlock) && !errors.Is(err2, ErrDeadlock) {
		t.Error("deadlock should occur with avoidance disabled")
	}
	if deadlocks != 1 {
		t.Errorf("deadlocks = %d, want 1", deadlocks)
	}
}

// TestAvoidanceThreeSlotSignature: a three-thread signature requires all
// other slots occupied before suspending.
func TestAvoidanceThreeSlotSignature(t *testing.T) {
	outs := []sig.Stack{
		mkStack("X0", "s0", 5), mkStack("X1", "s1", 5), mkStack("X2", "s2", 5),
	}
	ins := []sig.Stack{
		mkStack("X0", "i0", 5), mkStack("X1", "i1", 5), mkStack("X2", "i2", 5),
	}
	s := sig.New(
		sig.ThreadSpec{Outer: outs[0], Inner: ins[0]},
		sig.ThreadSpec{Outer: outs[1], Inner: ins[1]},
		sig.ThreadSpec{Outer: outs[2], Inner: ins[2]},
	)
	history := NewHistory()
	history.Add(s)
	rt := NewRuntime(Config{History: history, Policy: RecoverBreak})
	defer rt.Close()

	l0, l1, l2 := rt.NewLock("L0"), rt.NewLock("L1"), rt.NewLock("L2")

	// Only one slot occupied: no suspension for the second.
	if err := rt.Acquire(1, l0, outs[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, l1, outs[1]) }()
	if err := waitErr(t, done, "slot 2 with only one occupied"); err != nil {
		t.Fatalf("two slots occupied must not suspend: %v", err)
	}
	if rt.Stats().Yields != 0 {
		t.Fatalf("yields = %d, want 0", rt.Stats().Yields)
	}

	// Third matching acquisition completes the set: must yield.
	go func() {
		if err := rt.Acquire(3, l2, outs[2]); err == nil {
			_ = rt.Release(3, l2)
		}
	}()
	eventually(t, func() bool { return rt.Stats().Yields >= 1 }, "third slot suspended")

	_ = rt.Release(2, l1)
	_ = rt.Release(1, l0)
}

// TestAvoidanceDistinctLocksRequired: the same lock cannot occupy two
// slots, so two threads locking the *same* lock at both signature sites
// is not an instantiation threat.
func TestAvoidanceDistinctLocksRequired(t *testing.T) {
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())
	rt := NewRuntime(Config{History: history, Policy: RecoverBreak})
	defer rt.Close()
	shared := rt.NewLock("shared")

	if err := rt.Acquire(1, shared, ps.outerA); err != nil {
		t.Fatal(err)
	}
	// t2 acquires the same lock at the other slot's stack: it will queue
	// (lock busy) but must not yield first — the threat requires distinct
	// locks.
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, shared, ps.outerB) }()
	eventually(t, func() bool { return rt.Stats().Contended >= 1 }, "t2 queued")
	if rt.Stats().Yields != 0 {
		t.Errorf("yields = %d, want 0 (same lock cannot instantiate)", rt.Stats().Yields)
	}
	_ = rt.Release(1, shared)
	if err := waitErr(t, done, "t2"); err != nil {
		t.Fatal(err)
	}
	_ = rt.Release(2, shared)
}

// TestSlowGrantClosesCheckRegisterWindow: the slow path must occupy its
// signature slots inside the shard critical section that found no
// threat. The hook runs in the window the registration used to leave
// open — avoidance has let t1 through, the grant has not happened — and
// tries t2's matched fast acquisition of the signature's other slot
// there. It must see t1's position and retreat; a fast grant would leave
// both outer locks held and the signature instantiated.
func TestSlowGrantClosesCheckRegisterWindow(t *testing.T) {
	ps := newPairStacks()
	h := NewHistory()
	h.Add(ps.signature())
	rt := warmedRuntime(t, h, ps.outerA, nil)
	a, b := rt.NewLock("A"), rt.NewLock("B")

	var hooked, granted bool
	rt.afterAvoidHook = func(tid ThreadID) {
		if tid != 1 || hooked {
			return
		}
		hooked = true
		granted = rt.fastAcquire(2, b, ps.outerB)
	}
	if err := rt.acquireSlow(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}
	rt.afterAvoidHook = nil
	if !hooked {
		t.Fatal("the hook never ran")
	}
	if granted {
		t.Fatal("t2 was fast-granted between t1's threat check and its slot registration: both outer slots held")
	}
	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}
	if n := rt.positionCount(); n != 0 {
		t.Errorf("positions leaked: %d", n)
	}
}

// TestSlowExitWithoutGrantDropsSlots: the slots avoidance registered
// are in place before the grant, and an acquisition refused after
// avoidance passed (the runtime closed in that window) unregisters them.
func TestSlowExitWithoutGrantDropsSlots(t *testing.T) {
	ps := newPairStacks()
	h := NewHistory()
	h.Add(ps.signature())
	rt := warmedRuntime(t, h, ps.outerA, nil)
	a := rt.NewLock("A")
	n := -1
	rt.afterAvoidHook = func(ThreadID) {
		n = rt.positionCount()
		rt.closed.Store(true)
	}
	if err := rt.acquireSlow(1, a, ps.outerA); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquireSlow = %v, want ErrClosed", err)
	}
	if n != 1 {
		t.Errorf("positions between check and grant = %d, want 1", n)
	}
	if got := rt.positionCount(); got != 0 {
		t.Errorf("positions after the refused acquisition = %d, want 0", got)
	}
}
