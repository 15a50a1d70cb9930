package dimmunix

import (
	"errors"
	"sync"
	"testing"

	"communix/internal/sig"
)

func TestDetectTwoThreadDeadlock(t *testing.T) {
	var mu sync.Mutex
	var events []Deadlock
	rt := NewRuntime(Config{
		Policy: RecoverBreak,
		OnDeadlock: func(d Deadlock) {
			mu.Lock()
			events = append(events, d)
			mu.Unlock()
		},
	})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")
	ps := newPairStacks()

	err1, err2 := deadlockPair(t, rt, a, b, ps)

	// Exactly one thread closed the cycle and was denied.
	broke1 := errors.Is(err1, ErrDeadlock)
	broke2 := errors.Is(err2, ErrDeadlock)
	if broke1 == broke2 {
		t.Fatalf("exactly one thread should see ErrDeadlock; got %v / %v", err1, err2)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("deadlock events = %d, want 1", len(events))
	}
	d := events[0]
	if d.Known {
		t.Error("first occurrence should not be Known")
	}
	if len(d.Threads) != 2 {
		t.Errorf("cycle threads = %v, want 2", d.Threads)
	}
	if err := d.Signature.Valid(); err != nil {
		t.Fatalf("extracted signature invalid: %v", err)
	}
	// The signature must be the canonical pair signature: outer stacks at
	// siteA/siteB, inner at siteAB/siteBA.
	want := ps.signature()
	if d.Signature.BugKey() != want.BugKey() {
		t.Errorf("signature bug key mismatch:\n got %s\nwant %s", d.Signature.BugKey(), want.BugKey())
	}
	if !d.Signature.Equal(want) {
		t.Errorf("signature mismatch:\n got %v\nwant %v", d.Signature, want)
	}

	if rt.History().Len() != 1 {
		t.Errorf("history length = %d, want 1 (signature persisted)", rt.History().Len())
	}
	if got := rt.Stats().Deadlocks; got != 1 {
		t.Errorf("stats.Deadlocks = %d, want 1", got)
	}
}

func TestDetectReoccurrenceIsKnown(t *testing.T) {
	var mu sync.Mutex
	var events []Deadlock
	// Avoidance disabled so the same deadlock can happen twice.
	rt := NewRuntime(Config{
		Policy:            RecoverBreak,
		AvoidanceDisabled: true,
		OnDeadlock: func(d Deadlock) {
			mu.Lock()
			events = append(events, d)
			mu.Unlock()
		},
	})
	defer rt.Close()
	ps := newPairStacks()

	a, b := rt.NewLock("A"), rt.NewLock("B")
	deadlockPair(t, rt, a, b, ps)
	deadlockPair(t, rt, a, b, ps)

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("deadlock events = %d, want 2", len(events))
	}
	if events[0].Known {
		t.Error("first occurrence should be new")
	}
	if !events[1].Known {
		t.Error("second occurrence should be Known")
	}
	if rt.History().Len() != 1 {
		t.Errorf("history should deduplicate identical signatures, len = %d", rt.History().Len())
	}
}

// TestDetectionHistoryHoldsFingerprint: the history takes the
// detector's fingerprint over, so OnDeadlock receives the very instance
// the history stores; a recurrence is Known and leaves the history as
// it was.
func TestDetectionHistoryHoldsFingerprint(t *testing.T) {
	var mu sync.Mutex
	var events []Deadlock
	rt := NewRuntime(Config{
		Policy:            RecoverBreak,
		AvoidanceDisabled: true,
		OnDeadlock: func(d Deadlock) {
			mu.Lock()
			events = append(events, d)
			mu.Unlock()
		},
	})
	defer rt.Close()
	h := rt.History()
	ps := newPairStacks()
	a, b := rt.NewLock("A"), rt.NewLock("B")

	deadlockPair(t, rt, a, b, ps)
	mu.Lock()
	first := events[0]
	mu.Unlock()
	if first.Known || !first.Signature.Equal(ps.signature()) {
		t.Fatalf("first detection: Known %v, signature %v", first.Known, first.Signature)
	}
	if got := h.Get(first.Signature.ID()); got != first.Signature || h.Len() != 1 {
		t.Fatalf("history holds %p (%d signatures), want the fingerprint %p alone", got, h.Len(), first.Signature)
	}

	muts := h.Mutations()
	deadlockPair(t, rt, a, b, ps)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("deadlock events = %d, want 2", len(events))
	}
	if again := events[1]; !again.Known || again.Signature != first.Signature {
		t.Errorf("recurrence: Known %v, signature %p; want Known with the stored %p", again.Known, again.Signature, first.Signature)
	}
	if h.Len() != 1 || h.Mutations() != muts {
		t.Errorf("recurrence changed the history: %d signatures, %d mutations (was %d)", h.Len(), h.Mutations(), muts)
	}
}

func TestDetectThreeThreadCycle(t *testing.T) {
	var mu sync.Mutex
	var events []Deadlock
	rt := NewRuntime(Config{
		Policy: RecoverBreak,
		OnDeadlock: func(d Deadlock) {
			mu.Lock()
			events = append(events, d)
			mu.Unlock()
		},
	})
	defer rt.Close()
	locks := []*Lock{rt.NewLock("L0"), rt.NewLock("L1"), rt.NewLock("L2")}

	outer := make([]sig.Stack, 3)
	inner := make([]sig.Stack, 3)
	for i := range outer {
		outer[i] = mkStack("T", "outer"+string(rune('0'+i)), 5)
		inner[i] = mkStack("T", "inner"+string(rune('0'+i)), 5)
	}

	var wg sync.WaitGroup
	held := make(chan struct{}, 3)
	start := make(chan struct{})
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tid := ThreadID(i + 1)
			if err := rt.Acquire(tid, locks[i], outer[i]); err != nil {
				errs[i] = err
				held <- struct{}{}
				return
			}
			held <- struct{}{}
			<-start
			err := rt.Acquire(tid, locks[(i+1)%3], inner[i])
			if err == nil {
				_ = rt.Release(tid, locks[(i+1)%3])
			}
			_ = rt.Release(tid, locks[i])
			errs[i] = err
		}(i)
	}
	for i := 0; i < 3; i++ {
		<-held
	}
	close(start)
	wg.Wait()

	broken := 0
	for _, err := range errs {
		if errors.Is(err, ErrDeadlock) {
			broken++
		} else if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if broken != 1 {
		t.Errorf("threads denied = %d, want 1", broken)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("deadlock events = %d, want 1", len(events))
	}
	if got := events[0].Signature.Size(); got != 3 {
		t.Errorf("signature thread count = %d, want 3", got)
	}
}

func TestDetectRecoverNoneKeepsThreadsBlocked(t *testing.T) {
	events := make(chan Deadlock, 1)
	rt := NewRuntime(Config{
		Policy:     RecoverNone,
		OnDeadlock: func(d Deadlock) { events <- d },
	})
	a, b := rt.NewLock("A"), rt.NewLock("B")
	ps := newPairStacks()

	done := make(chan error, 2)
	held := make(chan struct{}, 2)
	start := make(chan struct{})
	go func() {
		_ = rt.Acquire(1, a, ps.outerA)
		held <- struct{}{}
		<-start
		done <- rt.Acquire(1, b, ps.innerAB)
	}()
	go func() {
		_ = rt.Acquire(2, b, ps.outerB)
		held <- struct{}{}
		<-start
		done <- rt.Acquire(2, a, ps.innerBA)
	}()
	<-held
	<-held
	close(start)

	// Detection fires even though nobody is released.
	select {
	case d := <-events:
		if err := d.Signature.Valid(); err != nil {
			t.Errorf("signature invalid: %v", err)
		}
	case <-waitTimeout():
		t.Fatal("deadlock was not detected")
	}

	// Threads stay blocked (the paper's behaviour) until Close.
	select {
	case err := <-done:
		t.Fatalf("a thread unblocked under RecoverNone: %v", err)
	default:
	}
	rt.Close()
	for i := 0; i < 2; i++ {
		if err := waitErr(t, done, "blocked thread after Close"); !errors.Is(err, ErrClosed) {
			t.Errorf("after Close, err = %v, want ErrClosed", err)
		}
	}
}

func TestDetectWaiterOutsideCycleDoesNotFingerprint(t *testing.T) {
	var mu sync.Mutex
	var events []Deadlock
	rt := NewRuntime(Config{
		Policy:     RecoverNone,
		OnDeadlock: func(d Deadlock) { mu.Lock(); events = append(events, d); mu.Unlock() },
	})
	a, b := rt.NewLock("A"), rt.NewLock("B")
	ps := newPairStacks()

	held := make(chan struct{}, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		_ = rt.Acquire(1, a, ps.outerA)
		held <- struct{}{}
		<-start
		_ = rt.Acquire(1, b, ps.innerAB)
	}()
	go func() {
		defer wg.Done()
		_ = rt.Acquire(2, b, ps.outerB)
		held <- struct{}{}
		<-start
		_ = rt.Acquire(2, a, ps.innerBA)
	}()
	<-held
	<-held
	close(start)
	eventually(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) == 1
	}, "first deadlock detected")

	// Thread 3 now waits on lock A — it reaches the deadlocked pair but
	// is not part of the cycle; no second fingerprint may be produced.
	go func() {
		defer wg.Done()
		_ = rt.Acquire(3, a, mkStack("T3", "outsider", 5))
	}()
	eventually(t, func() bool { return rt.Stats().Contended >= 3 }, "thread 3 queued")

	mu.Lock()
	if len(events) != 1 {
		t.Errorf("events = %d, want 1 (outsider must not re-fingerprint)", len(events))
	}
	mu.Unlock()
	rt.Close()
	wg.Wait()
}
