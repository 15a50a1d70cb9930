package commdlk

import (
	"testing"
	"time"

	"communix/internal/dimmunix"
	"communix/internal/sig"
	"communix/internal/stacktrace"
)

// The tests in this file close wait+yield cycles that cross from a
// channel to a mutex of the same host runtime. Each half alone sees no
// cycle, so only the host's one yield graph can break them. The
// re-home timeout is a minute: only the cycle breaker can free the
// yielder in time.

// awaitAll fails the test unless every named goroutine reports nil
// within 10 s.
func awaitAll(t *testing.T, done map[string]chan error) {
	t.Helper()
	for name, ch := range done {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished: the wait+yield cycle was not broken", name)
		}
	}
}

// TestChanYieldMutexWaitCycleBroken: a channel yielder parks holding a
// dimmunix.Mutex, and its blocker then waits for that mutex. The yield
// edge runs through the channel half, the wait edge through the mutex
// half; the breaker must force the yielder through exactly once.
func TestChanYieldMutexWaitCycleBroken(t *testing.T) {
	dimmunix.SetYieldRehomeTimeout(time.Minute)
	defer dimmunix.SetYieldRehomeTimeout(time.Second)

	h := dimmunix.NewHistory()
	h.Add(windowSignature(t))
	host := dimmunix.NewRuntime(dimmunix.Config{History: h})
	defer host.Close()
	rt := NewRuntime(host, Config{})
	defer rt.Close()
	a, b := NewChan[int](rt, "mix-a", 1), NewChan[int](rt, "mix-b", 1)
	mu := host.NewMutex("mix-mu")

	var (
		held      = make(chan struct{})
		fillA     = make(chan struct{})
		lockNow   = make(chan struct{})
		yielder   = make(chan error, 1)
		blocker   = make(chan error, 1)
		blockerIn = make(chan error, 1)
	)
	go func() {
		if err := mu.Lock(); err != nil {
			yielder <- err
			return
		}
		close(held)
		<-fillA
		if err := windowFillA(a); err != nil { // parks behind the fill of B
			yielder <- err
			return
		}
		yielder <- mu.Unlock()
	}()
	<-held
	go func() {
		blockerIn <- windowFillB(b)
		<-lockNow
		err := mu.Lock() // closes the cycle: the holder is parked
		if err == nil {
			err = mu.Unlock()
		}
		blocker <- err
	}()
	if err := <-blockerIn; err != nil {
		t.Fatal(err)
	}
	close(fillA)
	waitUntil(t, "the fill of A parked", func() bool { return rt.Waiting() == 1 })
	close(lockNow)
	awaitAll(t, map[string]chan error{"yielder": yielder, "blocker": blocker})

	st, hs := rt.Stats(), host.Stats()
	if st.AvoidanceBreaks != 1 || st.Yields != 1 || hs.AvoidanceBreak != 0 {
		t.Fatalf("channel breaks=%d yields=%d, mutex breaks=%d; want 1, 1 and 0", st.AvoidanceBreaks, st.Yields, hs.AvoidanceBreak)
	}
	if st.Deadlocks != 0 || hs.Deadlocks != 0 {
		t.Fatalf("deadlocks: channel %d, mutex %d, want 0", st.Deadlocks, hs.Deadlocks)
	}
	if n := rt.Waiting(); n != 0 {
		t.Fatalf("Waiting() = %d after every op returned, want 0", n)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("a holds %d and b %d items, want one each", a.Len(), b.Len())
	}
}

// inversionStack is one lock site of the lock-inversion signature the
// mutex-yielder test installs.
func inversionStack(site string) sig.Stack {
	return sig.Stack{
		{Class: "app/Mixed", Method: "run", Line: 10},
		{Class: "app/Sites", Method: site, Line: 100},
	}
}

// TestMutexYieldChanWaitCycleBroken: a mutex yielder parks behind a
// lock its blocker holds, and the blocker then waits on a recv only the
// yielder can rescue (the yielder is the channel's one known sender).
// The yield edge runs through the mutex half, the wait edge through the
// channel half; the breaker must force the yielder through exactly
// once.
func TestMutexYieldChanWaitCycleBroken(t *testing.T) {
	dimmunix.SetYieldRehomeTimeout(time.Minute)
	defer dimmunix.SetYieldRehomeTimeout(time.Second)

	outer1, inner1 := inversionStack("lock1"), inversionStack("lock1then2")
	outer2, inner2 := inversionStack("lock2"), inversionStack("lock2then1")
	h := dimmunix.NewHistory()
	h.Add(sig.New(sig.ThreadSpec{Outer: outer1, Inner: inner1}, sig.ThreadSpec{Outer: outer2, Inner: inner2}))
	host := dimmunix.NewRuntime(dimmunix.Config{History: h})
	defer host.Close()
	rt := NewRuntime(host, Config{})
	defer rt.Close()
	l1, l2 := host.NewMutex("mix-1"), host.NewMutex("mix-2")
	rescue := NewChan[int](rt, "mix-rescue", 1)

	var (
		warm      = make(chan struct{})
		lockNow   = make(chan struct{})
		recvNow   = make(chan struct{})
		yielder   = make(chan error, 1)
		blocker   = make(chan error, 1)
		blockerIn = make(chan error, 1)
	)
	go func() {
		tid := dimmunix.ThreadID(stacktrace.GoroutineID())
		// One warmup send makes this goroutine rescue's only known
		// sender: the one goroutine that can rescue a recv on it.
		if err := rescue.Send(0); err != nil {
			yielder <- err
			return
		}
		close(warm)
		<-lockNow
		if err := l1.LockAt(tid, outer1); err != nil { // parks behind l2's hold
			yielder <- err
			return
		}
		err := rescue.Send(1)
		if uerr := l1.UnlockAt(tid); err == nil {
			err = uerr
		}
		yielder <- err
	}()
	<-warm
	if _, _, err := rescue.Recv(); err != nil {
		t.Fatal(err)
	}
	go func() {
		tid := dimmunix.ThreadID(stacktrace.GoroutineID())
		if err := l2.LockAt(tid, outer2); err != nil {
			blockerIn <- err
			return
		}
		blockerIn <- nil
		<-recvNow
		_, _, err := rescue.Recv() // closes the cycle
		if uerr := l2.UnlockAt(tid); err == nil {
			err = uerr
		}
		blocker <- err
	}()
	if err := <-blockerIn; err != nil {
		t.Fatal(err)
	}
	close(lockNow)
	waitUntil(t, "the lock of l1 parked", func() bool { return host.Stats().Yields == 1 })
	close(recvNow)
	awaitAll(t, map[string]chan error{"yielder": yielder, "blocker": blocker})

	st, hs := rt.Stats(), host.Stats()
	if hs.AvoidanceBreak != 1 || hs.Yields != 1 || st.AvoidanceBreaks != 0 {
		t.Fatalf("mutex breaks=%d yields=%d, channel breaks=%d; want 1, 1 and 0", hs.AvoidanceBreak, hs.Yields, st.AvoidanceBreaks)
	}
	if st.Deadlocks != 0 || hs.Deadlocks != 0 {
		t.Fatalf("deadlocks: channel %d, mutex %d, want 0", st.Deadlocks, hs.Deadlocks)
	}
	if n := rt.Waiting(); n != 0 {
		t.Fatalf("Waiting() = %d after every op returned, want 0", n)
	}
}

// TestHostCarriesOneChannelRuntime: a second channel runtime on one host
// would replace the first's wait edges in the host's yield graph, so
// NewRuntime refuses it.
func TestHostCarriesOneChannelRuntime(t *testing.T) {
	host := dimmunix.NewRuntime(dimmunix.Config{})
	defer host.Close()
	NewRuntime(host, Config{}).Close()
	defer func() {
		if recover() == nil {
			t.Fatal("a second channel runtime on one host was accepted")
		}
	}()
	NewRuntime(host, Config{})
}
