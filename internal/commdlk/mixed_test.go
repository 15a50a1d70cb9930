package commdlk

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"communix/internal/dimmunix"
	"communix/internal/sig"
	"communix/internal/stacktrace"
)

// The tests in this file close cycles that cross from a channel to a
// mutex of the same host runtime. Each half alone sees no cycle, so only
// the host's one graph can break a wait+yield cycle or detect a
// wait-for cycle. In the yield tests the re-home timeout is a minute:
// only the cycle breaker can free the yielder in time.

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
			t.Fatalf("%s never finished within 10 s", name)
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
// would replace the first's side of the host's waits-for graph, so
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

// mixedKnot is the smallest mutex+channel deadlock: one goroutine holds
// mu and blocks receiving on ch, whose one known sender then waits for
// mu. The sender's warmup send happens before either wait, so the
// receiver's one rescuer is the sender, and the sender's one rescuer is
// mu's owner.
type mixedKnot struct {
	host *dimmunix.Runtime
	rt   *Runtime
	mu   *dimmunix.Mutex
	ch   *Chan[int]
	// found receives every detected deadlock, buffered so that a second,
	// unexpected report reaches check instead of blocking its detector.
	found chan dimmunix.Deadlock
}

func newMixedKnot(t *testing.T) *mixedKnot {
	t.Helper()
	k := &mixedKnot{found: make(chan dimmunix.Deadlock, 2)}
	k.host = dimmunix.NewRuntime(dimmunix.Config{
		Policy:     dimmunix.RecoverBreak,
		OnDeadlock: func(d dimmunix.Deadlock) { k.found <- d },
	})
	t.Cleanup(k.host.Close)
	k.rt = NewRuntime(k.host, Config{})
	t.Cleanup(k.rt.Close)
	k.mu = k.host.NewMutex("knot-mu")
	k.ch = NewChan[int](k.rt, "knot-ch", 1)
	return k
}

// check asserts the one deadlock the knot produced: closer's wait closed
// the cycle, the other member is other, and each member pairs a lock
// stack with a channel stack — mu's holder held it (lock outer) and
// blocks receiving (chan-recv inner), the sender sent (chan-send outer)
// and blocks on mu (lock inner).
func (k *mixedKnot) check(t *testing.T, closer, other dimmunix.ThreadID) {
	t.Helper()
	if n := k.host.Stats().Deadlocks + k.rt.Stats().Deadlocks; n != 1 {
		t.Fatalf("deadlocks over both halves = %d, want 1", n)
	}
	var d dimmunix.Deadlock
	select {
	case d = <-k.found:
	default:
		t.Fatal("OnDeadlock never fired")
	}
	if len(d.Threads) != 2 || d.Threads[0] != closer || d.Threads[1] != other {
		t.Fatalf("cycle = %v, want [%d %d]", d.Threads, closer, other)
	}
	if d.Known {
		t.Error("first detection reported Known")
	}
	s := d.Signature
	if s == nil || len(s.Threads) != 2 {
		t.Fatalf("signature = %v, want two threads", s)
	}
	kinds := map[[2]string]bool{}
	for _, th := range s.Threads {
		kinds[[2]string{th.Outer.Top().Kind, th.Inner.Top().Kind}] = true
	}
	holder, sender := [2]string{sig.KindLock, sig.KindChanRecv}, [2]string{sig.KindChanSend, sig.KindLock}
	if len(kinds) != 2 || !kinds[holder] || !kinds[sender] {
		t.Fatalf("member (outer, inner) kinds = %v, want %v and %v", kinds, holder, sender)
	}
	if k.host.History().Get(s.ID()) == nil {
		t.Error("the mixed signature is not in the history")
	}
	data, err := sig.Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := sig.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.ID() != s.ID() {
		t.Error("codec round trip changed the signature ID")
	}
	select {
	case d := <-k.found:
		t.Fatalf("a second deadlock was reported: %v", d.Threads)
	default:
	}
}

// TestMixedLockWaitClosesDeadlock: the holder of mu blocks on a recv
// only the sender can rescue, and the sender's lock of mu closes the
// cycle. The host's detector follows the lock edge into the channel
// half and back; the sender's Lock gets the mutex half's ErrDeadlock,
// and the sender then rescues the holder.
func TestMixedLockWaitClosesDeadlock(t *testing.T) {
	k := newMixedKnot(t)
	var (
		holderID, senderID = make(chan dimmunix.ThreadID, 1), make(chan dimmunix.ThreadID, 1)
		warm, lockNow      = make(chan struct{}), make(chan struct{})
		holder, sender     = make(chan error, 1), make(chan error, 1)
	)
	go func() {
		holderID <- dimmunix.ThreadID(stacktrace.GoroutineID())
		<-warm
		if _, _, err := k.ch.Recv(); err != nil {
			holder <- err
			return
		}
		if err := k.mu.Lock(); err != nil {
			holder <- err
			return
		}
		_, _, err := k.ch.Recv() // blocks: only the sender can rescue it
		if uerr := k.mu.Unlock(); err == nil {
			err = uerr
		}
		holder <- err
	}()
	go func() {
		senderID <- dimmunix.ThreadID(stacktrace.GoroutineID())
		if err := k.ch.Send(0); err != nil {
			sender <- err
			return
		}
		close(warm)
		<-lockNow
		if err := k.mu.Lock(); !errors.Is(err, dimmunix.ErrDeadlock) { // closes the cycle
			sender <- fmt.Errorf("closing Lock = %v, want ErrDeadlock", err)
			return
		}
		sender <- k.ch.Send(1)
	}()
	waitUntil(t, "the holder blocked on its recv", func() bool { return k.rt.Waiting() == 1 && k.ch.Len() == 0 })
	close(lockNow)
	awaitAll(t, map[string]chan error{"holder": holder, "sender": sender})
	if n := k.host.Stats().Deadlocks; n != 1 {
		t.Fatalf("mutex half deadlocks = %d, want 1", n)
	}
	k.check(t, <-senderID, <-holderID)
}

// TestMixedChanWaitClosesDeadlock: the sender waits for mu first, and
// the holder's recv, which only the sender can rescue, closes the cycle.
// The holder's Recv gets the channel half's ErrDeadlock and unlocks mu,
// which lets the sender through.
func TestMixedChanWaitClosesDeadlock(t *testing.T) {
	k := newMixedKnot(t)
	var (
		holderID, senderID = make(chan dimmunix.ThreadID, 1), make(chan dimmunix.ThreadID, 1)
		warm, lockNow      = make(chan struct{}), make(chan struct{})
		locked, recvNow    = make(chan struct{}), make(chan struct{})
		holder, sender     = make(chan error, 1), make(chan error, 1)
	)
	go func() {
		holderID <- dimmunix.ThreadID(stacktrace.GoroutineID())
		<-warm
		if _, _, err := k.ch.Recv(); err != nil {
			holder <- err
			return
		}
		if err := k.mu.Lock(); err != nil {
			holder <- err
			return
		}
		close(locked)
		<-recvNow
		_, _, err := k.ch.Recv() // closes the cycle
		if !errors.Is(err, ErrDeadlock) {
			err = fmt.Errorf("closing Recv = %v, want ErrDeadlock", err)
		} else {
			err = nil
		}
		if uerr := k.mu.Unlock(); err == nil {
			err = uerr
		}
		holder <- err
	}()
	go func() {
		senderID <- dimmunix.ThreadID(stacktrace.GoroutineID())
		if err := k.ch.Send(0); err != nil {
			sender <- err
			return
		}
		close(warm)
		<-lockNow
		err := k.mu.Lock() // waits for the holder
		if err == nil {
			err = k.mu.Unlock()
		}
		sender <- err
	}()
	<-locked
	close(lockNow)
	waitUntil(t, "the sender queued on mu", func() bool { return k.host.Stats().Contended == 1 })
	close(recvNow)
	awaitAll(t, map[string]chan error{"holder": holder, "sender": sender})
	if n := k.rt.Stats().Deadlocks; n != 1 {
		t.Fatalf("channel half deadlocks = %d, want 1", n)
	}
	k.check(t, <-holderID, <-senderID)
}

// knot is the mixed knot of the avoidance tests: g1 holds mu and then
// sends on the capacity-1 channel ch, while g2 holds ch's deposit and
// then locks mu. Once both have emptied ch once, each is the other's
// one rescuer: g1's send waits for g2 to receive, g2's Lock for g1 to
// unlock. Its signature pairs g1's lock site (outer) and send (inner)
// with g2's deposit (outer) and Lock (inner), so a lock slot and a
// channel slot must both be filled for it to instantiate.
type knot struct {
	host *dimmunix.Runtime
	rt   *Runtime
	mu   *dimmunix.Mutex
	ch   *Chan[int]
}

func newKnot(t *testing.T, h *dimmunix.History) *knot {
	t.Helper()
	host := dimmunix.NewRuntime(dimmunix.Config{History: h, Policy: dimmunix.RecoverBreak})
	t.Cleanup(host.Close)
	rt := NewRuntime(host, Config{})
	t.Cleanup(rt.Close)
	return &knot{host: host, rt: rt, mu: host.NewMutex("knot-mu"), ch: NewChan[int](rt, "knot-ch", 1)}
}

// await reports whether cond held within 10 s; a goroutine of the
// schedule turns a miss into its error.
func await(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// gate returns a step that waits for cond, or fails as what.
func gate(what string, cond func() bool) func() error {
	return func() error {
		if !await(cond) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		return nil
	}
}

func nop() error { return nil }

// g1 locks mu, sends on ch, unlocks and receives one item.
func (k *knot) g1(beforeLock, beforeSend func() error) error {
	if err := beforeLock(); err != nil {
		return err
	}
	if err := k.mu.Lock(); err != nil {
		return err
	}
	err := beforeSend()
	if err == nil {
		err = k.ch.Send(1)
	}
	if uerr := k.mu.Unlock(); err == nil {
		err = uerr
	}
	if _, _, rerr := k.ch.Recv(); err == nil {
		err = rerr
	}
	return err
}

// g2 sends on ch, locks and unlocks mu, and receives one item, also
// after a Lock refused as a deadlock: that receive lets g1 finish.
func (k *knot) g2(beforeSend, beforeLock func() error) error {
	if err := beforeSend(); err != nil {
		return err
	}
	if err := k.ch.Send(2); err != nil {
		return err
	}
	err := beforeLock()
	if err == nil {
		if err = k.mu.Lock(); err == nil {
			err = k.mu.Unlock()
		}
	}
	if _, _, rerr := k.ch.Recv(); err == nil {
		err = rerr
	}
	return err
}

// run makes one lap of g1 and then one of g2, apart, which makes each a
// known receiver of ch, and then runs the knot's schedule on the same
// two goroutines. With g2First, g2 fills ch, g1 locks (after beforeLock,
// which may install a signature), and g2 locks once g1 is blocked on its
// send or parked at its Lock: without avoidance g2's Lock closes the
// cycle. Otherwise g1 locks first, g2 then sends, and g1 sends once g2
// deposited or parked at its send: without avoidance g1's send and g2's
// Lock close it.
func (k *knot) run(g2First bool, beforeLock func() error) (e1, e2 error) {
	var (
		g1warm, g2warm = make(chan struct{}), make(chan struct{})
		locked         = make(chan struct{})
		d1, d2         = make(chan error, 1), make(chan error, 1)
		yields         = func() uint64 { return k.host.Stats().Yields + k.rt.Stats().Yields }
	)
	// Each goroutine makes its knot lap from one call site, so that both
	// schedules, and the detection and avoidance runs, engage with the
	// same call stacks.
	g1Lock, g1Send := func() error {
		if err := gate("g2 filling ch", func() bool { return k.ch.Len() == 1 })(); err != nil {
			return err
		}
		return beforeLock()
	}, nop
	g2Send, g2Lock := nop, gate("g1 blocked or parked", func() bool { return k.rt.Waiting() == 1 || yields() > 0 })
	if !g2First {
		g1Lock, g1Send = nop, func() error {
			close(locked)
			return gate("g2 engaging ch", func() bool { return k.ch.Len() == 1 || k.rt.Waiting() == 1 })()
		}
		g2Send, g2Lock = func() error { <-locked; return nil }, nop
	}
	go func() {
		err := k.g1(nop, nop)
		close(g1warm)
		if err == nil {
			<-g2warm
			err = k.g1(g1Lock, g1Send)
		}
		d1 <- err
	}()
	go func() {
		<-g1warm
		err := k.g2(nop, nop)
		close(g2warm)
		if err == nil {
			err = k.g2(g2Send, g2Lock)
		}
		d2 <- err
	}()
	wait := func(d chan error) error {
		select {
		case err := <-d:
			return err
		case <-time.After(20 * time.Second):
			return errors.New("never finished")
		}
	}
	return wait(d1), wait(d2)
}

// detectKnot runs the knot once on a fresh runtime and returns the
// mixed signature its detection recorded in h.
func detectKnot(t *testing.T, h *dimmunix.History) *sig.Signature {
	t.Helper()
	k := newKnot(t, h)
	e1, e2 := k.run(true, nop)
	if e1 != nil || !errors.Is(e2, dimmunix.ErrDeadlock) {
		t.Fatalf("detection run: g1 %v, g2 %v; want nil and ErrDeadlock", e1, e2)
	}
	if n := k.host.Stats().Deadlocks; n != 1 || h.Len() != 1 {
		t.Fatalf("detection run: %d deadlocks, %d signatures; want 1 and 1", n, h.Len())
	}
	return h.All()[0]
}

// TestMixedSignatureAvoided: a knot detected once is avoided by a second
// runtime sharing the history, whichever of its two engagements comes
// first. When g2 fills ch first, g1's Lock yields behind the deposit:
// the matched fast path, which takes no runtime lock, sees the channel
// position in the signature's shard and retreats, and the slow path
// parks it. When g1 holds mu first, g2's Send yields behind the lock
// hold. Each half counts its own op's yield.
func TestMixedSignatureAvoided(t *testing.T) {
	h := dimmunix.NewHistory()
	detectKnot(t, h)
	for _, tc := range []struct {
		name    string
		g2First bool
	}{{"g2-fills-first", true}, {"g1-locks-first", false}} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKnot(t, h)
			if e1, e2 := k.run(tc.g2First, nop); e1 != nil || e2 != nil {
				t.Fatalf("g1 %v, g2 %v", e1, e2)
			}
			hs, cs := k.host.Stats(), k.rt.Stats()
			if hs.Deadlocks != 0 || cs.Deadlocks != 0 {
				t.Fatalf("deadlocks: mutex %d, channel %d; want 0", hs.Deadlocks, cs.Deadlocks)
			}
			lockYields, sendYields := hs.Yields, cs.Yields
			if !tc.g2First {
				lockYields, sendYields = sendYields, lockYields
			}
			if lockYields == 0 || sendYields != 0 {
				t.Fatalf("mutex half %d yields, channel half %d; want the op that came second to yield", hs.Yields, cs.Yields)
			}
		})
	}
}

// TestMixedSignatureInstalledUnderLiveDeposit: the signature arrives
// while g2's matching deposit is already in ch, recorded against no
// signature. The refresh that applies it registers the deposit, so g1's
// next matching Lock yields.
func TestMixedSignatureInstalledUnderLiveDeposit(t *testing.T) {
	s := detectKnot(t, dimmunix.NewHistory())
	h := dimmunix.NewHistory()
	k := newKnot(t, h)
	e1, e2 := k.run(true, func() error {
		if !h.Add(s) {
			return errors.New("the signature was not installed")
		}
		return nil
	})
	if e1 != nil || e2 != nil {
		t.Fatalf("g1 %v, g2 %v", e1, e2)
	}
	if hs := k.host.Stats(); hs.Deadlocks != 0 || hs.Yields == 0 {
		t.Fatalf("mutex half: %d deadlocks, %d yields; want 0 and >= 1", hs.Deadlocks, hs.Yields)
	}
}

// TestMutexYielderWokenByDrainingRecv: a mutex yielder parked behind a
// deposit is woken by the recv that drains the deposit, which drops the
// signature's channel position. The re-home timeout is a minute, so only
// that wake can free it in time, and it yields once.
func TestMutexYielderWokenByDrainingRecv(t *testing.T) {
	dimmunix.SetYieldRehomeTimeout(time.Minute)
	defer dimmunix.SetYieldRehomeTimeout(time.Second)

	fill := windowSignature(t).Threads[0].Outer // the fill of A's site
	lock := inversionStack("lock")
	h := dimmunix.NewHistory()
	h.Add(sig.New(sig.ThreadSpec{Outer: fill, Inner: lock}, sig.ThreadSpec{Outer: lock, Inner: fill}))
	host := dimmunix.NewRuntime(dimmunix.Config{History: h})
	defer host.Close()
	rt := NewRuntime(host, Config{})
	defer rt.Close()
	a, mu := NewChan[int](rt, "wake-a", 1), host.NewMutex("wake-mu")

	filled := make(chan error, 1)
	go func() { filled <- windowFillA(a) }()
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
	locked := make(chan error, 1)
	go func() {
		tid := dimmunix.ThreadID(stacktrace.GoroutineID())
		err := mu.LockAt(tid, lock)
		if err == nil {
			err = mu.UnlockAt(tid)
		}
		locked <- err
	}()
	waitUntil(t, "the lock parked behind the deposit", func() bool { return host.Stats().Yields == 1 })
	if _, _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	awaitAll(t, map[string]chan error{"lock": locked})
	if y := host.Stats().Yields; y != 1 {
		t.Fatalf("mutex half yields = %d, want 1", y)
	}
}
