package dimmunix

import (
	"sync"
	"testing"
	"time"

	"communix/internal/sig/sigtest"
)

// fakeClock is a controllable clock for the burst window.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestFPWarnsAfterBurstAndNoTruePositives(t *testing.T) {
	clock := newFakeClock()
	var warned []FalsePositiveWarning
	d := newFPDetector(clock.Now, nil)

	// 89 slow instantiations (spread out, no burst), then a burst of 11
	// within one second to cross both thresholds.
	for i := 0; i < fpMinInstantiations-11; i++ {
		if w := d.recordInstantiation(1, false); w != nil {
			t.Fatalf("premature warning at %d", i)
		}
		clock.Advance(2 * time.Second)
	}
	for i := 0; i < 11; i++ {
		if w := d.recordInstantiation(1, false); w != nil {
			warned = append(warned, *w)
		}
		clock.Advance(10 * time.Millisecond)
	}
	if len(warned) != 1 {
		t.Fatalf("warnings = %d, want exactly 1", len(warned))
	}
	// The detector counts by insertion number; its caller names the
	// signature.
	if warned[0].SigID != "" || warned[0].Instantiations != fpMinInstantiations {
		t.Errorf("warning = %+v", warned[0])
	}

	// No duplicate warning on further instantiations.
	if w := d.recordInstantiation(1, false); w != nil {
		t.Error("warning should fire only once")
	}
}

func TestFPNoWarningWithoutBurst(t *testing.T) {
	clock := newFakeClock()
	d := newFPDetector(clock.Now, nil)
	for i := 0; i < 3*fpMinInstantiations; i++ {
		if w := d.recordInstantiation(1, false); w != nil {
			t.Fatal("no burst ever exceeded 10/s; warning is wrong")
		}
		clock.Advance(200 * time.Millisecond) // 5 per second
	}
}

func TestFPTruePositiveSuppressesWarning(t *testing.T) {
	clock := newFakeClock()
	d := newFPDetector(clock.Now, nil)
	// One true positive among the burst: the signature is earning its keep.
	for i := 0; i < 2*fpMinInstantiations; i++ {
		tp := i == 7
		if w := d.recordInstantiation(1, tp); w != nil {
			t.Fatal("signature with a true positive must not be warned about")
		}
		clock.Advance(time.Millisecond)
	}
	inst, tps, warned := d.snapshot(1)
	if inst != 2*fpMinInstantiations || tps != 1 || warned {
		t.Errorf("snapshot = (%d, %d, %v)", inst, tps, warned)
	}
}

func TestFPSignaturesTrackedIndependently(t *testing.T) {
	clock := newFakeClock()
	d := newFPDetector(clock.Now, nil)
	warnings := 0
	for i := 0; i < fpMinInstantiations; i++ {
		if w := d.recordInstantiation(1, false); w != nil {
			warnings++
		}
		d.recordInstantiation(2, true)
		clock.Advance(time.Millisecond)
	}
	if warnings != 1 {
		t.Errorf("bad signature warnings = %d, want 1", warnings)
	}
	if _, _, warned := d.snapshot(2); warned {
		t.Error("good signature must not be warned about")
	}
}

func TestFPRuntimeIntegration(t *testing.T) {
	// Drive the runtime so one signature yields continuously without ever
	// averting a real cycle; the OnFalsePositive callback must fire.
	ps := newPairStacks()
	history := NewHistory()
	history.Add(ps.signature())

	clock := newFakeClock()
	warnCh := make(chan FalsePositiveWarning, 1)
	rt := NewRuntime(Config{
		History:         history,
		Policy:          RecoverBreak,
		Clock:           clock.Now,
		OnFalsePositive: func(w FalsePositiveWarning) { warnCh <- w },
	})
	defer rt.Close()

	a, b := rt.NewLock("A"), rt.NewLock("B")
	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}

	// Each iteration: t2's matching acquisition yields (instantiation,
	// never a real cycle: t1 isn't waiting), then t1 releases and
	// reacquires so t2 can complete one round.
	for i := 0; i < fpMinInstantiations+5; i++ {
		done := make(chan error, 1)
		go func() {
			err := rt.Acquire(2, b, ps.outerB)
			if err == nil {
				_ = rt.Release(2, b)
			}
			done <- err
		}()
		eventually(t, func() bool { return rt.Stats().Yields > uint64(i) }, "yield")
		if err := rt.Release(1, a); err != nil {
			t.Fatal(err)
		}
		if err := waitErr(t, done, "t2 round"); err != nil {
			t.Fatal(err)
		}
		if err := rt.Acquire(1, a, ps.outerA); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Millisecond)
	}
	_ = rt.Release(1, a)

	select {
	case w := <-warnCh:
		if w.Instantiations < fpMinInstantiations {
			t.Errorf("warned at %d instantiations, want >= %d", w.Instantiations, fpMinInstantiations)
		}
		if want := ps.signature().ID(); w.SigID != want {
			t.Errorf("warning names %s, want %s", w.SigID, want)
		}
		if inst, _, warned := rt.SignatureStats(w.SigID); inst < w.Instantiations || !warned {
			t.Errorf("SignatureStats(%s) = %d, %v; want at least the warning's %d, warned", w.SigID, inst, warned, w.Instantiations)
		}
	default:
		t.Error("expected a false-positive warning from the runtime")
	}
}

// TestFalsePositiveWarningReachesIDTwin: a warning carries the warned
// signature itself, so acting on a warning about a twin of an ID's
// holder (sigtest.IDTwins) removes the twin and keeps the holder, which
// the warning's ID names. Thread 1 holds a lock at the twin's own outer
// site, and thread 2's acquisitions at the outer site the twins share
// yield against the twin only, until the §III-C1 heuristic fires.
func TestFalsePositiveWarningReachesIDTwin(t *testing.T) {
	holder, twin := sigtest.IDTwins()
	h := NewHistory()
	if !h.Add(holder) || !h.Add(twin) {
		t.Fatal("the twins were not both stored")
	}
	own, shared := twin.Threads[0].Outer, twin.Threads[1].Outer
	if holder.Threads[1].Outer.HasSuffix(own) || !holder.Threads[1].Outer.HasSuffix(shared) {
		t.Fatal("sigtest.IDTwins no longer shares exactly one outer site")
	}
	clock := newFakeClock()
	warnCh := make(chan FalsePositiveWarning, 1)
	rt := NewRuntime(Config{History: h, Clock: clock.Now, OnFalsePositive: func(w FalsePositiveWarning) { warnCh <- w }})
	defer rt.Close()
	a, b := rt.NewLock("A"), rt.NewLock("B")
	if err := rt.Acquire(1, a, own); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fpMinInstantiations; i++ {
		done := make(chan error, 1)
		go func() {
			err := rt.Acquire(2, b, shared)
			if err == nil {
				err = rt.Release(2, b)
			}
			done <- err
		}()
		eventually(t, func() bool { return rt.Stats().Yields > uint64(i) }, "yield")
		if err := rt.Release(1, a); err != nil {
			t.Fatal(err)
		}
		if err := waitErr(t, done, "thread 2"); err != nil {
			t.Fatal(err)
		}
		if err := rt.Acquire(1, a, own); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Millisecond)
	}
	var w FalsePositiveWarning
	select {
	case w = <-warnCh:
	default:
		t.Fatal("no false-positive warning")
	}
	if w.SigID != holder.ID() || w.Signature == nil || !w.Signature.Equal(twin) {
		t.Fatalf("warning names %s and carries %v; want the shared ID and the twin", w.SigID, w.Signature)
	}
	if !h.RemoveSignature(w.Signature) || h.RemoveSignature(w.Signature) {
		t.Fatal("RemoveSignature did not remove the warned signature exactly once")
	}
	if kept := h.Get(holder.ID()); h.Len() != 1 || kept == nil || !kept.Equal(holder) {
		t.Fatalf("after the removal the history holds %d signatures; want the ID's holder alone", h.Len())
	}
	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}
}
