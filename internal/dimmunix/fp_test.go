package dimmunix

import (
	"sync"
	"testing"
	"time"
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
