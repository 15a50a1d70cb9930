package dimmunix

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakYieldCycles runs the shared wait+yield cycle breaker on
// synthetic graphs: yield edges come from each yielder's blockers, wait
// edges from a fixed successor table (one case per waiting thread).
func TestBreakYieldCycles(t *testing.T) {
	type yielderSpec struct {
		blockers []ThreadID
		forced   bool
	}
	for _, tc := range []struct {
		name     string
		yielders map[ThreadID]yielderSpec
		waits    map[ThreadID][]ThreadID
		want     []ThreadID // forced by this call, ascending
	}{
		{
			name: "two disjoint cycles, each broken at its smallest id",
			yielders: map[ThreadID]yielderSpec{
				3: {blockers: []ThreadID{9}},
				7: {blockers: []ThreadID{4}},
				4: {blockers: []ThreadID{7}},
			},
			waits: map[ThreadID][]ThreadID{9: {3}},
			want:  []ThreadID{3, 4},
		},
		{
			name: "a cycle of three yielders forces one",
			yielders: map[ThreadID]yielderSpec{
				6: {blockers: []ThreadID{7}},
				7: {blockers: []ThreadID{5}},
				5: {blockers: []ThreadID{6}},
			},
			want: []ThreadID{5},
		},
		{
			name: "a forced yielder's blockers are not followed",
			yielders: map[ThreadID]yielderSpec{
				1: {blockers: []ThreadID{2}, forced: true},
				2: {blockers: []ThreadID{1}},
			},
		},
		{
			name:     "a pure wait cycle forces no yielder",
			yielders: map[ThreadID]yielderSpec{5: {blockers: []ThreadID{1}}},
			waits:    map[ThreadID][]ThreadID{1: {2}, 2: {1}},
		},
		{
			name:     "a yielder waiting into a cycle it is not on stays parked",
			yielders: map[ThreadID]yielderSpec{1: {blockers: []ThreadID{2}}, 3: {blockers: []ThreadID{2}}},
			waits:    map[ThreadID][]ThreadID{2: {3}},
			want:     []ThreadID{3},
		},
		{
			name: "no yielders",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			yielders := make(map[ThreadID]*Yielder)
			for id, spec := range tc.yielders {
				bs := make(map[ThreadID]struct{})
				for _, b := range spec.blockers {
					bs[b] = struct{}{}
				}
				y := NewYielder(id, bs)
				y.Forced = spec.forced
				yielders[id] = y
			}
			n := BreakYieldCycles(yielders, func(id ThreadID) [][]ThreadID { return [][]ThreadID{tc.waits[id]} })
			var got []ThreadID
			for id, y := range yielders {
				if y.Forced && !tc.yielders[id].forced {
					got = append(got, id)
					if !y.woken.Load() {
						t.Errorf("yielder %d forced but not woken", id)
					}
				}
			}
			slices.Sort(got)
			if n != len(got) || !slices.Equal(got, tc.want) {
				t.Fatalf("forced %v (returned %d), want %v", got, n, tc.want)
			}
		})
	}
}

// TestBreakYieldCyclesIdleAllocatesNothing: with no yielder parked, the
// breaker — run after every contended wait — returns at once.
func TestBreakYieldCyclesIdleAllocatesNothing(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() {
		if BreakYieldCycles(rt.yielders, rt.casesLocked) != 0 {
			t.Fatal("forced a yielder with none parked")
		}
	}); allocs != 0 {
		t.Fatalf("idle BreakYieldCycles allocates %.1f times per call, want 0", allocs)
	}
}

// TestUnrelatedLockTrafficWakesNoYielder: a lock release wakes only the
// yielders of the signatures whose positions it drops. One thread parks
// on the pair signature; then 200 rounds of contended traffic on an
// unrelated lock X — each round thread 4 queues behind thread 3, so both
// releases take the slow path — must leave it parked. A woken yielder
// whose threat still stands re-parks and counts another yield and
// another §III-C1 instantiation, so Yields stays 1 and no false-positive
// warning fires.
func TestUnrelatedLockTrafficWakesNoYielder(t *testing.T) {
	ps := newPairStacks()
	h := NewHistory()
	h.Add(ps.signature())
	var warnings atomic.Int32
	rt := NewRuntime(Config{History: h, OnFalsePositive: func(FalsePositiveWarning) { warnings.Add(1) }})
	defer rt.Close()
	a, b, x := rt.NewLock("A"), rt.NewLock("B"), rt.NewLock("X")
	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		err := rt.Acquire(2, b, ps.outerB)
		if err == nil {
			err = rt.Release(2, b)
		}
		parked <- err
	}()
	eventually(t, func() bool { return rt.Stats().Yields == 1 }, "thread 2 parked")

	cs3, cs4 := mkStack("T3", "siteX", 6), mkStack("T4", "siteX", 6)
	for i := uint64(1); i <= 200; i++ {
		if err := rt.Acquire(3, x, cs3); err != nil {
			t.Fatal(err)
		}
		queued := make(chan error, 1)
		go func() {
			err := rt.Acquire(4, x, cs4)
			if err == nil {
				err = rt.Release(4, x)
			}
			queued <- err
		}()
		eventually(t, func() bool { return rt.Stats().Contended == i }, "thread 4 queued on X")
		if err := rt.Release(3, x); err != nil {
			t.Fatal(err)
		}
		if err := waitErr(t, queued, "thread 4"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a woken yielder to re-park
	if y, n := rt.Stats().Yields, warnings.Load(); y != 1 || n != 0 {
		t.Fatalf("after unrelated traffic: %d yields and %d false-positive warnings, want 1 and 0", y, n)
	}
	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, parked, "thread 2"); err != nil {
		t.Fatal(err)
	}
}
