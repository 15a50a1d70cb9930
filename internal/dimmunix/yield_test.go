package dimmunix

import (
	"slices"
	"testing"
)

// TestBreakYieldCycles runs the shared wait+yield cycle breaker on
// synthetic graphs: yield edges come from each yielder's blockers, wait
// edges from a fixed successor table.
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
			n := BreakYieldCycles(yielders, func(id ThreadID) []ThreadID { return tc.waits[id] })
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
		if BreakYieldCycles(rt.yielders, rt.waitsOnLocked) != 0 {
			t.Fatal("forced a yielder with none parked")
		}
	}); allocs != 0 {
		t.Fatalf("idle BreakYieldCycles allocates %.1f times per call, want 0", allocs)
	}
}

// TestWakesStayInTheirHalf: channel events cannot dissolve a mutex
// yielder's threat, nor lock events a channel yielder's, so each half's
// wake leaves the other half's yielders parked. A woken mutex yielder
// that re-parks counts another yield and another false-positive
// instantiation, so channel traffic must not wake it.
func TestWakesStayInTheirHalf(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Close()
	mu, ch := NewYielder(1, nil), NewYielder(2, nil)
	mu.mutex = true
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.yielders[mu.Thread], rt.yielders[ch.Thread] = mu, ch
	rt.WakeChanYieldersLocked()
	if mu.woken.Load() || !ch.woken.Load() {
		t.Fatalf("channel wake: mutex yielder woken %v, channel yielder woken %v; want false, true", mu.woken.Load(), ch.woken.Load())
	}
	ch.woken.Store(false)
	rt.wakeYieldersLocked(true)
	if !mu.woken.Load() || ch.woken.Load() {
		t.Fatalf("mutex wake: mutex yielder woken %v, channel yielder woken %v; want true, false", mu.woken.Load(), ch.woken.Load())
	}
	delete(rt.yielders, mu.Thread)
	delete(rt.yielders, ch.Thread)
}
