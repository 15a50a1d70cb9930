package commdlk

import (
	"maps"
	"slices"
	"time"

	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// matchOuter returns the history slots whose outer stacks the raw
// captured stack cs — performing an op of the given kind — suffix
// matches. The index probe stamps the kind onto a copy of the top frame
// (raw captures carry none), so a channel op can only ever match a
// channel signature of the same construct, and never a mutex signature.
func matchOuter(idx *dimmunix.AvoidIndex, cs sig.Stack, kind string) []dimmunix.SlotRef {
	if len(cs) == 0 || idx.Len() == 0 {
		return nil
	}
	probe := cs[len(cs)-1]
	probe.Kind = kind
	refs := idx.CandidatesAt(&probe)
	if len(refs) == 0 {
		return nil
	}
	var out []dimmunix.SlotRef
	for _, r := range refs {
		if suffixMatches(cs, kind, r.Sig.Threads[r.Slot].Outer) {
			out = append(out, r)
		}
	}
	return out
}

// avoidLocked is the channel yield, run under rt.mu before an op
// engages its channel. If the op's stack matches a history signature's
// outer slot and the signature's other slots are occupied — distinct
// goroutines engaged on distinct channels at the slots' sites — the op
// parks, releasing rt.mu, until the threat dissolves, with the re-home
// timeout shared with dimmunix's mutex yielders and a wait+yield cycle
// breaker that forces the smallest-id yielder through. It returns with
// rt.mu held: nil once the op may engage, ErrClosed if the runtime shut
// down while it was parked.
func (rt *Runtime) avoidLocked(gid uint64, cs sig.Stack, kind string) error {
	if rt.cfg.AvoidanceDisabled {
		return nil
	}
	idx := rt.history.Index()
	yielded := false
	for matched := matchOuter(idx, cs, kind); len(matched) > 0; {
		if rt.closed {
			return ErrClosed
		}
		blockers := rt.threatLocked(matched, gid)
		if blockers == nil {
			return nil
		}
		if !yielded {
			yielded = true
			rt.stats.Yields++
		}
		y := &yielder{gid: gid, blockers: blockers, wake: make(chan struct{}, 1)}
		rt.yielders[gid] = y
		rt.resolveYieldCyclesLocked()
		if y.proceed {
			delete(rt.yielders, gid)
			rt.stats.AvoidanceBreaks++
			return nil
		}
		rt.mu.Unlock()

		rehome := time.NewTimer(dimmunix.YieldRehomeTimeout())
		select {
		case <-y.wake:
		case <-rehome.C:
		case <-rt.closedCh:
		}
		rehome.Stop()

		rt.mu.Lock()
		delete(rt.yielders, gid)
		// Re-match against the current index: a refresh may have
		// removed or replaced the signature while we were parked.
		if cur := rt.history.Index(); cur != idx {
			idx, matched = cur, matchOuter(cur, cs, kind)
		}
	}
	return nil
}

// threatLocked evaluates whether completing an engagement by gid at a
// matched signature slot would instantiate the signature: every other
// slot must be occupied by a distinct goroutine's engagement on a
// distinct channel. Returns the occupying goroutines of the first
// threatening signature in ref order (the index's deterministic order),
// or nil. Caller holds rt.mu.
func (rt *Runtime) threatLocked(matched []dimmunix.SlotRef, gid uint64) map[uint64]struct{} {
refs:
	for _, ref := range matched {
		blockers := make(map[uint64]struct{}, len(ref.Sig.Threads)-1)
		usedChan := make(map[*chanCore]struct{}, len(ref.Sig.Threads)-1)
		for slot := range ref.Sig.Threads {
			if slot == ref.Slot {
				continue
			}
			if !rt.coverSlotLocked(ref.Sig.Threads[slot].Outer, gid, blockers, usedChan) {
				continue refs
			}
		}
		if len(blockers) > 0 {
			return blockers
		}
	}
	return nil
}

// coverSlotLocked finds an engagement occupying one signature slot: a
// live deposit or a blocked op, by a goroutine other than gid and not
// already covering another slot, on a channel not already used, whose
// stack matches the slot's outer stack (kind-aware). Deposits come
// first, walking only the channels that hold some (rt.filled, in
// first-fill order, each FIFO), then blocked ops via the first channel
// they wait on. On success the chosen goroutine and channel are
// recorded in blockers/usedChan. Caller holds rt.mu.
func (rt *Runtime) coverSlotLocked(want sig.Stack, gid uint64, blockers map[uint64]struct{}, usedChan map[*chanCore]struct{}) bool {
	if len(want) == 0 {
		return false
	}
	kind := want[len(want)-1].Kind
	for _, c := range rt.filled {
		if _, used := usedChan[c]; used {
			continue
		}
		for _, d := range c.deposits {
			if d.gid == gid || d.kind != kind {
				continue
			}
			if _, used := blockers[d.gid]; used {
				continue
			}
			if suffixMatches(d.stack, d.kind, want) {
				blockers[d.gid] = struct{}{}
				usedChan[c] = struct{}{}
				return true
			}
		}
	}
	for g, op := range rt.blocked {
		if g == gid || op.kind != kind {
			continue
		}
		if _, used := blockers[g]; used {
			continue
		}
		core := op.cases[0].core
		if _, used := usedChan[core]; used {
			continue
		}
		if suffixMatches(op.stack, op.kind, want) {
			blockers[g] = struct{}{}
			usedChan[core] = struct{}{}
			return true
		}
	}
	return false
}

// resolveYieldCyclesLocked breaks combined wait+yield cycles: a parked
// yielder whose blockers — followed transitively through other
// yielders' blockers and blocked ops' rescuer sets — lead back to
// itself would otherwise park forever (nothing will release the
// engagements it waits out). The smallest-id such yielder is forced
// through, mirroring dimmunix's avoidance-cycle breaker. Caller holds
// rt.mu.
func (rt *Runtime) resolveYieldCyclesLocked() {
	if len(rt.yielders) == 0 {
		return
	}
	// Ascending id: force the smallest-id member of any cycle.
	for _, g := range slices.Sorted(maps.Keys(rt.yielders)) {
		y := rt.yielders[g]
		if y.proceed {
			continue
		}
		if rt.reachesYielderLocked(y.blockers, g, make(map[uint64]bool)) {
			y.proceed = true
			select {
			case y.wake <- struct{}{}:
			default:
			}
			return
		}
	}
}

// reachesYielderLocked reports whether any of the given goroutines can
// reach target by following blocker/rescuer edges. Caller holds rt.mu.
func (rt *Runtime) reachesYielderLocked(from map[uint64]struct{}, target uint64, visited map[uint64]bool) bool {
	for g := range from {
		if g == target {
			return true
		}
		if visited[g] {
			continue
		}
		visited[g] = true
		if y, ok := rt.yielders[g]; ok && !y.proceed {
			if rt.reachesYielderLocked(y.blockers, target, visited) {
				return true
			}
		}
		if op, ok := rt.blocked[g]; ok {
			for _, oc := range op.cases {
				rs := rt.caseRescuersLocked(g, oc)
				set := make(map[uint64]struct{}, len(rs))
				for _, r := range rs {
					set[r] = struct{}{}
				}
				if rt.reachesYielderLocked(set, target, visited) {
					return true
				}
			}
		}
	}
	return false
}
