package commdlk

import (
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
// yields in the host's yielder table (dimmunix.Runtime.ParkLocked): it
// parks, releasing rt.mu, until the threat dissolves or the wait+yield
// cycle breaker forces it through. It returns with rt.mu held: nil once
// the op may engage, ErrClosed if the runtime shut down while it was
// parked.
func (rt *Runtime) avoidLocked(gid uint64, cs sig.Stack, kind string) error {
	if rt.shared.AvoidanceDisabled {
		return nil
	}
	idx := rt.shared.History.Index()
	tid := dimmunix.ThreadID(gid)
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
		y := dimmunix.NewYielder(tid, blockers)
		rt.parked++
		rt.host.ParkLocked(y)
		rt.parked--
		if rt.closed {
			return ErrClosed
		}
		if y.Forced {
			rt.stats.AvoidanceBreaks++
			return nil
		}
		// Re-match against the current index: a refresh may have
		// removed or replaced the signature while we were parked.
		if cur := rt.shared.History.Index(); cur != idx {
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
func (rt *Runtime) threatLocked(matched []dimmunix.SlotRef, gid uint64) map[dimmunix.ThreadID]struct{} {
refs:
	for _, ref := range matched {
		blockers := make(map[dimmunix.ThreadID]struct{}, len(ref.Sig.Threads)-1)
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
func (rt *Runtime) coverSlotLocked(want sig.Stack, gid uint64, blockers map[dimmunix.ThreadID]struct{}, usedChan map[*chanCore]struct{}) bool {
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
			if _, used := blockers[dimmunix.ThreadID(d.gid)]; used {
				continue
			}
			if suffixMatches(d.stack, d.kind, want) {
				blockers[dimmunix.ThreadID(d.gid)] = struct{}{}
				usedChan[c] = struct{}{}
				return true
			}
		}
	}
	for g, op := range rt.blocked {
		if g == gid || op.kind != kind {
			continue
		}
		if _, used := blockers[dimmunix.ThreadID(g)]; used {
			continue
		}
		core := op.cases[0].core
		if _, used := usedChan[core]; used {
			continue
		}
		if suffixMatches(op.stack, op.kind, want) {
			blockers[dimmunix.ThreadID(g)] = struct{}{}
			usedChan[core] = struct{}{}
			return true
		}
	}
	return false
}
