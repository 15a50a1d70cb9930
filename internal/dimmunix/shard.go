package dimmunix

import (
	"sync"

	"communix/internal/sig"
)

// Sharded avoidance state.
//
// Threat evaluation (§II-A) asks "would engaging (thread, resource,
// stack) complete an instantiation of some history signature?", for a
// lock acquisition and a channel op alike — and answering it for one
// signature only ever joins the positions of that signature's own
// slots. Position state therefore shards cleanly by signature:
// each sigShard owns one signature's slot→thread position maps plus the
// wake list of the threads currently yielding against that signature,
// guarded by its own mutex.
//
// Lock hierarchy (outermost first):
//
//	lock fast word  →  sig shards (ascending insertion number)
//	rt.mu           →  sig shards (ascending insertion number)
//
// (The shard table itself is a lockless sync.Map.) The two chains never
// join: a shard critical section takes no other lock and never blocks,
// so holding shards while rt.mu is held (the slow path) or while a
// lock's pending claim is outstanding (the matched fast path) cannot
// deadlock. A matched acquisition whose stack matches several
// signatures locks their shards simultaneously in ascending order of
// the signatures' history insertion numbers — the avoidance index
// yields refs already sorted that way.
//
// Consistency argument: evaluation and registration for one signature
// are atomic under that signature's shard lock, so two threads racing to
// occupy the last two slots of a signature serialize — one sees the
// other's registration and yields, exactly as under the old global
// table. Registration across *different* signatures needs no joint
// atomicity because no evaluation ever reads two signatures' slots
// together.

// sigShard holds one signature's avoidance state. Shards are keyed by
// the history's stable *sig.Signature instance (see Runtime.shards), so
// resolving a shard from an index ref is a pointer-keyed map probe, and
// release paths carry the shard pointer in their slot keys and need no
// probe at all.
type sigShard struct {
	mu sync.Mutex
	// slots maps slot index → thread → the set of resources that thread
	// is engaged on (holds or waits for a lock, holds a deposit in or
	// blocks on a channel) with a stack matching that slot's outer stack.
	// A set, not a single resource: one thread can hold several locks
	// whose stacks match the same slot, and dropping one of them must not
	// erase the others' positions.
	slots map[int]map[ThreadID]map[*Resource]struct{}
	// yielders are the threads suspended by avoidance whose stacks match
	// this signature; a release that drops one of its positions wakes
	// them (UnregisterPositions). Every yielder is also in rt.yielders
	// (for cycle resolution and Close).
	yielders map[ThreadID]*Yielder
}

func newSigShard() *sigShard {
	return &sigShard{
		slots:    make(map[int]map[ThreadID]map[*Resource]struct{}),
		yielders: make(map[ThreadID]*Yielder),
	}
}

// put records (tid, r) in the slot's position map; idempotent, so a
// revocation re-registering a fast hold's slots changes nothing. Caller
// holds sh.mu.
func (sh *sigShard) put(slot int, tid ThreadID, r *Resource) {
	m := sh.slots[slot]
	if m == nil {
		m = make(map[ThreadID]map[*Resource]struct{})
		sh.slots[slot] = m
	}
	ls := m[tid]
	if ls == nil {
		ls = make(map[*Resource]struct{}, 1)
		m[tid] = ls
	}
	ls[r] = struct{}{}
}

// drop removes (tid, r) from the slot's position map, reporting whether
// an entry was removed. Caller holds sh.mu.
func (sh *sigShard) drop(slot int, tid ThreadID, r *Resource) bool {
	m := sh.slots[slot]
	if m == nil {
		return false
	}
	ls := m[tid]
	if _, ok := ls[r]; !ok {
		return false
	}
	delete(ls, r)
	if len(ls) == 0 {
		delete(m, tid)
	}
	return true
}

// wakeYielders prompts every thread yielding against this signature to
// re-evaluate. Caller holds sh.mu.
func (sh *sigShard) wakeYielders() {
	for _, y := range sh.yielders {
		y.wake()
	}
}

// shardFor returns (creating if needed) the shard owning the
// signature's positions. Keyed by the history's stable signature
// instance: a pointer hash and, in steady state, one lock-free
// sync.Map load.
func (rt *Runtime) shardFor(s *sig.Signature) *sigShard {
	if sh, ok := rt.shards.Load(s); ok {
		return sh.(*sigShard)
	}
	sh, _ := rt.shards.LoadOrStore(s, newSigShard())
	return sh.(*sigShard)
}

// appendShards maps refs — as the avoidance index produces them: one
// top-site group, sorted by insertion number — to their distinct shards,
// preserving the ascending order that doubles as the multi-shard lock
// order. Results are appended to dst so hot callers can pass a
// stack-backed buffer.
func (rt *Runtime) appendShards(dst []*sigShard, refs []SlotRef) []*sigShard {
	for i, r := range refs {
		if i > 0 && refs[i-1].Sig == r.Sig {
			continue
		}
		dst = append(dst, rt.shardFor(r.Sig))
	}
	return dst
}

// lockShards locks every shard in ss, which must be in ascending
// insertion-number order (appendShards output).
func lockShards(ss []*sigShard) {
	for _, sh := range ss {
		sh.mu.Lock()
	}
}

// unlockShards releases the shards in reverse order.
func unlockShards(ss []*sigShard) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].mu.Unlock()
	}
}

// RegisterPositions records which signature slots (tid, r, cs) matches
// and returns the slot keys for later unregistration, checking no
// threat: the engagement was admitted already. Shards are locked one at
// a time: threat evaluation never joins positions across signatures, so
// per-signature atomicity suffices for registration. Caller holds rt.mu.
func (rt *Runtime) RegisterPositions(tid ThreadID, r *Resource, cs sig.Stack) Slots {
	refs := rt.history.MatchOuter(cs)
	if len(refs) == 0 {
		return nil
	}
	keys := make(Slots, 0, len(refs))
	for _, ref := range refs {
		sh := rt.shardFor(ref.Sig)
		sh.mu.Lock()
		sh.put(ref.Slot, tid, r)
		sh.mu.Unlock()
		keys = append(keys, slotKey{shard: sh, slot: ref.Slot})
	}
	return keys
}

// putPositions records (tid, r) in every slot of refs and appends the
// slot keys to dst. shards must be appendShards(refs), all held by the
// caller — the same critical section that evaluated the threat, so no
// other engagement can find these slots free in between.
func putPositions(dst Slots, refs []SlotRef, shards []*sigShard, tid ThreadID, r *Resource) Slots {
	si := 0
	for i, ref := range refs {
		if i > 0 && refs[i-1].Sig != ref.Sig {
			si++
		}
		shards[si].put(ref.Slot, tid, r)
		dst = append(dst, slotKey{shard: shards[si], slot: ref.Slot})
	}
	return dst
}

// UnregisterPositions removes (tid, r) from the given slots — r is the
// resource of the engagement the keys belong to — and wakes the yielders
// of every shard it dropped an entry from: only a dropped position can
// dissolve a threat, so yielders elsewhere sleep on. The keys carry
// their shard pointers, so no table probe is needed; a key whose shard
// was meanwhile pruned (signature removed) drops from the dead object —
// a harmless no-op, since the refresh cleared it and woke its yielders.
// It takes no rt.mu: a matched fast release calls it while still owning
// the word.
func (rt *Runtime) UnregisterPositions(tid ThreadID, r *Resource, keys Slots) {
	for _, key := range keys {
		key.shard.mu.Lock()
		if key.shard.drop(key.slot, tid, r) {
			key.shard.wakeYielders()
		}
		key.shard.mu.Unlock()
	}
}

// instantiationThreat reports whether engaging tid on res would
// complete an instantiation of some signature in refs: it returns that
// signature's ref and the set of threads occupying the other slots. A
// nil blocker set means no threat. shards must be appendShards(refs),
// and the caller must hold every shard's lock.
func (rt *Runtime) instantiationThreat(refs []SlotRef, shards []*sigShard, tid ThreadID, res *Resource) (SlotRef, map[ThreadID]struct{}) {
	si := 0
	for i, r := range refs {
		if i > 0 && refs[i-1].Sig != r.Sig {
			si++
		}
		assignment := shards[si].matchSlots(r, tid, res)
		if assignment == nil {
			continue
		}
		blockers := make(map[ThreadID]struct{}, len(assignment))
		for t := range assignment {
			blockers[t] = struct{}{}
		}
		return r, blockers
	}
	return SlotRef{}, nil
}

// matchSlots tries to occupy every slot of r.Sig other than r.Slot with
// distinct current positions: distinct threads (none equal to tid)
// engaged on distinct resources (none equal to res), whatever mix of
// locks and channels they are. It returns the thread→resource
// assignment, or nil if impossible. Caller holds sh.mu.
//
// Two-thread signatures — the overwhelmingly common shape (a deadlock
// cycle of two) — take an allocation-free scan of the single other
// slot; wider signatures fall back to general backtracking.
func (sh *sigShard) matchSlots(r SlotRef, tid ThreadID, res *Resource) map[ThreadID]*Resource {
	n := len(r.Sig.Threads)
	if n == 2 {
		for t, held := range sh.slots[1-r.Slot] {
			if t == tid {
				continue
			}
			for h := range held {
				if h != res {
					return map[ThreadID]*Resource{t: h}
				}
			}
		}
		return nil
	}
	slots := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != r.Slot {
			slots = append(slots, i)
		}
	}
	usedThreads := map[ThreadID]*Resource{tid: nil}
	usedResources := map[*Resource]struct{}{res: {}}

	var assign func(k int) bool
	assign = func(k int) bool {
		if k == len(slots) {
			return true
		}
		for t, held := range sh.slots[slots[k]] {
			if _, taken := usedThreads[t]; taken {
				continue
			}
			for h := range held {
				if _, taken := usedResources[h]; taken {
					continue
				}
				usedThreads[t] = h
				usedResources[h] = struct{}{}
				if assign(k + 1) {
					return true
				}
				delete(usedThreads, t)
				delete(usedResources, h)
			}
		}
		return false
	}
	if !assign(0) {
		return nil
	}
	delete(usedThreads, tid)
	return usedThreads
}

// matchedFastAcquire completes a matched acquisition without rt.mu: with
// the lock's pending claim already won by fastAcquire, it takes only the
// matched signatures' shard locks, evaluates the instantiation threat,
// and — when there is none — registers the hold's positions and
// publishes the word. It reports whether the grant was published; false
// means the caller must abort the claim and take the slow path (a threat
// exists, or the index moved under the claim). A threatened attempt
// registers nothing: the slow path re-evaluates under rt.mu and the same
// shard locks and registers its yielder in those shards before releasing
// them, so no release that resolves the threat can miss it.
func (rt *Runtime) matchedFastAcquire(tid ThreadID, l *Lock, cs sig.Stack, idx *AvoidIndex, refs []SlotRef) bool {
	// Pre-validate before resolving shards: appendShards creates missing
	// shard objects, and a claim working off a superseded index would
	// resurrect just-pruned shards for removed signatures. This check
	// makes that a narrow race instead of the common case; an orphan
	// created in the remaining window is empty (the claim aborts below)
	// and is unlinked by the next refresh that touches the signature.
	if rt.histVer.Load() != idx.version || rt.history.idx.Load() != idx {
		return false
	}
	var sbuf [4]*sigShard // stacks match 1 signature almost always
	shards := rt.appendShards(sbuf[:0], refs)
	lockShards(shards)
	// Re-validate, while the shards are held, that the position table
	// fully reflects the claim-time index:
	//
	//   - rt.histVer != idx.version means a history change has not been
	//     refreshed into the shards yet (or a refresh is mid-flight) —
	//     the threat evaluation below would run against an incomplete
	//     table (e.g. a fast hold the new index matches but no sweep has
	//     imported). histVer is published only after a refresh finishes,
	//     so equality ordered by these shard locks means every import
	//     and re-registration for this version is visible here.
	//   - a moved index pointer means a newer index was published after
	//     the claim; the reference path would decide against that one.
	//
	// Either way the claim retreats to the slow path, whose
	// refreshPositionsLocked restores the invariant. The converse race —
	// a refresh starting after these checks — is caught by the claim
	// word: our claiming CAS precedes the refresh's lock sweep in the
	// seq-cst order, so the sweep observes the claim and imports the
	// published hold under the new index.
	if rt.histVer.Load() != idx.version || rt.history.idx.Load() != idx {
		unlockShards(shards)
		return false
	}
	if _, blockers := rt.instantiationThreat(refs, shards, tid, &l.Resource); blockers != nil {
		unlockShards(shards)
		return false
	}
	keys := putPositions(l.fastSlots[:0], refs, shards, tid, &l.Resource) // reuse the backing array across holds
	unlockShards(shards)
	l.fastOuter = cs
	l.fastSlots = keys
	l.fastTop.Store(stackTopHash(cs))
	l.fast.Store(uint64(tid))
	rt.stats.acquisitions.Add(1)
	return true
}
