package dimmunix

import (
	"sync"

	"communix/internal/sig"
)

// Sharded avoidance state.
//
// Threat evaluation (§II-A) asks "would granting (thread, lock, stack)
// complete an instantiation of some history signature?" — and answering
// it for one signature only ever joins the positions of that signature's
// own slots. Position state therefore shards cleanly by signature ID:
// each sigShard owns one signature's slot→thread position maps plus the
// wake list of the threads currently yielding against that signature,
// guarded by its own mutex.
//
// Lock hierarchy (outermost first):
//
//	lock fast word  →  sig shards (ascending signature ID)
//	rt.mu           →  sig shards (ascending signature ID)
//
// (The shard table itself is a lockless sync.Map.) The two chains never
// join: a shard critical section takes no other lock and never blocks,
// so holding shards while rt.mu is held (the slow path) or while a
// lock's pending claim is outstanding (the matched fast path) cannot
// deadlock. A matched acquisition whose stack matches
// several signatures locks their shards simultaneously in ascending ID
// order — the avoidance index yields refs already sorted that way.
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
	// slots maps slot index → thread → the set of locks that thread holds
	// (or waits for) with a stack matching that slot's outer stack. A set,
	// not a single lock: one thread can hold several locks whose stacks
	// match the same slot, and dropping one of them must not erase the
	// others' positions.
	slots map[int]map[ThreadID]map[*Lock]struct{}
	// yielders are the threads suspended by avoidance whose stacks match
	// this signature; a matched fast release wakes them without touching
	// rt.mu. Every yielder is also in rt.yielders (for cycle resolution,
	// global wakes, and Close).
	yielders map[ThreadID]*yielder
}

func newSigShard() *sigShard {
	return &sigShard{
		slots:    make(map[int]map[ThreadID]map[*Lock]struct{}),
		yielders: make(map[ThreadID]*yielder),
	}
}

// put records (tid, l) in the slot's position map; idempotent, so a
// revocation re-registering a fast hold's slots changes nothing. Caller
// holds sh.mu.
func (sh *sigShard) put(slot int, tid ThreadID, l *Lock) {
	m := sh.slots[slot]
	if m == nil {
		m = make(map[ThreadID]map[*Lock]struct{})
		sh.slots[slot] = m
	}
	ls := m[tid]
	if ls == nil {
		ls = make(map[*Lock]struct{}, 1)
		m[tid] = ls
	}
	ls[l] = struct{}{}
}

// drop removes (tid, l) from the slot's position map, reporting whether
// an entry was removed. Caller holds sh.mu.
func (sh *sigShard) drop(slot int, tid ThreadID, l *Lock) bool {
	m := sh.slots[slot]
	if m == nil {
		return false
	}
	ls := m[tid]
	if _, ok := ls[l]; !ok {
		return false
	}
	delete(ls, l)
	if len(ls) == 0 {
		delete(m, tid)
	}
	return true
}

// wakeYielders prompts every thread yielding against this signature to
// re-evaluate. Caller holds sh.mu.
func (sh *sigShard) wakeYielders() {
	for _, y := range sh.yielders {
		wakeYielder(y)
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
// top-site group, sorted by signature ID — to their distinct shards,
// preserving the ascending-ID order that doubles as the multi-shard lock
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

// shardsForRefs is appendShards with a fresh slice.
func (rt *Runtime) shardsForRefs(refs []SlotRef) []*sigShard {
	return rt.appendShards(make([]*sigShard, 0, len(refs)), refs)
}

// lockShards locks every shard in ss, which must be in ascending ID
// order (shardsForRefs output).
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

// registerPositions records which signature slots (tid, l, cs) matches
// and returns the slot keys for later unregistration. Shards are locked
// one at a time: threat evaluation never joins positions across
// signatures, so per-signature atomicity suffices for registration.
// Callers hold rt.mu (the slow path's bookkeeping).
func (rt *Runtime) registerPositions(tid ThreadID, l *Lock, cs sig.Stack) []slotKey {
	refs := rt.history.MatchOuter(cs)
	if len(refs) == 0 {
		return nil
	}
	keys := make([]slotKey, 0, len(refs))
	for _, r := range refs {
		sh := rt.shardFor(r.Sig)
		sh.mu.Lock()
		sh.put(r.Slot, tid, l)
		sh.mu.Unlock()
		keys = append(keys, slotKey{shard: sh, slot: r.Slot})
	}
	return keys
}

// putPositions records (tid, l) in every slot of refs and appends the
// slot keys to dst. shards must be appendShards(refs), all held by the
// caller — the same critical section that evaluated the threat, so no
// other acquisition can find these slots free in between.
func putPositions(dst []slotKey, refs []SlotRef, shards []*sigShard, tid ThreadID, l *Lock) []slotKey {
	si := 0
	for i, r := range refs {
		if i > 0 && refs[i-1].Sig != r.Sig {
			si++
		}
		shards[si].put(r.Slot, tid, l)
		dst = append(dst, slotKey{shard: shards[si], slot: r.Slot})
	}
	return dst
}

// unregisterPositions removes (tid, l) from the given slots — l is the
// lock the hold or wait the keys belong to was for. The keys carry
// their shard pointers, so no table probe is needed; a key whose shard
// was meanwhile pruned (signature removed) drops from the dead object —
// a harmless no-op, since the refresh cleared it. Slow-path callers
// (rt.mu held) follow up with wakeYieldersLocked, which covers every
// shard's yielders, so no per-shard wake is needed here.
func (rt *Runtime) unregisterPositions(tid ThreadID, l *Lock, keys []slotKey) {
	for _, key := range keys {
		key.shard.mu.Lock()
		key.shard.drop(key.slot, tid, l)
		key.shard.mu.Unlock()
	}
}

// instantiationThreat reports whether granting (tid, l) would complete
// an instantiation of some signature in refs: it returns the signature's
// ID and the set of threads occupying the other slots. An empty ID means
// no threat. shards must be shardsForRefs(refs), and the caller must
// hold every shard's lock.
func (rt *Runtime) instantiationThreat(refs []SlotRef, shards []*sigShard, tid ThreadID, l *Lock) (string, map[ThreadID]struct{}) {
	si := 0
	for i, r := range refs {
		if i > 0 && refs[i-1].Sig != r.Sig {
			si++
		}
		assignment := shards[si].matchSlots(r, tid, l)
		if assignment == nil {
			continue
		}
		blockers := make(map[ThreadID]struct{}, len(assignment))
		for t := range assignment {
			blockers[t] = struct{}{}
		}
		return r.ID, blockers
	}
	return "", nil
}

// matchSlots tries to occupy every slot of r.Sig other than r.Slot with
// distinct current positions: distinct threads (none equal to tid)
// holding or waiting for distinct locks (none equal to l). It returns
// the thread→lock assignment, or nil if impossible. Caller holds sh.mu.
//
// Two-thread signatures — the overwhelmingly common shape (a deadlock
// cycle of two) — take an allocation-free scan of the single other
// slot; wider signatures fall back to general backtracking.
func (sh *sigShard) matchSlots(r SlotRef, tid ThreadID, l *Lock) map[ThreadID]*Lock {
	n := len(r.Sig.Threads)
	if n == 2 {
		for t, locks := range sh.slots[1-r.Slot] {
			if t == tid {
				continue
			}
			for held := range locks {
				if held != l {
					return map[ThreadID]*Lock{t: held}
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
	usedThreads := map[ThreadID]*Lock{tid: nil}
	usedLocks := map[*Lock]struct{}{l: {}}

	var assign func(k int) bool
	assign = func(k int) bool {
		if k == len(slots) {
			return true
		}
		for t, locks := range sh.slots[slots[k]] {
			if _, taken := usedThreads[t]; taken {
				continue
			}
			for held := range locks {
				if _, taken := usedLocks[held]; taken {
					continue
				}
				usedThreads[t] = held
				usedLocks[held] = struct{}{}
				if assign(k + 1) {
					return true
				}
				delete(usedThreads, t)
				delete(usedLocks, held)
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
// exists, or the index moved under the claim).
//
// When the threat is live, the evaluation is not thrown away: a
// threatCarry is returned holding the computed blocker set inside a
// yielder already registered in the matched shards — registered under
// the same shard critical section that evaluated the threat, so a
// position release resolving it before the slow path parks cannot be
// missed (the wake buffers in the yielder's channel). avoidLocked adopts
// the carry if the index is still current, skipping the rt.mu-side
// re-match and re-evaluation.
func (rt *Runtime) matchedFastAcquire(tid ThreadID, l *Lock, cs sig.Stack, idx *AvoidIndex, refs []SlotRef) (bool, *threatCarry) {
	// Pre-validate before resolving shards: appendShards creates missing
	// shard objects, and a claim working off a superseded index would
	// resurrect just-pruned shards for removed signatures. This check
	// makes that a narrow race instead of the common case; an orphan
	// created in the remaining window is empty (the claim aborts below)
	// and is unlinked by the next refresh that touches the signature.
	if rt.histVer.Load() != idx.version || rt.history.idx.Load() != idx {
		return false, nil
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
		return false, nil
	}
	if sigID, blockers := rt.instantiationThreat(refs, shards, tid, l); sigID != "" {
		y := &yielder{
			thread:   tid,
			blockers: blockers,
			wake:     make(chan struct{}, 1),
		}
		for _, sh := range shards {
			sh.yielders[tid] = y
		}
		// Copy the shard list off the stack buffer only on this rare
		// path, so the no-threat fast path stays allocation-free.
		carry := &threatCarry{
			idx:    idx,
			shards: append([]*sigShard(nil), shards...),
			sigID:  sigID,
			y:      y,
		}
		unlockShards(shards)
		return false, carry
	}
	keys := putPositions(l.fastSlots[:0], refs, shards, tid, l) // reuse the backing array across holds
	unlockShards(shards)
	l.fastOuter = cs
	l.fastSlots = keys
	l.fastTop.Store(stackTopHash(cs))
	l.fast.Store(uint64(tid))
	rt.stats.acquisitions.Add(1)
	return true, nil
}

// unregisterFastHold drops a published matched hold's positions and
// wakes the yielders of every affected signature — the only cross-thread
// signal a matched release owes, delivered without rt.mu. It runs while
// the releasing thread still owns the word, so no new hold can register
// the same (signature, slot, thread) entries concurrently; clearing
// l.fastSlots to length zero makes a rerun (release retrying after a
// mid-flight revocation) a no-op.
func (rt *Runtime) unregisterFastHold(tid ThreadID, l *Lock) {
	keys := l.fastSlots
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].shard == keys[i].shard {
			j++
		}
		sh := keys[i].shard
		sh.mu.Lock()
		removed := false
		for _, k := range keys[i:j] {
			if sh.drop(k.slot, tid, l) {
				removed = true
			}
		}
		if removed {
			sh.wakeYielders()
		}
		sh.mu.Unlock()
		i = j
	}
	l.fastSlots = keys[:0]
}
