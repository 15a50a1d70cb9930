package dimmunix

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"communix/internal/sig"
)

// Tests for the history refresh (delta application), the wake of a
// yielder retreating from the matched fast path, the yielder re-home
// timeout, and the lock registry's cold-slow-lock aging.

// shardDigest renders the runtime's registered position state in a
// runtime-independent form: one line per (signature ID, slot, thread,
// lock name) entry, sorted. Empty shards and each hold's fast-vs-slow
// management mode are deliberately invisible — two runtimes whose
// decisions agree may cache different shard objects and keep different
// holds published, but must register exactly the same positions.
func (rt *Runtime) shardDigest() string {
	var lines []string
	rt.shards.Range(func(key, value any) bool {
		id := key.(*sig.Signature).ID()
		sh := value.(*sigShard)
		sh.mu.Lock()
		for slot, m := range sh.slots {
			for tid, locks := range m {
				for l := range locks {
					lines = append(lines, fmt.Sprintf("%s/%d/%d/%s", id, slot, tid, l.name))
				}
			}
		}
		sh.mu.Unlock()
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// expectedDigest is the from-scratch oracle for shardDigest: it matches
// every slow-managed hold, every queued wait and every fast hold
// published in the lock registry against the current index, as a
// registration of all of them into empty shards would. The caller holds
// rt.mu, with no fast acquisition or release in flight.
func (rt *Runtime) expectedDigest() string {
	idx := rt.history.Index()
	set := make(map[string]struct{})
	match := func(tid ThreadID, l *Lock, cs sig.Stack) {
		for _, r := range idx.Match(cs) {
			set[fmt.Sprintf("%s/%d/%d/%s", r.Sig.ID(), r.Slot, tid, l.name)] = struct{}{}
		}
	}
	for tid, ts := range rt.threads {
		for _, h := range ts.held {
			match(tid, h.lock, h.outer)
		}
		if ts.wait != nil {
			match(tid, ts.wait.lock, ts.wait.stack)
		}
	}
	rt.locksMu.Lock()
	locks := rt.locks
	rt.locksMu.Unlock()
	for _, l := range locks {
		if tid, outer, _, slow := l.fastSnapshot(); !slow && tid != 0 {
			match(tid, l, outer)
		}
	}
	lines := make([]string, 0, len(set))
	for line := range set {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkRefresh refreshes rt and demands that its registered positions
// equal the from-scratch oracle's. rt must be quiescent: no acquisition
// or release in flight.
func checkRefresh(t *testing.T, rt *Runtime, when string) {
	t.Helper()
	rt.mu.Lock()
	rt.refreshPositionsLocked()
	got, want := rt.shardDigest(), rt.expectedDigest()
	rt.mu.Unlock()
	if got != want {
		t.Fatalf("refreshed positions diverge from the oracle %s:\nregistered:\n%s\n\nexpected:\n%s", when, got, want)
	}
}

// refreshTestSig builds a two-thread signature with outer stacks unique
// to n. The digest fuzz only ever acquires with one of the two outer
// stacks, so the other slot stays empty and no acquisition can ever be
// suspended — keeping the single-goroutine driver fully synchronous.
func refreshTestSig(n int) *sig.Signature {
	s := sig.New(
		sig.ThreadSpec{
			Outer: mkStack(fmt.Sprintf("RF%dA", n), fmt.Sprintf("rf%da", n), 5),
			Inner: mkStack(fmt.Sprintf("RF%dA", n), fmt.Sprintf("rf%dai", n), 5),
		},
		sig.ThreadSpec{
			Outer: mkStack(fmt.Sprintf("RF%dB", n), fmt.Sprintf("rf%db", n), 5),
			Inner: mkStack(fmt.Sprintf("RF%dB", n), fmt.Sprintf("rf%dbi", n), 5),
		},
	)
	s.Origin = sig.OriginLocal
	return s
}

// TestDifferentialIncrementalRefreshDigest drives a runtime through
// fuzzed interleavings of acquisitions, releases, and history
// Add/Remove/Replace mutations, refreshing at settle points and
// comparing the registered positions against the from-scratch oracle
// (expectedDigest). Mutations sometimes accumulate across several
// versions before a refresh, and a final bulk step adds more signatures
// in one gap than any changelog of the history ever covered, then
// removes them all, with fast holds waiting at their sites.
func TestDifferentialIncrementalRefreshDigest(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRefreshDigestScript(t, rand.New(rand.NewSource(seed)), 500)
		})
	}
}

func runRefreshDigestScript(t *testing.T, r *rand.Rand, ops int) {
	const (
		nLocks   = 16
		nThreads = 6
		catalog  = 8
		bulk     = 4096 + 32
	)
	type catSig struct {
		s     *sig.Signature
		outer sig.Stack // the one outer stack acquisitions use
		in    bool      // currently installed
	}
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	h := rt.History()
	var locks []*Lock
	for i := 0; i < nLocks; i++ {
		locks = append(locks, rt.NewLock(fmt.Sprintf("L%d", i)))
	}

	next := 0
	newCat := func() *catSig {
		s := refreshTestSig(next)
		next++
		return &catSig{s: s, outer: s.Threads[0].Outer.Clone()}
	}
	cats := make([]*catSig, catalog)
	for i := range cats {
		cats[i] = newCat()
	}
	unmatched := []sig.Stack{
		mkStack("U0", "u0", 5),
		mkStack("U1", "u1", 4),
		mkStack("U2", "u2", 6),
	}

	owner := make([]ThreadID, nLocks)
	mustAcq := func(tid ThreadID, l *Lock, cs sig.Stack) {
		if err := rt.Acquire(tid, l, cs); err != nil {
			t.Fatalf("acquire(t%d, %s): %v", tid, l.name, err)
		}
	}
	mustRel := func(tid ThreadID, l *Lock) {
		if err := rt.Release(tid, l); err != nil {
			t.Fatalf("release(t%d, %s): %v", tid, l.name, err)
		}
	}

	for i := 0; i < ops; i++ {
		switch r.Intn(12) {
		case 0, 1, 2, 3, 4: // acquire on a free lock
			li := r.Intn(nLocks)
			if owner[li] != 0 {
				continue
			}
			tid := ThreadID(1 + r.Intn(nThreads))
			cs := cats[r.Intn(catalog)].outer
			if r.Intn(4) == 0 {
				cs = unmatched[r.Intn(len(unmatched))]
			}
			mustAcq(tid, locks[li], cs)
			owner[li] = tid
		case 5, 6: // release
			li := r.Intn(nLocks)
			if owner[li] == 0 {
				continue
			}
			mustRel(owner[li], locks[li])
			owner[li] = 0
		case 7: // hot-swap: add
			c := cats[r.Intn(catalog)]
			if c.in {
				continue
			}
			h.Add(c.s)
			c.in = true
			if r.Intn(3) > 0 { // sometimes leave the gap to accumulate
				checkRefresh(t, rt, fmt.Sprintf("after add at op %d", i))
			}
		case 8: // hot-swap: remove
			c := cats[r.Intn(catalog)]
			if !c.in {
				continue
			}
			h.Remove(c.s.ID())
			c.in = false
			if r.Intn(3) > 0 {
				checkRefresh(t, rt, fmt.Sprintf("after remove at op %d", i))
			}
		case 9: // hot-swap: replace an installed signature with a fresh one
			ci := r.Intn(catalog)
			c := cats[ci]
			if !c.in {
				continue
			}
			fresh := newCat()
			h.Replace(c.s.ID(), fresh.s)
			fresh.in = true
			cats[ci] = fresh
			if r.Intn(3) > 0 {
				checkRefresh(t, rt, fmt.Sprintf("after replace at op %d", i))
			}
		case 10, 11: // settle point
			checkRefresh(t, rt, fmt.Sprintf("at op %d", i))
		}
	}

	// Bulk ingestion in one gap. A few fast holds already sit at bulk
	// signatures' sites (unmatched when acquired), so the refresh must
	// import them; then every bulk signature goes in one more gap.
	sigs := make([]*sig.Signature, bulk)
	for k := range sigs {
		sigs[k] = newCat().s
	}
	var bulkLocks []*Lock
	for k := 0; k < 4; k++ {
		l := rt.NewLock(fmt.Sprintf("B%d", k))
		mustAcq(ThreadID(1+k), l, sigs[k*bulk/4].Threads[k%2].Outer)
		bulkLocks = append(bulkLocks, l)
	}
	checkRefresh(t, rt, "with fast holds at bulk sites")
	for _, s := range sigs {
		h.Add(s)
	}
	checkRefresh(t, rt, "after bulk ingestion")
	for _, s := range sigs {
		h.Remove(s.ID())
	}
	checkRefresh(t, rt, "after bulk removal")
	for k, l := range bulkLocks {
		mustRel(ThreadID(1+k), l)
	}
	checkRefresh(t, rt, "after releasing the bulk holds")

	if n, full := rt.RefreshCounts(); n == 0 || full != 0 {
		t.Errorf("RefreshCounts = (%d, %d), want (>0, 0)", n, full)
	}
}

// TestMatchedThreatWakesThroughShard pins the retreat of a threatened
// matched fast attempt: the attempt aborts its claim, the slow path
// re-evaluates and yields once, registering its yielder in the matched
// shard, and the blocker's lock-free release wakes it through that
// shard. The re-home timeout is a minute, so a wake lost between the
// fast abort and the slow park would hang the test.
func TestMatchedThreatWakesThroughShard(t *testing.T) {
	old := yieldRehomeNanos.Load()
	yieldRehomeNanos.Store(int64(time.Minute))
	defer yieldRehomeNanos.Store(old)

	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	ps := newPairStacks()
	rt.History().Add(ps.signature())
	a, b := rt.NewLock("A"), rt.NewLock("B")

	if err := rt.Acquire(1, a, ps.outerA); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Acquire(2, b, ps.outerB) }()
	eventually(t, func() bool {
		rt.mu.Lock()
		_, parked := rt.yielders[2]
		rt.mu.Unlock()
		return parked
	}, "thread 2 parked as a yielder")
	if y := rt.Stats().Yields; y != 1 {
		t.Fatalf("yields = %d, want exactly 1 (the aborted fast attempt must not count one)", y)
	}
	// The yielder is registered in the matched signature's shard, where
	// the blocker's matched fast release will find it.
	inShard := 0
	rt.shards.Range(func(_, v any) bool {
		sh := v.(*sigShard)
		sh.mu.Lock()
		if _, ok := sh.yielders[2]; ok {
			inShard++
		}
		sh.mu.Unlock()
		return true
	})
	if inShard == 0 {
		t.Fatal("yielder not registered in any shard")
	}

	// Thread 1's release is a matched fast release: it never takes rt.mu,
	// so only the shard registration can deliver the wake.
	if err := rt.Release(1, a); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, "thread 2 after the blocker released"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(2, b); err != nil {
		t.Fatal(err)
	}
	// No ghost registrations left behind.
	rt.shards.Range(func(_, v any) bool {
		sh := v.(*sigShard)
		sh.mu.Lock()
		n := len(sh.yielders)
		sh.mu.Unlock()
		if n != 0 {
			t.Errorf("shard still lists %d yielders after completion", n)
		}
		return true
	})
}

// TestYieldRehomeAfterSignatureRemoval covers the two ways a parked
// yielder learns its signature is gone: a refresh that applies the
// removal wakes the removed shard's yielders directly; with nothing else
// running, no refresh happens at all until the park re-homes on its own
// timeout and refreshes itself.
func TestYieldRehomeAfterSignatureRemoval(t *testing.T) {
	park := func(t *testing.T, rt *Runtime, refresh bool) (a, b *Lock, done chan error) {
		t.Helper()
		ps := newPairStacks()
		rt.History().Add(ps.signature())
		a, b = rt.NewLock("A"), rt.NewLock("B")
		if err := rt.Acquire(1, a, ps.outerA); err != nil {
			t.Fatal(err)
		}
		done = make(chan error, 1)
		go func() { done <- rt.Acquire(2, b, ps.outerB) }()
		eventually(t, func() bool {
			rt.mu.Lock()
			_, parked := rt.yielders[2]
			rt.mu.Unlock()
			return parked
		}, "thread 2 parked as a yielder")
		rt.History().Remove(ps.signature().ID())
		if refresh {
			rt.mu.Lock()
			rt.refreshPositionsLocked()
			rt.mu.Unlock()
		}
		return a, b, done
	}

	t.Run("unrefreshed-removal-rehome-timeout", func(t *testing.T) {
		old := yieldRehomeNanos.Load()
		yieldRehomeNanos.Store(int64(50 * time.Millisecond))
		defer yieldRehomeNanos.Store(old)

		rt := NewRuntime(Config{Policy: RecoverBreak})
		defer rt.Close()
		a, b, done := park(t, rt, false)
		// Nothing enters the slow path after the removal, so no refresh
		// applies it and nothing wakes the yielder; the shortened re-home
		// timeout must complete the acquisition.
		if err := waitErr(t, done, "thread 2 re-homing after its signature vanished"); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(2, b); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(1, a); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("delta-immediate-wake", func(t *testing.T) {
		// A re-home interval far beyond the test deadline: only the delta
		// application's removed-shard wake can complete the acquisition.
		old := yieldRehomeNanos.Load()
		yieldRehomeNanos.Store(int64(time.Minute))
		defer yieldRehomeNanos.Store(old)

		rt := NewRuntime(Config{Policy: RecoverBreak})
		defer rt.Close()
		a, b, done := park(t, rt, true)
		if err := waitErr(t, done, "thread 2 woken by the delta removal"); err != nil {
			t.Fatal(err)
		}
		if delta, _ := rt.RefreshCounts(); delta == 0 {
			t.Error("removal was not applied as a delta")
		}
		if err := rt.Release(2, b); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(1, a); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLockRegistryDropsColdSlowLocks pins the prune's generation
// heuristic: a lock parked free in slow mode survives exactly
// lockSlowKeepGenerations prunes and is dropped by the next one, and a
// dropped lock remains fully functional (its next slow acquisition and
// release re-register it).
func TestLockRegistryDropsColdSlowLocks(t *testing.T) {
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	const n = 64
	var cold []*Lock
	for i := 0; i < n; i++ {
		l := rt.NewLock(fmt.Sprintf("cold%d", i))
		// Park it free in slow mode, as an acquisition that errored out
		// (or a matched claim that retreated) would leave it.
		rt.mu.Lock()
		rt.revokeLocked(l)
		rt.mu.Unlock()
		cold = append(cold, l)
	}
	prune := func() {
		rt.locksMu.Lock()
		rt.pruneLocksLocked()
		rt.locksMu.Unlock()
	}
	for gen := 1; gen <= lockSlowKeepGenerations; gen++ {
		prune()
		if got := rt.registrySize(); got != n {
			t.Fatalf("prune %d dropped cold slow locks early: registry = %d, want %d", gen, got, n)
		}
	}
	prune()
	if got := rt.registrySize(); got != 0 {
		t.Fatalf("cold slow locks survived %d prunes: registry = %d, want 0", lockSlowKeepGenerations+1, got)
	}

	// A dropped slow lock still works: the acquisition takes the slow
	// path (the word still carries the slow bit) and the release restores
	// and re-registers it.
	l := cold[0]
	if err := rt.Acquire(7, l, mkStack("C", "c", 4)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(7, l); err != nil {
		t.Fatal(err)
	}
	if got := rt.registrySize(); got != 1 {
		t.Fatalf("released lock did not re-register: registry = %d, want 1", got)
	}
}

// TestLockRegistryChurnColdSlowLocks stresses the discard pattern the
// heuristic exists for: an application churns locks through one
// contended burst each, leaves every one parked in slow mode, and never
// touches them again. The registry must not retain them forever.
func TestLockRegistryChurnColdSlowLocks(t *testing.T) {
	rt := NewRuntime(Config{Policy: RecoverBreak})
	defer rt.Close()
	total := 2 * lockRegistryFloor
	for i := 0; i < total; i++ {
		l := rt.NewLock(fmt.Sprintf("churn%d", i))
		rt.mu.Lock()
		rt.revokeLocked(l)
		rt.mu.Unlock()
	}
	if got := rt.registrySize(); got >= total {
		t.Fatalf("no in-band prune fired during churn: registry = %d", got)
	}
	// A few quiescent prunes age out every remaining cold lock.
	for i := 0; i <= lockSlowKeepGenerations; i++ {
		rt.locksMu.Lock()
		rt.pruneLocksLocked()
		rt.locksMu.Unlock()
	}
	if got := rt.registrySize(); got != 0 {
		t.Fatalf("cold slow locks retained after aging: registry = %d, want 0", got)
	}
}
