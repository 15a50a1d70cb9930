package dimmunix

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"communix/internal/chunk"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

func TestHistoryAddDeduplicates(t *testing.T) {
	h := NewHistory()
	s := newPairStacks().signature()
	if !h.Add(s) {
		t.Fatal("first add should succeed")
	}
	if h.Add(s.Clone()) {
		t.Error("identical signature should be deduplicated")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
	if h.Get(s.ID()) == nil {
		t.Error("Get should find the signature")
	}
}

// TestHistoryKeepsIDTwins: sig.ID is not injective, so a history that
// holds one of two twins (sigtest.IDTwins) must still store the other —
// through Add, GeneralizeBatch and detection — and give it a key of its
// own, so the index's order (the multi-shard lock order) stays total.
func TestHistoryKeepsIDTwins(t *testing.T) {
	a, b := sigtest.IDTwins()
	id := a.ID()
	if b.ID() != id || a.Equal(b) {
		t.Fatal("sigtest.IDTwins are not twins")
	}
	// keysUnique fails unless every indexed signature has a key no other
	// one shares.
	keysUnique := func(t *testing.T, h *History) {
		t.Helper()
		owner := make(map[uint64]*sig.Signature)
		for _, refs := range h.Index().byTop {
			for _, r := range refs {
				if o, ok := owner[r.Seq]; ok && o != r.Sig {
					t.Fatalf("two signatures share the key %d", r.Seq)
				}
				owner[r.Seq] = r.Sig
			}
		}
		if len(owner) != h.Len() {
			t.Fatalf("%d keys for %d signatures", len(owner), h.Len())
		}
	}

	t.Run("Add", func(t *testing.T) {
		for _, pair := range [][2]*sig.Signature{{a, b}, {b, a}} {
			first, second := pair[0], pair[1]
			h := NewHistory()
			if !h.Add(first) || !h.Add(second) {
				t.Fatal("both twins must be added")
			}
			if h.Add(first.Clone()) || h.Add(second.Clone()) || h.Len() != 2 {
				t.Fatalf("re-adding a twin changed the history (%d signatures)", h.Len())
			}
			if !h.Get(id).Equal(first) {
				t.Error("Get by ID must return the twin stored first")
			}
			keysUnique(t, h)
			// Remove by ID drops the first; the second keeps its key.
			if !h.Remove(id) || h.Len() != 1 || h.Add(second.Clone()) {
				t.Fatal("Remove by ID must drop only the twin stored first")
			}
			if !h.Add(first) || !h.Get(id).Equal(first) || h.Len() != 2 {
				t.Fatal("a removed twin must come back under its ID")
			}
			keysUnique(t, h)
			// Replace by ID with the second twin drops the first and
			// keeps the second, stored already, once.
			if !h.Replace(id, second) || h.Len() != 1 || !h.All()[0].Equal(second) {
				t.Fatalf("Replace by ID: %d signatures", h.Len())
			}
		}
	})

	t.Run("GeneralizeBatch", func(t *testing.T) {
		h := NewHistory()
		batch := []Candidate{
			{Sig: a.Clone(), Bug: a.BugHash()},
			{Sig: b.Clone(), Bug: b.BugHash()},
			{Sig: b.Clone(), Bug: b.BugHash()},
			{Sig: a.Clone(), Bug: a.BugHash()},
		}
		if added := h.GeneralizeBatch(batch, sig.MergePolicy{}); added != 2 || h.Len() != 2 {
			t.Fatalf("GeneralizeBatch added %d (%d signatures), want both twins once", added, h.Len())
		}
		keysUnique(t, h)
	})

	t.Run("Detect", func(t *testing.T) {
		for _, pair := range [][2]*sig.Signature{{a, b}, {b, a}} {
			held, fingerprint := pair[0], pair[1]
			h := NewHistory()
			h.Add(held)
			var mu sync.Mutex
			var events []Deadlock
			rt := NewRuntime(Config{
				History:           h,
				Policy:            RecoverBreak,
				AvoidanceDisabled: true,
				OnDeadlock: func(d Deadlock) {
					mu.Lock()
					events = append(events, d)
					mu.Unlock()
				},
			})
			// The fingerprint's two thread specs, in deadlockPair's roles.
			t1, t2 := fingerprint.Threads[0], fingerprint.Threads[1]
			ps := pairStacks{outerA: t1.Outer, innerAB: t1.Inner, outerB: t2.Outer, innerBA: t2.Inner}
			deadlockPair(t, rt, rt.NewLock("A"), rt.NewLock("B"), ps)
			rt.Close()
			mu.Lock()
			if len(events) != 1 || events[0].Known || !events[0].Signature.Equal(fingerprint) {
				t.Fatalf("detections %v: want one new fingerprint, the held twin's imitation", events)
			}
			mu.Unlock()
			if h.Len() != 2 || !h.Get(id).Equal(held) {
				t.Fatalf("history holds %d signatures; want the held twin under its ID and the fingerprint", h.Len())
			}
			keysUnique(t, h)
		}
	})
}

func TestHistoryAddRejectsInvalid(t *testing.T) {
	h := NewHistory()
	if h.Add(&sig.Signature{}) {
		t.Error("invalid signature must be rejected")
	}
}

func TestHistoryRemove(t *testing.T) {
	h := NewHistory()
	s := newPairStacks().signature()
	h.Add(s)
	if !h.Remove(s.ID()) {
		t.Fatal("remove should succeed")
	}
	if h.Remove(s.ID()) {
		t.Error("double remove should report absence")
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d, want 0", h.Len())
	}
	// Index cleaned: no outer matches remain.
	if refs := h.MatchOuter(s.Threads[0].Outer); len(refs) != 0 {
		t.Errorf("MatchOuter after remove = %v, want none", refs)
	}
}

func TestHistoryReplace(t *testing.T) {
	h := NewHistory()
	ps := newPairStacks()
	s := ps.signature()
	h.Add(s)

	merged := sig.New(
		sig.ThreadSpec{Outer: ps.outerA.Suffix(3), Inner: ps.innerAB.Suffix(3)},
		sig.ThreadSpec{Outer: ps.outerB.Suffix(3), Inner: ps.innerBA.Suffix(3)},
	)
	if !h.Replace(s.ID(), merged) {
		t.Fatal("replace should succeed")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
	if h.Get(s.ID()) != nil {
		t.Error("old signature should be gone")
	}
	if h.Get(merged.ID()) == nil {
		t.Error("merged signature should be present")
	}
	// Replace with same content is a no-op.
	if h.Replace(merged.ID(), merged.Clone()) {
		t.Error("self-replace should report no change")
	}
}

// generalize hands the history one signature, as a one-candidate batch.
func generalize(h *History, s *sig.Signature, p sig.MergePolicy) bool {
	return h.GeneralizeBatch([]Candidate{{Sig: s, Bug: s.BugHash()}}, p) == 1
}

// TestHistoryGeneralize: the signature GeneralizeBatch adds is stored as
// handed over, not copied; a signature the history already covers
// changes nothing; a merge replaces its candidate in one mutation.
func TestHistoryGeneralize(t *testing.T) {
	h := NewHistory()
	ps := newPairStacks()
	s := ps.signature()
	var policy sig.MergePolicy
	if !generalize(h, s, policy) {
		t.Fatal("a fresh signature should be added")
	}
	if h.Get(s.ID()) != s {
		t.Error("GeneralizeBatch must store the signature it was handed")
	}
	v := h.Version()
	before := h.Index()
	if generalize(h, s.Clone(), policy) || h.Version() != v {
		t.Error("an identical signature must be subsumed without a mutation")
	}

	// Another manifestation: every outer stack differs in its bottom
	// frame, so the merge keeps the top five.
	m := s.Clone()
	for i := range m.Threads {
		m.Threads[i].Outer[0].Method = "otherCaller"
	}
	m.Origin = sig.OriginRemote
	if generalize(h, m, policy) {
		t.Fatal("a mergeable manifestation must not be added")
	}
	if h.Version() != v+1 || h.Len() != 1 || h.Get(s.ID()) != nil {
		t.Fatalf("merge: version +%d, %d signatures; want one replacement", h.Version()-v, h.Len())
	}
	added, removed := indexDelta(before, h.Index())
	if len(added) != 1 || len(removed) != 1 || removed[0] != s {
		t.Fatalf("merge delta = +%d/-%d, want one swap removing s", len(added), len(removed))
	}
	if got := added[0].MinOuterDepth(); got != 5 || h.Get(added[0].ID()) != added[0] {
		t.Errorf("stored merge has outer depth %d, want 5, or is not the delta's instance", got)
	}
}

// TestHistoryGeneralizeBatchMatchesOneAtATime: folding a run of
// manifestations — several chunks' worth, so the batch takes the lock
// more than once — leaves the history, its mutation count and the added
// count where handing the history one signature at a time leaves them.
func TestHistoryGeneralizeBatchMatchesOneAtATime(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	v := sigtest.Vocabulary{Classes: 8, Methods: 3, Lines: 6}
	bases := make([]*sig.Signature, 12)
	for i := range bases {
		bases[i] = sigtest.Signature(r, v, 5, 9)
	}
	var run []*sig.Signature
	for range 3*chunk.Size + 5 {
		s := sigtest.Manifestation(r, v, bases[r.Intn(len(bases))], 1+r.Intn(4))
		s.Origin = sig.Origin(1 + r.Intn(2))
		run = append(run, s)
	}
	policy := sig.MergePolicy{}
	one, batch := NewHistory(), NewHistory()
	wantAdded := 0
	cands := make([]Candidate, len(run))
	for i, s := range run {
		if generalize(one, s.Clone(), policy) {
			wantAdded++
		}
		c := s.Clone()
		cands[i] = Candidate{Sig: c, Bug: c.BugHash()}
	}
	if got := batch.GeneralizeBatch(cands, policy); got != wantAdded {
		t.Fatalf("one batch added %d, one signature at a time %d", got, wantAdded)
	}
	if got, want := batch.Mutations(), one.Mutations(); got != want || wantAdded == 0 || int(want) == wantAdded {
		t.Fatalf("%d mutations, one at a time %d, of which %d adds: want equal counts and some merges", got, want, wantAdded)
	}
	ids := func(h *History) []string {
		var out []string
		for _, s := range h.All() {
			out = append(out, s.ID()+s.Origin.String())
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(ids(batch), ids(one)) {
		t.Fatal("the batch left other signatures than one signature at a time")
	}
}

func TestHistoryMatchOuter(t *testing.T) {
	h := NewHistory()
	ps := newPairStacks()
	h.Add(ps.signature())

	// Full stack matches its own slot.
	refs := h.MatchOuter(ps.outerA)
	if len(refs) != 1 {
		t.Fatalf("MatchOuter = %d refs, want 1", len(refs))
	}
	// A deeper stack ending in the signature's outer stack matches too.
	deeper := append(mkStack("CALLER", "x", 3), ps.outerA...)
	if got := h.MatchOuter(deeper); len(got) != 1 {
		t.Errorf("deeper stack should match, got %d", len(got))
	}
	// Same top frame, different chain: no match.
	other := mkStack("ELSE", "siteA", 6)
	if got := h.MatchOuter(other); len(got) != 0 {
		t.Errorf("non-suffix stack should not match, got %d", len(got))
	}
	// Empty stack matches nothing.
	if got := h.MatchOuter(nil); got != nil {
		t.Errorf("nil stack should match nothing")
	}
}

func TestHistoryVersionBumpsOnMutation(t *testing.T) {
	h := NewHistory()
	v0 := h.Version()
	s := newPairStacks().signature()
	h.Add(s)
	v1 := h.Version()
	if v1 == v0 {
		t.Error("Add must bump version")
	}
	h.Add(s.Clone()) // dedup: no change
	if h.Version() != v1 {
		t.Error("no-op add must not bump version")
	}
	h.Remove(s.ID())
	if h.Version() == v1 {
		t.Error("Remove must bump version")
	}
}

func TestHistorySaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.json")

	h, err := LoadHistory(path)
	if err != nil {
		t.Fatalf("LoadHistory(missing): %v", err)
	}
	ps := newPairStacks()
	local := ps.signature()
	h.Add(local)
	remote := sig.New(
		sig.ThreadSpec{Outer: mkStack("R", "r1", 6), Inner: mkStack("R", "r2", 6)},
		sig.ThreadSpec{Outer: mkStack("R", "r3", 6), Inner: mkStack("R", "r4", 6)},
	)
	remote.Origin = sig.OriginRemote
	h.Add(remote)
	if err := h.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}

	got, err := LoadHistory(path)
	if err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d signatures, want 2", got.Len())
	}
	if got.Get(local.ID()) == nil || got.Get(remote.ID()) == nil {
		t.Error("loaded history missing signatures")
	}
	if got.Get(remote.ID()).Origin != sig.OriginRemote {
		t.Error("remote origin not preserved across save/load")
	}
	if got.Get(local.ID()).Origin != sig.OriginLocal {
		t.Error("local origin not preserved across save/load")
	}
}

func TestLoadHistoryCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistory(path); err == nil {
		t.Error("corrupt history file should be an error")
	}
	// Structurally valid JSON with an invalid signature inside.
	if err := os.WriteFile(path, []byte(`{"signatures":[{"threads":[]}],"origins":["local"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistory(path); err == nil {
		t.Error("invalid embedded signature should be an error")
	}
}

func TestHistorySaveInMemoryIsNoop(t *testing.T) {
	h := NewHistory()
	h.Add(newPairStacks().signature())
	if err := h.Save(); err != nil {
		t.Errorf("in-memory Save should be a no-op, got %v", err)
	}
}

// deltaTestSig builds a distinct valid two-thread signature per tag.
func deltaTestSig(tag string) *sig.Signature {
	return sig.New(
		sig.ThreadSpec{Outer: mkStack("D"+tag, tag+"a", 4), Inner: mkStack("D"+tag, tag+"b", 4)},
		sig.ThreadSpec{Outer: mkStack("D"+tag, tag+"c", 4), Inner: mkStack("D"+tag, tag+"d", 4)},
	)
}

func TestHistoryDeltaAddRemove(t *testing.T) {
	h := NewHistory()
	i0 := h.Index()
	s := deltaTestSig("x")
	h.Add(s)
	i1 := h.Index()

	added, removed := indexDelta(i0, i1)
	if len(added) != 1 || len(removed) != 0 {
		t.Fatalf("delta = +%d/-%d, want +1/-0", len(added), len(removed))
	}
	if added[0] != h.Get(s.ID()) {
		t.Error("delta must carry the history's stable stored instance")
	}

	stored := h.Get(s.ID())
	h.Remove(s.ID())
	i2 := h.Index()
	added, removed = indexDelta(i1, i2)
	if len(added) != 0 || len(removed) != 1 || removed[0] != stored {
		t.Fatalf("remove delta = +%d/-%d, want the removed instance", len(added), len(removed))
	}

	// Add-then-remove between two indexes cancels: the consumer never
	// saw it.
	added, removed = indexDelta(i0, i2)
	if len(added) != 0 || len(removed) != 0 {
		t.Errorf("add+remove gap = +%d/-%d, want empty delta", len(added), len(removed))
	}

	// Remove-then-re-add is a fresh instance: the old one goes, the new
	// one comes.
	h.Add(s)
	i3 := h.Index()
	added, removed = indexDelta(i1, i3)
	if len(added) != 1 || len(removed) != 1 || removed[0] != stored || added[0] != h.Get(s.ID()) {
		t.Errorf("re-add delta = +%d/-%d, want the new instance for the old", len(added), len(removed))
	}

	// An index compared with itself has no delta.
	if added, removed := indexDelta(i3, i3); len(added)+len(removed) != 0 {
		t.Error("an index must have no delta against itself")
	}
}

func TestHistoryReplaceDeltaSemantics(t *testing.T) {
	// Same-ID swap: one version bump, one index carrying both the
	// removal and the addition.
	h := NewHistory()
	old := deltaTestSig("old")
	h.Add(old)
	oldStored := h.Get(old.ID())
	i1 := h.Index()
	merged := deltaTestSig("merged")
	if !h.Replace(old.ID(), merged) {
		t.Fatal("swap should succeed")
	}
	i2 := h.Index()
	if i2.Version() != i1.Version()+1 {
		t.Fatalf("swap bumped version by %d, want exactly 1", i2.Version()-i1.Version())
	}
	added, removed := indexDelta(i1, i2)
	if len(added) != 1 || added[0] != h.Get(merged.ID()) {
		t.Errorf("swap delta added = %d, want the stored merged instance", len(added))
	}
	if len(removed) != 1 || removed[0] != oldStored {
		t.Errorf("swap delta removed = %d, want the old instance", len(removed))
	}

	// Pure addition: oldID absent — one bump, added only.
	fresh := deltaTestSig("fresh")
	if !h.Replace("no-such-id", fresh) {
		t.Fatal("replace with absent oldID should still add")
	}
	i3 := h.Index()
	if i3.Version() != i2.Version()+1 {
		t.Fatalf("pure addition bumped version by %d, want exactly 1", i3.Version()-i2.Version())
	}
	added, removed = indexDelta(i2, i3)
	if len(added) != 1 || len(removed) != 0 {
		t.Errorf("pure-addition delta = +%d/-%d, want +1/-0", len(added), len(removed))
	}

	// Pure removal: the incoming signature is already present (a merge
	// that collapses onto an existing one) — one bump, removed only.
	mergedStored := h.Get(merged.ID())
	if !h.Replace(merged.ID(), fresh.Clone()) {
		t.Fatal("replace collapsing onto an existing signature should still remove")
	}
	i4 := h.Index()
	if i4.Version() != i3.Version()+1 {
		t.Fatalf("pure removal bumped version by %d, want exactly 1", i4.Version()-i3.Version())
	}
	added, removed = indexDelta(i3, i4)
	if len(added) != 0 || len(removed) != 1 || removed[0] != mergedStored {
		t.Errorf("pure-removal delta = +%d/-%d, want -1 (the collapsed instance)", len(added), len(removed))
	}

	// True no-op: absent oldID and duplicate signature — no bump, and
	// the same index stays published.
	if h.Replace("still-no-such-id", fresh.Clone()) {
		t.Error("no-op replace should report no change")
	}
	if h.Index() != i4 {
		t.Error("no-op replace must not bump the version")
	}
}

func TestHistoryAllReturnsClones(t *testing.T) {
	h := NewHistory()
	s := newPairStacks().signature()
	h.Add(s)
	all := h.All()
	if len(all) != 1 {
		t.Fatalf("All = %d, want 1", len(all))
	}
	all[0].Threads[0].Outer[0].Class = "MUTATED"
	if h.Get(s.ID()) == nil {
		t.Error("mutating All()'s result must not corrupt the history")
	}
}
