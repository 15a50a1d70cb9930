package dimmunix

import (
	"os"
	"path/filepath"
	"testing"

	"communix/internal/sig"
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

// TestHistoryGeneralize: the signature Generalize adds is stored as
// handed over, not copied; a signature the history already covers
// changes nothing; a merge replaces its candidate in one mutation.
func TestHistoryGeneralize(t *testing.T) {
	h := NewHistory()
	ps := newPairStacks()
	s := ps.signature()
	var policy sig.MergePolicy
	if !h.Generalize(s, policy) {
		t.Fatal("a fresh signature should be added")
	}
	if h.Get(s.ID()) != s {
		t.Error("Generalize must store the signature it was handed")
	}
	v := h.Version()
	before := h.Index()
	if h.Generalize(s.Clone(), policy) || h.Version() != v {
		t.Error("an identical signature must be subsumed without a mutation")
	}
	if h.Generalize(&sig.Signature{}, policy) || h.Version() != v {
		t.Error("an invalid signature must change nothing")
	}

	// Another manifestation: every outer stack differs in its bottom
	// frame, so the merge keeps the top five.
	m := s.Clone()
	for i := range m.Threads {
		m.Threads[i].Outer[0].Method = "otherCaller"
	}
	m.Origin = sig.OriginRemote
	if h.Generalize(m, policy) {
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
