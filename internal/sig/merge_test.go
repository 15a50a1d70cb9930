package sig

import (
	"math/rand"
	"sort"
	"testing"
)

// sigWithPrefix builds a two-thread signature where each stack has the
// given caller prefix below a fixed shared suffix, so merges are easy to
// predict.
func sigWithPrefix(prefix string, suffixDepth int) *Signature {
	mk := func(tag string) ThreadSpec {
		mkStack := func(kind string) Stack {
			s := Stack{frame("caller/"+prefix, "entry", 1)}
			for i := 0; i < suffixDepth; i++ {
				s = append(s, frame("app/"+tag, kind, i+1))
			}
			return s
		}
		return ThreadSpec{Outer: mkStack("outer"), Inner: mkStack("inner")}
	}
	s := New(mk("T1"), mk("T2"))
	s.Origin = OriginLocal
	return s
}

func TestMergeSameBugKeepsCommonSuffix(t *testing.T) {
	a := sigWithPrefix("A", 6)
	b := sigWithPrefix("B", 6)
	m, ok := MergePolicy{}.Merge(a, b)
	if !ok {
		t.Fatal("same-bug signatures should merge")
	}
	for i, ts := range m.Threads {
		if got := ts.Outer.Depth(); got != 6 {
			t.Errorf("thread %d merged outer depth = %d, want 6 (prefix dropped)", i, got)
		}
		if got := ts.Inner.Depth(); got != 6 {
			t.Errorf("thread %d merged inner depth = %d, want 6", i, got)
		}
	}
	if m.BugKey() != a.BugKey() {
		t.Error("merge must preserve the bug key")
	}
}

func TestMergeRejectsDifferentBugs(t *testing.T) {
	a := sigWithPrefix("A", 6)
	b := sigWithPrefix("B", 6)
	b.Threads[0].Outer[b.Threads[0].Outer.Depth()-1].Line = 999
	b.Normalize()
	if _, ok := (MergePolicy{}).Merge(a, b); ok {
		t.Error("signatures of different bugs must not merge")
	}
}

func TestMergeRejectsDifferentThreadCounts(t *testing.T) {
	a := sigWithPrefix("A", 6)
	three := a.Clone()
	three.Threads = append(three.Threads, three.Threads[0].clone())
	three.Normalize()
	if _, ok := (MergePolicy{}).Merge(a, three); ok {
		t.Error("signatures with different thread counts must not merge")
	}
}

func TestMergeDepthFloorForRemote(t *testing.T) {
	// Common suffix depth will be 3, below the floor of 5.
	a := sigWithPrefix("A", 3)
	b := sigWithPrefix("B", 3)

	t.Run("local+local ignores floor", func(t *testing.T) {
		if _, ok := (MergePolicy{}).Merge(a, b); !ok {
			t.Error("local signatures may merge below the depth floor")
		}
	})

	t.Run("remote involvement enforces floor", func(t *testing.T) {
		br := b.Clone()
		br.Origin = OriginRemote
		if _, ok := (MergePolicy{}).Merge(a, br); ok {
			t.Error("merge with a remote signature must respect the depth floor")
		}
	})

	t.Run("remote involvement above floor merges", func(t *testing.T) {
		x := sigWithPrefix("A", 7)
		y := sigWithPrefix("B", 7)
		y.Origin = OriginRemote
		m, ok := MergePolicy{}.Merge(x, y)
		if !ok {
			t.Fatal("deep remote merge should succeed")
		}
		if m.Origin != OriginRemote {
			t.Error("merge involving a remote signature should be marked remote")
		}
		if m.MinOuterDepth() < MinRemoteOuterDepth {
			t.Errorf("merged depth %d below floor", m.MinOuterDepth())
		}
	})

	t.Run("custom floor", func(t *testing.T) {
		br := b.Clone()
		br.Origin = OriginRemote
		if _, ok := (MergePolicy{MinDepth: 2}).Merge(a, br); !ok {
			t.Error("custom floor of 2 should permit a depth-3 merge")
		}
	})
}

func TestMergeIdempotent(t *testing.T) {
	a := sigWithPrefix("A", 6)
	m, ok := MergePolicy{}.Merge(a, a)
	if !ok {
		t.Fatal("self-merge should succeed")
	}
	if !m.Equal(a) {
		t.Errorf("Merge(a,a) = %v, want a", m)
	}
}

func TestMergeCommutative(t *testing.T) {
	a := sigWithPrefix("A", 6)
	b := sigWithPrefix("B", 6)
	ab, ok1 := MergePolicy{}.Merge(a, b)
	ba, ok2 := MergePolicy{}.Merge(b, a)
	if !ok1 || !ok2 {
		t.Fatal("merges should succeed")
	}
	if !ab.Equal(ba) {
		t.Error("merge should be commutative")
	}
}

// mergeAll folds a set of same-bug signatures into the minimal set the
// policy permits: repeatedly merges mergeable pairs until a fixpoint.
// Signatures of distinct bugs pass through untouched. The result is
// deterministic: inputs are processed in canonical (ID) order.
func mergeAll(p MergePolicy, sigs []*Signature) []*Signature {
	pending := make([]*Signature, len(sigs))
	copy(pending, sigs)
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID() < pending[j].ID() })

	var out []*Signature
	for _, s := range pending {
		merged := false
		for i, existing := range out {
			if m, ok := p.Merge(existing, s); ok {
				out[i] = m
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, s)
		}
	}
	return out
}

func TestMergeAllCollapsesManifestations(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var sigs []*Signature
	base := sigWithPrefix("base", 6)
	sigs = append(sigs, base)
	for i := 0; i < 5; i++ {
		m := base.Clone()
		m.Threads[0].Outer[0] = frame("caller/X", "entry", 10+i)
		m.Normalize()
		sigs = append(sigs, m)
	}
	other := sigWithPrefix("other", 6)
	other.Threads[0].Outer[other.Threads[0].Outer.Depth()-1].Line = 500
	other.Normalize()
	sigs = append(sigs, other)

	// Shuffle to check determinism is derived from content, not order.
	r.Shuffle(len(sigs), func(i, j int) { sigs[i], sigs[j] = sigs[j], sigs[i] })

	out := mergeAll(MergePolicy{}, sigs)
	if len(out) != 2 {
		t.Fatalf("mergeAll produced %d signatures, want 2 (one per bug)", len(out))
	}
}

func TestMergeAllDeterministicUnderPermutation(t *testing.T) {
	base := sigWithPrefix("base", 8)
	variants := []*Signature{base}
	for i := 0; i < 4; i++ {
		m := base.Clone()
		m.Threads[1].Inner[0] = frame("caller/Y", "entry", 20+i)
		m.Normalize()
		variants = append(variants, m)
	}
	a := mergeAll(MergePolicy{}, variants)

	perm := []*Signature{variants[3], variants[1], variants[4], variants[0], variants[2]}
	b := mergeAll(MergePolicy{}, perm)

	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("result %d differs under permutation", i)
		}
	}
}

func TestMergedStacksAreSuffixesOfInputs(t *testing.T) {
	a := sigWithPrefix("A", 6)
	b := sigWithPrefix("B", 6)
	m, ok := MergePolicy{}.Merge(a, b)
	if !ok {
		t.Fatal("merge failed")
	}
	for i := range m.Threads {
		if !a.Threads[i].Outer.HasSuffix(m.Threads[i].Outer) {
			t.Errorf("merged outer %d is not a suffix of a's", i)
		}
		if !b.Threads[i].Outer.HasSuffix(m.Threads[i].Outer) {
			t.Errorf("merged outer %d is not a suffix of b's", i)
		}
	}
}
