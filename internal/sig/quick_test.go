package sig

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genFrame draws frames from a small vocabulary so that random stacks
// collide on sites, exercising suffix matching and adjacency.
func genFrame(r *rand.Rand) Frame {
	classes := []string{"app/A", "app/B", "app/C", "lib/L"}
	methods := []string{"run", "lock", "flush"}
	class := classes[r.Intn(len(classes))]
	return Frame{
		Class:  class,
		Method: methods[r.Intn(len(methods))],
		Line:   1 + r.Intn(20),
		Hash:   "h-" + class,
	}
}

func genStack(r *rand.Rand, minDepth, maxDepth int) Stack {
	depth := minDepth + r.Intn(maxDepth-minDepth+1)
	s := make(Stack, depth)
	for i := range s {
		s[i] = genFrame(r)
	}
	return s
}

// qStack adapts Stack for testing/quick.
type qStack struct{ S Stack }

// Generate implements quick.Generator.
func (qStack) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(qStack{S: genStack(r, 1, 10)})
}

// qSig adapts Signature for testing/quick.
type qSig struct{ S *Signature }

// Generate implements quick.Generator.
func (qSig) Generate(r *rand.Rand, _ int) reflect.Value {
	threads := make([]ThreadSpec, 2+r.Intn(2))
	for i := range threads {
		threads[i] = ThreadSpec{Outer: genStack(r, 1, 8), Inner: genStack(r, 1, 8)}
	}
	s := New(threads...)
	s.Origin = OriginLocal
	return reflect.ValueOf(qSig{S: s})
}

var quickCfg = &quick.Config{MaxCount: 300}

func TestQuickLCSIsSuffixOfBoth(t *testing.T) {
	prop := func(a, b qStack) bool {
		lcs := LongestCommonSuffix(a.S, b.S)
		if len(lcs) == 0 {
			return true
		}
		return a.S.HasSuffix(lcs) && b.S.HasSuffix(lcs)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLCSSelfIdentity(t *testing.T) {
	prop := func(a qStack) bool {
		return LongestCommonSuffix(a.S, a.S).Equal(a.S)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLCSCommutativeOnSites(t *testing.T) {
	prop := func(a, b qStack) bool {
		return LongestCommonSuffix(a.S, b.S).EqualSites(LongestCommonSuffix(b.S, a.S))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLCSMaximality(t *testing.T) {
	// One frame deeper than the LCS must mismatch (or not exist).
	prop := func(a, b qStack) bool {
		lcs := LongestCommonSuffix(a.S, b.S)
		n := len(lcs)
		if n >= len(a.S) || n >= len(b.S) {
			return true
		}
		return !a.S[len(a.S)-1-n].SameSite(b.S[len(b.S)-1-n])
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSuffixRelation(t *testing.T) {
	prop := func(a qStack) bool {
		for n := 1; n <= len(a.S); n++ {
			if !a.S.HasSuffix(a.S.Suffix(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	prop := func(s qSig) bool {
		data, err := Encode(s.S)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.Equal(s.S)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAdjacencySymmetricAndIrreflexive(t *testing.T) {
	prop := func(a, b qSig) bool {
		if Adjacent(a.S, a.S) || Adjacent(b.S, b.S) {
			return false
		}
		return Adjacent(a.S, b.S) == Adjacent(b.S, a.S)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeProperties(t *testing.T) {
	policy := MergePolicy{MinDepth: 1}
	prop := func(s qSig) bool {
		// Idempotence.
		m, ok := policy.Merge(s.S, s.S)
		if !ok || !m.Equal(s.S) {
			return false
		}
		// A manifestation with a replaced bottom frame must merge back and
		// preserve the bug key; merged stacks must be suffixes of inputs.
		v := s.S.Clone()
		v.Threads[0].Outer = append(Stack{genFrame(rand.New(rand.NewSource(int64(len(v.Threads[0].Outer)))))}, v.Threads[0].Outer...)
		v.Normalize()
		mv, ok := policy.Merge(s.S, v)
		if !ok {
			return false
		}
		return mv.BugKey() == s.S.BugKey()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	prop := func(s qSig) bool {
		before := s.S.ID()
		s.S.Normalize()
		return s.S.ID() == before
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIDAgreesWithEqual(t *testing.T) {
	prop := func(a, b qSig) bool {
		if a.S.Equal(b.S) {
			return a.S.ID() == b.S.ID()
		}
		return a.S.ID() != b.S.ID()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// qPair is a canonical signature and another manifestation of its bug —
// each stack keeping some of its top frames over other lower frames, the
// threads in any order — or, now and then, an unrelated signature; the
// two are local or remote at random, and the policy's floor is random.
// A third of the signatures have two threads with the same top frames,
// which Merge aligns greedily.
type qPair struct {
	A, B *Signature
	P    MergePolicy
}

// Generate implements quick.Generator.
func (qPair) Generate(r *rand.Rand, _ int) reflect.Value {
	threads := make([]ThreadSpec, 2+r.Intn(2))
	for i := range threads {
		threads[i] = ThreadSpec{Outer: genStack(r, 1, 8), Inner: genStack(r, 1, 8)}
	}
	if r.Intn(3) == 0 {
		threads[1].Outer[len(threads[1].Outer)-1] = threads[0].Outer.Top()
		threads[1].Inner[len(threads[1].Inner)-1] = threads[0].Inner.Top()
	}
	a := New(threads...)
	variant := func(s Stack) Stack {
		keep := s
		if r.Intn(3) == 0 {
			keep = s.Suffix(1 + r.Intn(len(s)))
		}
		return append(genStack(r, 0, 4), keep...)
	}
	others := make([]ThreadSpec, len(threads))
	for i, t := range threads {
		others[i] = ThreadSpec{Outer: variant(t.Outer), Inner: variant(t.Inner)}
	}
	r.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	b := New(others...)
	if r.Intn(10) == 0 {
		b = qSig{}.Generate(r, 0).Interface().(qSig).S
	}
	origin := func() Origin { return Origin(1 + r.Intn(2)) }
	a.Origin, b.Origin = origin(), origin()
	return reflect.ValueOf(qPair{A: a, B: b, P: MergePolicy{MinDepth: r.Intn(7)}})
}

// TestQuickCoversAgreesWithMerge: Covers gives what Merge followed by
// Equal gives — which pairs merge, depth floor included, and which
// merges leave the first signature as it is — without building the
// merge.
func TestQuickCoversAgreesWithMerge(t *testing.T) {
	// floorCovered counts pairs the floor refuses although b is covered:
	// a check that skipped the floor would call them subsumed.
	var merged, covered, refused, floorCovered int
	prop := func(q qPair) bool {
		ok, cov := q.P.Covers(q.A, q.B)
		m, mok := q.P.Merge(q.A, q.B)
		switch {
		case mok && m.Equal(q.A):
			covered++
		case mok:
			merged++
		default:
			refused++
			if m1, ok1 := (MergePolicy{MinDepth: 1}).Merge(q.A, q.B); ok1 && m1.Equal(q.A) {
				floorCovered++
			}
		}
		return ok == mok && cov == (mok && m.Equal(q.A))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
	if merged == 0 || covered == 0 || refused == 0 || floorCovered == 0 {
		t.Fatalf("pairs never reached a case: %d merged, %d covered, %d refused (%d of them covered but for the floor)",
			merged, covered, refused, floorCovered)
	}
	t.Logf("%d merged, %d covered, %d refused (%d of them covered but for the floor)", merged, covered, refused, floorCovered)
}
