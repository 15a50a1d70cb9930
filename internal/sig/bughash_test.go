package sig_test

import (
	"math/rand"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// TestBugHashFollowsBugKey: signatures with equal bug keys have equal
// bug hashes, and over random signatures of a small vocabulary (many
// shared sites) distinct bug keys never share one. BugHash allocates
// nothing for signatures of up to four threads.
func TestBugHashFollowsBugKey(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	v := sigtest.Vocabulary{Classes: 4, Methods: 3, Lines: 4}
	byKey := make(map[string]uint64)
	byHash := make(map[uint64]string)
	check := func(s *sig.Signature) {
		key, h := s.BugKey(), s.BugHash()
		if prev, ok := byKey[key]; ok && prev != h {
			t.Fatalf("bug key %q has two bug hashes", key)
		}
		if prev, ok := byHash[h]; ok && prev != key {
			t.Fatalf("bug keys %q and %q share a bug hash", prev, key)
		}
		byKey[key], byHash[h] = h, key
	}
	for range 2000 {
		s := sigtest.SignatureN(r, v, 2+r.Intn(2), 1, 6)
		check(s)
		check(sigtest.Manifestation(r, v, s, 1+r.Intn(3)))
	}
	if len(byKey) < 100 {
		t.Fatalf("only %d bugs drawn", len(byKey))
	}
	s := sigtest.SignatureN(r, v, 4, 5, 5)
	if n := testing.AllocsPerRun(100, func() { s.BugHash() }); n != 0 {
		t.Errorf("BugHash allocates %.0f times", n)
	}
}

// BenchmarkBugKey compares BugKey and BugHash on a catchup-shaped
// signature (two threads, depth 5).
func BenchmarkBugKey(b *testing.B) {
	s := sigtest.DistinctTops(rand.New(rand.NewSource(1)), sigtest.DefaultVocabulary, 1, 5, 5)
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_ = s.BugKey()
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_ = s.BugHash()
		}
	})
}
