package sig_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// inPlaceCorpus is the decode corpus plus sigtest signatures, each as
// Encode writes it, re-spaced, and with its threads swapped (valid but
// not in canonical order, so not exact).
func inPlaceCorpus() [][]byte {
	out := sig.DecodeCorpus()
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 8; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 1, 9)
		data, err := sig.Encode(s)
		if err != nil {
			panic(err)
		}
		swapped := &sig.Signature{Threads: []sig.ThreadSpec{s.Threads[1], s.Threads[0]}}
		unordered, err := sig.Encode(swapped)
		if err != nil {
			panic(err)
		}
		out = append(out, data, bytes.ReplaceAll(data, []byte(","), []byte(", ")), unordered)
	}
	return out
}

// FuzzInPlaceMatchesDecode: DecodeInPlace accepts exactly what
// DecodeVerbatim accepts, fails with the same error, reports the same
// exactness, and lends a signature Equal to the one DecodeVerbatim
// returns. A decode after it, from the same pool, leaves what it lent
// untouched while it is lent.
func FuzzInPlaceMatchesDecode(f *testing.F) {
	for _, seed := range inPlaceCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantExact, wantErr := sig.DecodeVerbatim(data)
		calls := 0
		err := sig.DecodeInPlace(data, func(s *sig.Signature, exact bool) {
			calls++
			if wantErr != nil {
				return
			}
			if exact != wantExact || !s.Equal(want) {
				t.Fatalf("DecodeInPlace(%q) lent %v, exact %v; DecodeVerbatim %v, exact %v", data, s, exact, want, wantExact)
			}
			if _, err := sig.Decode(data); err != nil || !s.Equal(want) {
				t.Fatalf("a nested decode of %q changed the lent signature to %v (%v)", data, s, err)
			}
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("DecodeInPlace(%q) = %v; DecodeVerbatim %v", data, err, wantErr)
		}
		wantCalls := 0
		if err == nil {
			wantCalls = 1
		}
		if calls != wantCalls {
			t.Fatalf("DecodeInPlace(%q) called use %d times, want %d", data, calls, wantCalls)
		}
	})
}
