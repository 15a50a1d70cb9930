package sig_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// TestEncodeMatchesMarshal: Encode's bytes are json.Marshal's, escapes
// included, for every corpus signature and the sigtest generators; only
// non-ASCII strings leave the appending encoder.
func TestEncodeMatchesMarshal(t *testing.T) {
	var sigs []*sig.Signature
	for _, data := range sig.DecodeCorpus() {
		if s, err := sig.Decode(data); err == nil {
			sigs = append(sigs, s)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		sigs = append(sigs,
			sigtest.Signature(r, sigtest.DefaultVocabulary, 1, 30),
			sigtest.SignatureN(r, sigtest.DefaultVocabulary, 3, 5, 10),
			sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 5, 8))
	}
	// Every ASCII byte, in every field, with and without hash and kind.
	var ascii strings.Builder
	for c := 0; c < utf8.RuneSelf; c++ {
		ascii.WriteByte(byte(c))
	}
	odd := sigtest.Signature(r, sigtest.DefaultVocabulary, 3, 3)
	odd.Threads[0].Outer[0].Class = ascii.String()
	odd.Threads[0].Outer[1].Method = "<init>&<clinit>"
	odd.Threads[0].Outer[2].Hash = `a"b\c/d`
	odd.Threads[1].Inner[0].Hash = "\b\f\n\r\t\x00\x1f\x7f"
	odd.Threads[1].Inner[0].Kind = sig.KindChanSelect
	odd.Threads[1].Inner[1].Line = 1<<63 - 1
	odd.Threads[1].Inner[2].Hash = ""
	sigs = append(sigs, odd)
	for _, s := range sigs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sig.Encode(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Encode(%v) = %q, %v\njson.Marshal: %q", s, got, err, want)
		}
		got, ok := sig.EncodeCanonical(s)
		if ascii := asciiOnly(s); ok != ascii || ok && !bytes.Equal(got, want) {
			t.Fatalf("appending encoder on %v (ASCII %v) = %q, %v\njson.Marshal: %q", s, ascii, got, ok, want)
		}
	}

	// Outside ASCII (here é, invalid UTF-8 and U+2028) Encode falls back.
	for _, class := range []string{"app/Té", "app/\xff", "app/\xe2\x80\xa8"} {
		s := sigtest.Signature(r, sigtest.DefaultVocabulary, 3, 3)
		s.Threads[1].Outer[1].Class = class
		if _, ok := sig.EncodeCanonical(s); ok {
			t.Errorf("appending encoder accepted class %q", class)
		}
		got, err := sig.Encode(s)
		want, _ := json.Marshal(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Encode with class %q = %q, %v; json.Marshal %q", class, got, err, want)
		}
	}
}

// asciiOnly reports whether every string of s is ASCII.
func asciiOnly(s *sig.Signature) bool {
	var b strings.Builder
	for _, t := range s.Threads {
		for _, f := range append(t.Outer.Clone(), t.Inner...) {
			b.WriteString(f.Class + f.Method + f.Hash + f.Kind)
		}
	}
	for _, c := range []byte(b.String()) {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
