package sig_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// referenceID is Signature.ID as it was first written, one fmt.Fprintf
// per frame into a streaming hash. Every ID the server and client
// repositories have ever stored was minted this way, so the buffered
// implementation must reproduce it byte for byte.
func referenceID(s *sig.Signature) string {
	h := sha256.New()
	stack := func(st sig.Stack) {
		for _, f := range st {
			fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s", f.Class, f.Method, f.Line, f.Hash)
			if f.Kind != "" {
				fmt.Fprintf(h, "\x02%s", f.Kind)
			}
			h.Write([]byte{0x01})
		}
	}
	for _, t := range s.Threads {
		stack(t.Outer)
		h.Write([]byte{0xFE})
		stack(t.Inner)
		h.Write([]byte{0xFF})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestIDMatchesReference(t *testing.T) {
	var sigs []*sig.Signature
	for _, data := range sig.DecodeCorpus() {
		if s, err := sig.Decode(data); err == nil {
			sigs = append(sigs, s)
		}
	}
	if len(sigs) < 5 {
		t.Fatalf("only %d corpus entries decode", len(sigs))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		sigs = append(sigs,
			sigtest.Signature(r, sigtest.DefaultVocabulary, 1, 30),
			sigtest.SignatureN(r, sigtest.DefaultVocabulary, 3, 5, 10),
			sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 5, 8))
	}
	// Frames the generators never produce: kinds, odd lines, no hash.
	odd := sigtest.Signature(r, sigtest.DefaultVocabulary, 3, 3)
	odd.Threads[0].Outer[2].Kind = sig.KindChanSelect
	odd.Threads[1].Inner[0].Line = -42
	odd.Threads[1].Inner[1].Line = 1<<63 - 1
	odd.Threads[1].Inner[2].Hash = ""
	sigs = append(sigs, odd)
	for _, s := range sigs {
		if got, want := s.ID(), referenceID(s); got != want {
			t.Fatalf("ID() = %s, reference %s for %v", got, want, s)
		}
	}
}

// TestIDPinned pins two IDs minted before the buffered implementation.
func TestIDPinned(t *testing.T) {
	frame := func(class, method string, line int, kind string) sig.Frame {
		return sig.Frame{Class: class, Method: method, Line: line, Kind: kind}
	}
	mk := func(tag, outerM, innerM string, depth int, outerKind, innerKind string) sig.ThreadSpec {
		var th sig.ThreadSpec
		for i := 0; i < depth; i++ {
			th.Outer = append(th.Outer, frame("app/"+tag, outerM, i+1, ""))
			th.Inner = append(th.Inner, frame("app/"+tag, innerM, i+1, ""))
		}
		th.Outer[depth-1].Kind = outerKind
		th.Inner[depth-1].Kind = innerKind
		return th
	}
	lock := sig.New(mk("T1", "outer", "inner", 5, "", ""), mk("T2", "outer", "inner", 5, "", ""))
	if got, want := lock.ID(), "3f020ac8c0725924f43eed9e90784944137f5388f91929c7e68b2e6070127bb7"; got != want {
		t.Errorf("lock signature ID = %s, want %s", got, want)
	}
	// chanSig(6, KindChanRecv) in kind_test.go: lines count from the top.
	chanThread := func(tag string) sig.ThreadSpec {
		var th sig.ThreadSpec
		for i := 0; i < 6; i++ {
			th.Outer = append(th.Outer, frame("app/"+tag, "fill", 6-i, ""))
			th.Inner = append(th.Inner, frame("app/"+tag, "block", 6-i, ""))
		}
		th.Outer[5].Kind = sig.KindChanSend
		th.Inner[5].Kind = sig.KindChanRecv
		return th
	}
	ch := sig.New(chanThread("G1"), chanThread("G2"))
	if got, want := ch.ID(), "3fbcd691e7d76ba7aa621587dfc3ae0aebe075d025b46eb15d578ace0c379745"; got != want {
		t.Errorf("channel signature ID = %s, want %s", got, want)
	}
}
