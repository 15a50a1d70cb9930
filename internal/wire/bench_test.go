package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"communix/internal/sig"
)

// protectSig is a signature of the size the benchmark's protect workload
// ships: two threads with depth-24 outer and depth-12 inner stacks of
// generated flow methods with 16-hex code-unit hashes, about 6.5 KB.
func protectSig(tag int) *sig.Signature {
	mk := func(thread string) sig.ThreadSpec {
		var t sig.ThreadSpec
		for i := 0; i < 24; i++ {
			class, h := fmt.Sprintf("app/proto/Flows%d", i%3), fmt.Sprintf("%016x", i%3+1)
			t.Outer = append(t.Outer, sig.Frame{Class: class, Method: fmt.Sprintf("flow_%s_v%d_%d", thread, tag, i), Line: 100 + 7*i, Hash: h})
			if i%2 == 0 {
				t.Inner = append(t.Inner, sig.Frame{Class: class, Method: fmt.Sprintf("flow_%s_tail_%d", thread, i), Line: 300 + 7*i, Hash: h})
			}
		}
		return t
	}
	return sig.New(mk("a"), mk("b"))
}

type frameCase struct {
	name string
	v    any
	zero func() any // a fresh target for ReadMessage
}

// frameCases are the frames the codec benchmarks run on: a PUSH page of
// MaxGetBatch protect-sized signatures, one ADD, a replication entry page
// of the same signatures, and the PUSH page with a non-ASCII detail, which
// sends the whole frame to encoding/json.
func frameCases(b *testing.B) []frameCase {
	sigs := make([]json.RawMessage, MaxGetBatch)
	entries := make([]Entry, MaxGetBatch)
	for i := range sigs {
		raw, err := sig.Encode(protectSig(i))
		if err != nil {
			b.Fatal(err)
		}
		sigs[i] = raw
		entries[i] = Entry{User: 42, Unix: 1760000000 + int64(i), Sig: raw}
	}
	add, err := NewAdd("5f1e0c2b9a7d4e3f5f1e0c2b9a7d4e3f", protectSig(0))
	if err != nil {
		b.Fatal(err)
	}
	add.ID = 17
	newResp := func() any { return new(Response) }
	return []frameCase{
		{"push256", Response{Status: StatusOK, Type: MsgPush, Sigs: sigs, Next: 1 + len(sigs)}, newResp},
		{"add", add, func() any { return new(Request) }},
		{"entries256", Response{Status: StatusOK, Type: MsgPush, Entries: entries, Next: 1 + len(entries)}, newResp},
		{"fallback", Response{Status: StatusOK, Type: MsgPush, Sigs: sigs, Next: 1 + len(sigs), Detail: "pagé"}, newResp},
	}
}

// BenchmarkEncodeFrame runs every frame case through EncodeFrame, and
// the push256 page through EncodeStoredFrame as stored256 — the encoder
// the server writes its pages with.
func BenchmarkEncodeFrame(b *testing.B) {
	bench := func(name string, encode func() ([]byte, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame, err := encode()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(frame)))
			}
		})
	}
	cases := frameCases(b)
	for _, c := range cases {
		bench(c.name, func() ([]byte, error) { return EncodeFrame(c.v) })
	}
	push := cases[0].v.(Response)
	bench("stored256", func() ([]byte, error) { return EncodeStoredFrame(push) })
}

func BenchmarkReadMessage(b *testing.B) {
	for _, c := range frameCases(b) {
		frame, err := EncodeFrame(c.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			var r bytes.Reader
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if err := ReadMessage(&r, c.zero()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
