package sig

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSig builds a deterministic two-thread signature with depth-d
// stacks.
func benchSig(d int) *Signature {
	mk := func(tag string) ThreadSpec {
		var outer, inner Stack
		for i := 0; i < d; i++ {
			outer = append(outer, Frame{Class: "app/" + tag, Method: "m", Line: i + 1, Hash: "h-" + tag})
			inner = append(inner, Frame{Class: "app/" + tag, Method: "n", Line: i + 1, Hash: "h-" + tag})
		}
		return ThreadSpec{Outer: outer, Inner: inner}
	}
	return New(mk("A"), mk("B"))
}

// protectSig mirrors the signatures of the benchmark's protect workload:
// two threads with depth-24 outer and depth-12 inner stacks of generated
// flow methods carrying 16-hex code-unit hashes, about 6 KB on the wire.
// class, when non-empty, replaces the class of every frame.
func protectSig(class string) *Signature {
	const depth = 24
	mk := func(tag string) ThreadSpec {
		var outer, inner Stack
		for i := 0; i < depth; i++ {
			c := class
			if c == "" {
				c = fmt.Sprintf("app/proto/Flows%d", i%3)
			}
			h := fmt.Sprintf("%016x", i%3+1)
			outer = append(outer, Frame{Class: c, Method: fmt.Sprintf("flow_%s_v1_%d", tag, i), Line: 100 + 7*i, Hash: h})
			if i%2 == 0 {
				inner = append(inner, Frame{Class: c, Method: fmt.Sprintf("flow_%s_tail_%d", tag, i), Line: 300 + 7*i, Hash: h})
			}
		}
		return ThreadSpec{Outer: outer, Inner: inner}
	}
	return New(mk("a"), mk("b"))
}

type codecCase struct {
	name string
	sig  *Signature
}

// codecCases are the signatures the codec benchmarks run on: the
// historical depth-15 case, a protect-sized one, and one whose non-ASCII
// class names send Decode down the encoding/json fallback.
func codecCases() []codecCase {
	return []codecCase{
		{"depth15", benchSig(15)},
		{"protect", protectSig("")},
		{"fallback", protectSig("app/proto/Flüsse")},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, c := range codecCases() {
		s := c.sig
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, c := range codecCases() {
		data, err := Encode(c.sig)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkID(b *testing.B) {
	for _, c := range codecCases() {
		s := c.sig
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.ID()
			}
		})
	}
}

func BenchmarkHasSuffix(b *testing.B) {
	s := benchSig(15)
	full := s.Threads[0].Outer
	suf := full.Suffix(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !full.HasSuffix(suf) {
			b.Fatal("suffix must match")
		}
	}
}

func BenchmarkLongestCommonSuffix(b *testing.B) {
	a := benchSig(15).Threads[0].Outer
	c := a.Clone()
	c[0].Line = 999 // differ at the bottom
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSuffix(a, c)
	}
}

func BenchmarkMergeRefusedByFloor(b *testing.B) {
	// The agent's dominant pattern: same bug, disjoint lower frames,
	// merge refused by the depth floor — must be allocation-light.
	a := benchSig(10)
	c := a.Clone()
	for ti := range c.Threads {
		for fi := 0; fi < 7; fi++ {
			c.Threads[ti].Outer[fi].Method = "other"
		}
	}
	c.Normalize()
	c.Origin = OriginRemote
	p := MergePolicy{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Merge(a, c); ok {
			b.Fatal("merge should be refused")
		}
	}
}

func BenchmarkMergeAccepted(b *testing.B) {
	a := benchSig(10)
	c := a.Clone()
	c.Threads[0].Outer[0].Method = "other"
	c.Normalize()
	p := MergePolicy{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Merge(a, c); !ok {
			b.Fatal("merge should succeed")
		}
	}
}

func BenchmarkAdjacent(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	_ = r
	x := benchSig(8)
	y := x.Clone()
	y.Threads[0].Outer[7].Line = 500
	y.Normalize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Adjacent(x, y)
	}
}
