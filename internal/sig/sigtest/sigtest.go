// Package sigtest provides deterministic random generators for signatures,
// shared by the test suites and the benchmark workload factories. All
// generators draw from an explicit *rand.Rand so callers control seeding
// and reproducibility.
package sigtest

import (
	"fmt"
	"math/rand"

	"communix/internal/sig"
)

// Vocabulary bounds the identifier space; a small space makes collisions
// (same sites in different stacks) likely, which exercises the interesting
// paths in matching, adjacency, and merging.
type Vocabulary struct {
	Classes int // number of distinct class names
	Methods int // number of distinct method names per class
	Lines   int // max line number
}

// DefaultVocabulary is sized so that random signatures collide on sites
// often enough to exercise adjacency and merge logic.
var DefaultVocabulary = Vocabulary{Classes: 12, Methods: 6, Lines: 40}

// Frame generates a random frame. The hash is derived from the class name,
// mimicking the plugin's per-code-unit hashing: all frames of one class
// carry the same hash.
func Frame(r *rand.Rand, v Vocabulary) sig.Frame {
	class := fmt.Sprintf("com/app/C%d", r.Intn(v.Classes))
	return sig.Frame{
		Class:  class,
		Method: fmt.Sprintf("m%d", r.Intn(v.Methods)),
		Line:   1 + r.Intn(v.Lines),
		Hash:   HashForClass(class),
	}
}

// HashForClass returns the deterministic code-unit hash sigtest assigns to
// a class name.
func HashForClass(class string) string {
	return fmt.Sprintf("h-%s", class)
}

// Stack generates a random stack with depth in [minDepth, maxDepth].
func Stack(r *rand.Rand, v Vocabulary, minDepth, maxDepth int) sig.Stack {
	depth := minDepth
	if maxDepth > minDepth {
		depth += r.Intn(maxDepth - minDepth + 1)
	}
	s := make(sig.Stack, depth)
	for i := range s {
		s[i] = Frame(r, v)
	}
	return s
}

// Signature generates a random two-thread signature whose outer stacks
// have depth in [minDepth, maxDepth].
func Signature(r *rand.Rand, v Vocabulary, minDepth, maxDepth int) *sig.Signature {
	return SignatureN(r, v, 2, minDepth, maxDepth)
}

// SignatureN generates a random signature with n thread specs.
func SignatureN(r *rand.Rand, v Vocabulary, n, minDepth, maxDepth int) *sig.Signature {
	threads := make([]sig.ThreadSpec, n)
	for i := range threads {
		threads[i] = sig.ThreadSpec{
			Outer: Stack(r, v, minDepth, maxDepth),
			Inner: Stack(r, v, minDepth, maxDepth),
		}
	}
	s := sig.New(threads...)
	s.Origin = sig.OriginLocal
	return s
}

// Manifestation derives another manifestation of the same deadlock bug as
// base: identical top frames, different (random-length, random-content)
// lower frames. Useful for exercising generalization.
func Manifestation(r *rand.Rand, v Vocabulary, base *sig.Signature, extraDepth int) *sig.Signature {
	threads := make([]sig.ThreadSpec, len(base.Threads))
	for i, t := range base.Threads {
		threads[i] = sig.ThreadSpec{
			Outer: withNewPrefix(r, v, t.Outer, extraDepth),
			Inner: withNewPrefix(r, v, t.Inner, extraDepth),
		}
	}
	s := sig.New(threads...)
	s.Origin = base.Origin
	return s
}

// withNewPrefix keeps the top half of the stack (at least the top frame)
// and replaces everything below with fresh random frames.
func withNewPrefix(r *rand.Rand, v Vocabulary, s sig.Stack, extraDepth int) sig.Stack {
	keep := len(s)/2 + 1
	if keep > len(s) {
		keep = len(s)
	}
	prefix := Stack(r, v, extraDepth, extraDepth)
	out := make(sig.Stack, 0, len(prefix)+keep)
	out = append(out, prefix...)
	out = append(out, s[len(s)-keep:]...)
	return out
}

// DistinctTops generates a signature whose top frames are guaranteed
// disjoint from those of prior, by drawing sites from a class namespace
// indexed by salt. Useful for building non-adjacent signature sets.
func DistinctTops(r *rand.Rand, v Vocabulary, salt int, minDepth, maxDepth int) *sig.Signature {
	mk := func() sig.ThreadSpec {
		outer := Stack(r, v, minDepth, maxDepth)
		inner := Stack(r, v, minDepth, maxDepth)
		// Overwrite the tops with salted, unique sites.
		outer[len(outer)-1] = saltedFrame(r, salt)
		inner[len(inner)-1] = saltedFrame(r, salt)
		return sig.ThreadSpec{Outer: outer, Inner: inner}
	}
	s := sig.New(mk(), mk())
	s.Origin = sig.OriginLocal
	return s
}

func saltedFrame(r *rand.Rand, salt int) sig.Frame {
	class := fmt.Sprintf("com/app/S%d/C%d", salt, r.Intn(1<<30))
	return sig.Frame{
		Class:  class,
		Method: "m",
		Line:   1 + r.Intn(1<<16),
		Hash:   HashForClass(class),
	}
}

// IDTwins returns two valid signatures that are not Equal but have
// equal IDs. Signature.ID joins a frame's fields with bytes 0x00–0x02,
// which a string may hold, so the one frame {C, "m\x005\x00h\x01D\x00n",
// 6, g} hashes exactly like the two frames C.m:5#h, D.n:6#g. The twin
// that spells out frames is a; both share their second thread.
func IDTwins() (a, b *sig.Signature) {
	shared := sig.ThreadSpec{
		Outer: sig.Stack{{Class: "E", Method: "o", Line: 1, Hash: "x"}},
		Inner: sig.Stack{{Class: "E", Method: "p", Line: 2, Hash: "x"}},
	}
	inner := sig.Stack{{Class: "C", Method: "q", Line: 7, Hash: "h"}}
	a = sig.New(sig.ThreadSpec{
		Outer: sig.Stack{{Class: "C", Method: "m\x005\x00h\x01D\x00n", Line: 6, Hash: "g"}},
		Inner: inner,
	}, shared)
	b = sig.New(sig.ThreadSpec{
		Outer: sig.Stack{{Class: "C", Method: "m", Line: 5, Hash: "h"}, {Class: "D", Method: "n", Line: 6, Hash: "g"}},
		Inner: inner,
	}, shared)
	return a, b
}
