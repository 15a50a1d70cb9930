package dimmunix

import (
	"communix/internal/sig"
)

// topKey is the comparable site identity of a stack's top frame (the lock
// statement). The avoidance index keys its outer-stack matchers by it
// instead of Frame.Key() so that lookups on the acquisition hot path
// allocate nothing.
type topKey struct {
	class  string
	method string
	line   int
	kind   string
}

func topKeyOf(f sig.Frame) topKey {
	return topKey{class: f.Class, method: f.Method, line: f.Line, kind: f.Kind}
}

// AvoidIndex is an immutable snapshot of the history's avoidance
// matchers: every signature slot, grouped by the site of its outer
// stack's top frame. The History rebuilds it on every mutation and
// publishes it with one atomic pointer store, so the acquisition fast
// path can answer "does this call stack match any history signature?"
// with two atomic loads and one map probe — no lock, no allocation.
//
// An AvoidIndex is never mutated after publication; the signatures it
// references are the history's own normalized instances, which are
// immutable once inserted.
type AvoidIndex struct {
	version uint64
	byTop   map[topKey][]SlotRef
	// maxOuterDepth is the deepest outer stack across all slots. The
	// adaptive capture uses it as its shallow-depth floor: a capture at
	// least this deep can never lose a suffix match against this index
	// to truncation.
	maxOuterDepth int
	// live is the set of signature instances the index reflects (the
	// history keeps one stable normalized instance per signature, so
	// instance identity is signature identity). The runtime's position
	// refresh diffs it against the index it last applied (indexDelta).
	live map[*sig.Signature]struct{}
	// filter is a 4096-bit presence filter over the indexed top sites,
	// keyed by a hash that touches no string bytes (length, boundary
	// characters, line). The common fast-path miss answers from one
	// array load instead of hashing the frame's strings; false positives
	// merely fall through to the exact map probe.
	filter [64]uint64
}

// frameFilterKey hashes a frame's cheap features: constant-time in the
// string lengths, no byte iteration. Takes a pointer so hot callers skip
// the 56-byte Frame copy.
func frameFilterKey(f *sig.Frame) uint64 {
	h := uint64(f.Line) ^ uint64(len(f.Class))<<20 ^ uint64(len(f.Method))<<40
	if n := len(f.Class); n > 0 {
		h ^= uint64(f.Class[0])<<48 ^ uint64(f.Class[n-1])<<56
	}
	if n := len(f.Method); n > 0 {
		h ^= uint64(f.Method[n-1]) << 8
	}
	if n := len(f.Kind); n > 0 {
		h ^= uint64(n)<<16 ^ uint64(f.Kind[0])<<32
	}
	h *= 0x9E3779B97F4A7C15
	return h
}

// emptyIndex is what a fresh history publishes before any mutation.
var emptyIndex = &AvoidIndex{}

// buildIndex snapshots the history's matcher state from its entries, in
// insertion order, so every top site's refs come sorted by insertion
// number, then slot: deterministic matching order and the multi-shard
// lock order. Caller holds h.mu.
func buildIndex(version uint64, order []*entry) *AvoidIndex {
	ix := &AvoidIndex{
		version: version,
		byTop:   make(map[topKey][]SlotRef),
		live:    make(map[*sig.Signature]struct{}, len(order)),
	}
	for _, e := range order {
		if e.removed {
			continue
		}
		s := e.sig
		ix.live[s] = struct{}{}
		for slot, t := range s.Threads {
			top := t.Outer.Top()
			key := topKeyOf(top)
			ix.byTop[key] = append(ix.byTop[key], SlotRef{Sig: s, Slot: slot, Seq: e.seq})
			h := frameFilterKey(&top)
			ix.filter[(h>>6)&63] |= 1 << (h & 63)
			if d := t.Outer.Depth(); d > ix.maxOuterDepth {
				ix.maxOuterDepth = d
			}
		}
	}
	return ix
}

// indexDelta returns the signature instances in to but not in from
// (added) and in from but not in to (removed): exactly what changed
// between the two indexes, however many mutations lie between them. A
// signature added and removed in between is in neither set; one removed
// and re-added is a fresh instance, so the old instance is removed and
// the new one added.
func indexDelta(from, to *AvoidIndex) (added, removed []*sig.Signature) {
	for s := range to.live {
		if _, ok := from.live[s]; !ok {
			added = append(added, s)
		}
	}
	for s := range from.live {
		if _, ok := to.live[s]; !ok {
			removed = append(removed, s)
		}
	}
	return added, removed
}

// MinSafeCaptureDepth returns the shallow-capture floor for this index
// (stacktrace.TopSiteFilter): a capture at least this deep loses no
// suffix match against any indexed outer stack to truncation.
func (ix *AvoidIndex) MinSafeCaptureDepth() int { return ix.maxOuterDepth }

// Version identifies the history mutation this index reflects.
func (ix *AvoidIndex) Version() uint64 { return ix.version }

// Len returns the number of distinct outer top sites indexed.
func (ix *AvoidIndex) Len() int { return len(ix.byTop) }

// MatchesTopSite reports whether some signature slot's outer stack ends
// at the given site — i.e. whether a stack topped by f could possibly
// match a signature. It is the adaptive capture's "deepen?" probe
// (stacktrace.TopSiteFilter): cheaper than Matches (no suffix walk) and
// exact on the top site, so a miss guarantees a shallow capture is as
// good as a full one for avoidance purposes. Allocates nothing.
func (ix *AvoidIndex) MatchesTopSite(f *sig.Frame) bool {
	if len(ix.byTop) == 0 {
		return false
	}
	h := frameFilterKey(f)
	if ix.filter[(h>>6)&63]&(1<<(h&63)) == 0 {
		return false
	}
	_, ok := ix.byTop[topKeyOf(*f)]
	return ok
}

// Candidates returns the index's slot refs whose outer stacks end at
// cs's top site — a superset of Match(cs) that shares the index's own
// backing slice, so the matched acquisition path can iterate candidates
// without allocating. Callers must still confirm each candidate with
// cs.HasSuffix(r.Sig.Threads[r.Slot].Outer) and must not mutate the
// returned slice.
func (ix *AvoidIndex) Candidates(cs sig.Stack) []SlotRef {
	if len(cs) == 0 || len(ix.byTop) == 0 {
		return nil
	}
	top := &cs[len(cs)-1]
	h := frameFilterKey(top)
	if ix.filter[(h>>6)&63]&(1<<(h&63)) == 0 {
		return nil
	}
	return ix.byTop[topKeyOf(*top)]
}

// Matches reports whether cs is a suffix-match for any signature slot's
// outer stack. It is the fast path's eligibility test and allocates
// nothing.
func (ix *AvoidIndex) Matches(cs sig.Stack) bool {
	if len(ix.byTop) == 0 || len(cs) == 0 {
		return false
	}
	top := &cs[len(cs)-1]
	h := frameFilterKey(top)
	if ix.filter[(h>>6)&63]&(1<<(h&63)) == 0 {
		return false
	}
	refs, ok := ix.byTop[topKeyOf(*top)]
	if !ok {
		return false
	}
	for _, r := range refs {
		if cs.HasSuffix(r.Sig.Threads[r.Slot].Outer) {
			return true
		}
	}
	return false
}

// Match returns every signature slot whose outer call stack is a suffix
// of cs, or nil.
func (ix *AvoidIndex) Match(cs sig.Stack) []SlotRef {
	if len(cs) == 0 || len(ix.byTop) == 0 {
		return nil
	}
	refs, ok := ix.byTop[topKeyOf(cs.Top())]
	if !ok {
		return nil
	}
	var out []SlotRef
	for _, r := range refs {
		if cs.HasSuffix(r.Sig.Threads[r.Slot].Outer) {
			out = append(out, r)
		}
	}
	return out
}
