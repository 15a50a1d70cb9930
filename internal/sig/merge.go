package sig

// MergePolicy controls which pairs of signatures generalization may merge
// (§III-D). Two signatures are mergeable iff they fingerprint the same
// deadlock bug (identical top frames) and either both are local, or — when
// a remote signature is involved — the merged outer stacks keep depth ≥
// MinDepth, so a malicious remote signature cannot erode a local signature
// below the safe depth.
type MergePolicy struct {
	// MinDepth is the minimum outer-stack depth a merge involving a remote
	// signature may produce. Zero means MinRemoteOuterDepth.
	MinDepth int
}

func (p MergePolicy) minDepth() int {
	if p.MinDepth <= 0 {
		return MinRemoteOuterDepth
	}
	return p.MinDepth
}

// Merge generalizes a and b into one signature whose call stacks are the
// longest common suffixes of the corresponding stacks (§III-D). It returns
// false if the signatures denote different bugs, have different thread
// counts, or the policy's depth floor would be violated.
//
// Thread specs are aligned by their (outer top, inner top) lock
// statements; a complete alignment existing is exactly the "same bug"
// condition (a bug is delimited by its outer and inner lock statements).
// Signatures with duplicate top pairs (possible in symmetric
// self-deadlocks) are aligned greedily in canonical order.
func (p MergePolicy) Merge(a, b *Signature) (*Signature, bool) {
	var buf [4]int
	bt, ok, _ := p.compare(a, b, buf[:0])
	if !ok {
		return nil, false
	}
	merged := &Signature{
		Threads: make([]ThreadSpec, len(a.Threads)),
		Origin:  mergedOrigin(a, b),
	}
	for i, t := range a.Threads {
		u := b.Threads[bt[i]]
		merged.Threads[i] = ThreadSpec{
			Outer: LongestCommonSuffix(t.Outer, u.Outer).Clone(),
			Inner: LongestCommonSuffix(t.Inner, u.Inner).Clone(),
		}
	}
	merged.Normalize()
	return merged, true
}

// Covers reports what Merge(a, b) followed by Equal(a) gives, without
// building the merge: ok is Merge's ok, and covered reports that the
// merge would equal a — b adds nothing canonical a does not already
// cover, so generalizing b into a leaves a as it is.
func (p MergePolicy) Covers(a, b *Signature) (ok, covered bool) {
	var buf [4]int
	_, ok, covered = p.compare(a, b, buf[:0])
	return ok, covered
}

// compare decides what Merge needs to know before it builds anything:
// whether a and b merge — equal thread counts, an alignment of b's
// thread specs to a's by top key, and, when a remote signature is
// involved, merged outer stacks no shallower than the floor — and
// whether the merge would equal a. The merge's stacks are suffixes of
// a's, so it does exactly when every aligned common suffix is the whole
// of a's stack. It appends to out, for each of a's thread specs, the
// index of b's aligned with it. LongestCommonSuffix returns subslices,
// so a refused merge costs no allocation: the agent probes many
// candidates per signature.
func (p MergePolicy) compare(a, b *Signature, out []int) (bt []int, ok, covered bool) {
	if len(a.Threads) != len(b.Threads) {
		return nil, false, false
	}
	if bt = alignByTopKey(a, b, out); bt == nil {
		return nil, false, false
	}
	floor := 0
	if mergedOrigin(a, b) == OriginRemote {
		floor = p.minDepth()
	}
	covered = true
	for i, t := range a.Threads {
		u := b.Threads[bt[i]]
		outer := LongestCommonSuffix(t.Outer, u.Outer).Depth()
		if outer < floor {
			return nil, false, false
		}
		covered = covered && outer == t.Outer.Depth() &&
			LongestCommonSuffix(t.Inner, u.Inner).Depth() == t.Inner.Depth()
	}
	return bt, true, covered
}

// mergedOrigin: a merge is "local" only if both inputs are local; any
// remote involvement subjects the result to the depth floor.
func mergedOrigin(a, b *Signature) Origin {
	if a.Origin == OriginLocal && b.Origin == OriginLocal {
		return OriginLocal
	}
	return OriginRemote
}

// alignByTopKey appends to out, for each of a's thread specs in turn,
// the index of the first unused thread spec of b with the same (outer
// top, inner top) lock statements, or returns nil if some spec of a has
// none. Comparison is by site, allocation-free for up to eight threads:
// this runs once per generalization candidate.
func alignByTopKey(a, b *Signature, out []int) []int {
	var small [8]bool
	used := small[:0]
	if len(b.Threads) <= len(small) {
		used = small[:len(b.Threads)]
	} else {
		used = make([]bool, len(b.Threads))
	}
	for _, t := range a.Threads {
		found := false
		for j, u := range b.Threads {
			if !used[j] && sameTops(t, u) {
				out = append(out, j)
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// sameTops reports whether two thread specs share their outer and inner
// lock statements.
func sameTops(t, u ThreadSpec) bool {
	return t.Outer.Top().SameSite(u.Outer.Top()) &&
		t.Inner.Top().SameSite(u.Inner.Top())
}
