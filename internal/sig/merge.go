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
	if len(a.Threads) != len(b.Threads) {
		return nil, false
	}
	bt := alignByTopKey(a, b)
	if bt == nil {
		return nil, false
	}
	origin := mergedOrigin(a, b)
	// Check the depth floor before materializing anything:
	// LongestCommonSuffix returns subslices, so a refused merge costs no
	// allocation — the agent probes many candidates per signature.
	if origin == OriginRemote {
		floor := p.minDepth()
		for i, t := range a.Threads {
			if LongestCommonSuffix(t.Outer, bt[i].Outer).Depth() < floor {
				return nil, false
			}
		}
	}
	merged := &Signature{
		Threads: make([]ThreadSpec, len(a.Threads)),
		Origin:  origin,
	}
	for i, t := range a.Threads {
		merged.Threads[i] = ThreadSpec{
			Outer: LongestCommonSuffix(t.Outer, bt[i].Outer).Clone(),
			Inner: LongestCommonSuffix(t.Inner, bt[i].Inner).Clone(),
		}
	}
	merged.Normalize()
	return merged, true
}

// mergedOrigin: a merge is "local" only if both inputs are local; any
// remote involvement subjects the result to the depth floor.
func mergedOrigin(a, b *Signature) Origin {
	if a.Origin == OriginLocal && b.Origin == OriginLocal {
		return OriginLocal
	}
	return OriginRemote
}

// alignByTopKey returns b's thread specs reordered so that element i has
// the same (outer top, inner top) lock statements as a.Threads[i], or nil
// if no such alignment exists. Comparison is by site, allocation-free:
// this runs once per generalization candidate.
func alignByTopKey(a, b *Signature) []ThreadSpec {
	out := make([]ThreadSpec, len(a.Threads))
	used := make([]bool, len(b.Threads))
	for i, t := range a.Threads {
		found := false
		for j, u := range b.Threads {
			if !used[j] && sameTops(t, u) {
				out[i] = u
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
