package commdlk

import (
	"slices"

	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// caseRescuersLocked returns the goroutines known to be able to unblock
// a wait on oc: for a blocked send, goroutines that have received on
// the channel; for a blocked recv, goroutines that have sent on it. The
// waiter itself never counts. nil means "no known rescuer" — which the
// detector treats as rescuable-by-unknown-parties, so cold channels
// (no usage history) can never produce a false detection. Caller holds
// rt.mu.
func (rt *Runtime) caseRescuersLocked(gid uint64, oc opCase) []uint64 {
	var users map[uint64]usage
	if oc.dir == dirSend {
		users = oc.core.recvUsers
	} else {
		users = oc.core.sendUsers
	}
	out := make([]uint64, 0, len(users))
	for g := range users {
		if g != gid {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return out
}

// detectLocked runs the stuck-set detector after self was registered in
// the waits-for graph. The stuck set is the greatest fixed point of:
// a blocked goroutine is stuck iff every one of its cases (disjunctive,
// for select) has a non-empty rescuer set wholly contained in the stuck
// set. If self is stuck, the deterministic cycle through smallest-id
// rescuers is extracted and fingerprinted. Caller holds rt.mu; the
// caller fires OnDeadlock after unlocking.
func (rt *Runtime) detectLocked(self *blockedOp) *dimmunix.Deadlock {
	if len(rt.blocked) < 2 {
		return nil
	}
	// A channel with blocked waiters in both directions is mid-handoff:
	// the send and the recv are about to complete against each other
	// (full excludes blocked recvs, empty excludes blocked sends, and an
	// unbuffered pair rendezvouses), so the graph caught a transient
	// between an op's native completion and its deregistration. Cases on
	// such channels are live, and a goroutine with a live case escapes.
	type chanDirs struct{ send, recv bool }
	dirs := make(map[*chanCore]*chanDirs, len(rt.blocked))
	for _, op := range rt.blocked {
		for _, oc := range op.cases {
			d := dirs[oc.core]
			if d == nil {
				d = &chanDirs{}
				dirs[oc.core] = d
			}
			if oc.dir == dirSend {
				d.send = true
			} else {
				d.recv = true
			}
		}
	}
	live := func(oc opCase) bool {
		d := dirs[oc.core]
		return d != nil && d.send && d.recv
	}

	stuck := make(map[uint64]bool, len(rt.blocked))
	for g := range rt.blocked {
		stuck[g] = true
	}
	for changed := true; changed; {
		changed = false
		for g, op := range rt.blocked {
			if !stuck[g] {
				continue
			}
			for _, oc := range op.cases {
				rs := rt.caseRescuersLocked(g, oc)
				escape := len(rs) == 0 || live(oc)
				if !escape {
					for _, r := range rs {
						if !stuck[r] {
							escape = true
							break
						}
					}
				}
				if escape {
					stuck[g] = false
					changed = true
					break
				}
			}
		}
	}
	if !stuck[self.gid] {
		return nil
	}

	// Extract the cycle: from self, follow each goroutine's first case
	// to its smallest stuck rescuer. Every rescuer of a stuck
	// goroutine's cases is itself stuck (else it would have escaped),
	// so the walk stays inside the stuck set and must revisit.
	type step struct {
		gid      uint64
		predCase opCase // the case whose wait the successor resolves
	}
	var walk []step
	seen := make(map[uint64]int)
	g := self.gid
	for {
		if at, ok := seen[g]; ok {
			walk = walk[at:]
			break
		}
		seen[g] = len(walk)
		op := rt.blocked[g]
		oc := op.cases[0]
		rs := rt.caseRescuersLocked(g, oc)
		next := uint64(0)
		found := false
		for _, r := range rs {
			if stuck[r] {
				next = r
				found = true
				break
			}
		}
		if !found {
			return nil // defensive: fixpoint said otherwise
		}
		walk = append(walk, step{gid: g, predCase: oc})
		g = next
	}

	// Fingerprint: member i's inner stack is where it blocks; its outer
	// stack is where it engaged the channel its predecessor waits on —
	// the live deposit it holds there, or its recorded usage site.
	n := len(walk)
	threads := make([]dimmunix.ThreadID, n)
	specs := make([]sig.ThreadSpec, n)
	for i, st := range walk {
		threads[i] = dimmunix.ThreadID(st.gid)
		pred := walk[(i-1+n)%n]
		outer := rt.engagementLocked(st.gid, pred.predCase)
		if len(outer) == 0 {
			return nil // no stamped engagement: cannot fingerprint
		}
		op := rt.blocked[st.gid]
		specs[i] = sig.ThreadSpec{
			Outer: outer,
			Inner: stampKind(op.stack, op.kind),
		}
	}
	s := sig.New(specs...)
	s.Origin = sig.OriginLocal
	if s.Valid() != nil {
		return nil
	}
	return &dimmunix.Deadlock{
		Signature: s,
		Threads:   threads,
		Known:     rt.shared.History.Get(s.ID()) != nil,
	}
}

// engagementLocked returns the kind-stamped stack of gid's engagement
// on the channel of predCase — the deposit it holds in the channel (a
// blocked send waits for capacity the depositors consumed), else its
// recorded usage in the rescuing direction. Caller holds rt.mu.
func (rt *Runtime) engagementLocked(gid uint64, predCase opCase) sig.Stack {
	c := predCase.core
	if predCase.dir == dirSend {
		// gid rescues by receiving; its engagement is the deposit that
		// fills the capacity the predecessor needs.
		for _, d := range c.deposits {
			if d.gid == gid {
				return stampKind(d.stack, d.kind)
			}
		}
		if u, ok := c.recvUsers[gid]; ok {
			return stampKind(u.stack, u.kind)
		}
		return nil
	}
	// gid rescues by sending; its engagement is its send site.
	if u, ok := c.sendUsers[gid]; ok {
		return stampKind(u.stack, u.kind)
	}
	return nil
}
