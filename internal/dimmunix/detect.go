package dimmunix

import (
	"communix/internal/sig"
)

// One deadlock detector for every kind of wait.
//
// A blocked thread has one or more cases — alternative ways to be
// released — each with a set of rescuers, the threads that could release
// it. A lock wait has one case, rescued by the lock's owner; a blocked
// channel op (ShareGraph) has one case per channel it waits on, rescued
// by the goroutines known to use that channel in the other direction. A
// thread is stuck when every one of its cases has rescuers and all of
// them are stuck: the greatest fixed point over the threads reachable
// from the one that just blocked. An empty rescuer set escapes, for
// either kind: a lock between owners, a cold channel (no known
// counterpart: an unknown party may yet act) or a channel mid-handoff.
//
// Only the thread that closes a cycle fingerprints it: a thread that
// merely waits on a deadlocked knot records nothing. The cycle is the
// first one back to that thread, taking cases in order and rescuers
// smallest id first. Each member contributes its engagement on the
// primitive its predecessor waits on as the outer stack (the outer stack
// of its lock hold, or its channel deposit or usage site) and its
// blocked stack as the inner one, whatever kinds the two are.

// ChanGraph is a channel runtime's side of its host's waits-for graph,
// handed over by ShareGraph. Its methods run with the host's mutex held.
type ChanGraph interface {
	// Cases returns the rescuer sets of t's blocked channel op, one per
	// case in the op's order, each ascending; nil when t is not blocked
	// on a channel. An empty set escapes.
	Cases(t ThreadID) [][]ThreadID
	// Engagement returns t's outer stack on the channel of case c of
	// pred's blocked op: its live deposit there, or its usage site; nil
	// if it has none.
	Engagement(t, pred ThreadID, c int) sig.Stack
	// Inner returns the stack of t's blocked channel op, with the op's
	// kind on its top frame.
	Inner(t ThreadID) sig.Stack
	// Engagements hands every live channel engagement — a deposit, or a
	// blocked op on its first case's channel — to f with its thread,
	// channel, kind-stamped stack and slots, and keeps the slots f
	// returns: how a position refresh registers them against added
	// signatures.
	Engagements(f func(t ThreadID, r *Resource, cs sig.Stack, slots Slots) Slots)
}

// casesLocked returns t's cases: a lock wait's one case, its owner, else
// those of its blocked channel op, else nil (t is not blocked). These
// are the wait edges of the detector, the yield-cycle breaker and the
// true-positive check alike. Caller holds rt.mu.
func (rt *Runtime) casesLocked(t ThreadID) [][]ThreadID {
	if ts, ok := rt.threads[t]; ok && ts.wait != nil {
		if o := ts.wait.lock.owner; o != 0 {
			return [][]ThreadID{{o}}
		}
		return nil
	}
	if rt.chans != nil {
		return rt.chans.Cases(t)
	}
	return nil
}

// member is one thread of a wait-for cycle, waiting on its case c,
// which the next member rescues.
type member struct {
	t ThreadID
	c int
}

// cycleLocked returns the wait-for cycle through start, in wait order
// from start, or nil when start is not stuck or only waits on stuck
// threads. startCases stands in for start's own cases, so the
// true-positive check can ask about a wait not yet registered. Caller
// holds rt.mu.
func (rt *Runtime) cycleLocked(start ThreadID, startCases [][]ThreadID) []member {
	// Most waits are on a running thread: no search then.
	if len(startCases) == 0 {
		return nil
	}
	for _, rs := range startCases {
		for _, r := range rs {
			if rt.casesLocked(r) == nil {
				return nil
			}
		}
	}
	type node struct {
		t     ThreadID
		cases [][]ThreadID
		stuck bool
	}
	nodes := []node{{t: start, cases: startCases, stuck: true}}
	at := map[ThreadID]int{start: 0}
	for i := 0; i < len(nodes); i++ {
		for _, rs := range nodes[i].cases {
			for _, r := range rs {
				if _, ok := at[r]; !ok {
					at[r] = len(nodes)
					cs := rt.casesLocked(r)
					nodes = append(nodes, node{t: r, cases: cs, stuck: len(cs) != 0})
				}
			}
		}
	}
	for changed := true; changed && nodes[0].stuck; {
		changed = false
	scan:
		for i := range nodes {
			if !nodes[i].stuck {
				continue
			}
			for _, rs := range nodes[i].cases {
				escapes := len(rs) == 0
				for _, r := range rs {
					escapes = escapes || !nodes[at[r]].stuck
				}
				if escapes {
					nodes[i].stuck, changed = false, true
					continue scan
				}
			}
		}
	}
	if !nodes[0].stuck {
		return nil
	}
	// Every rescuer of a stuck thread is stuck, so the search stays in
	// the stuck set; it fails when start only waits on a knot.
	visited := make([]bool, len(nodes))
	var path []member
	var visit func(i int) bool
	visit = func(i int) bool {
		visited[i] = true
		for c, rs := range nodes[i].cases {
			path = append(path, member{t: nodes[i].t, c: c})
			for _, r := range rs {
				if j := at[r]; j == 0 || !visited[j] && visit(j) {
					return true
				}
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !visit(0) {
		return nil
	}
	return path
}

// fingerprintLocked extracts the deadlock fingerprint of a wait-for
// cycle (§II-A): each member's outer stack is its engagement on the
// primitive its predecessor waits on, and its inner stack is where it
// blocks. A member with no engagement to show yields no fingerprint.
//
// The fingerprint is copied once (sig.New) and never hashed whole (the
// history looks for a duplicate in its bug's bucket), and the history
// takes a new one over as it is: the Deadlock carries the
// history's own instance, read-only from here on. A fingerprint Equal
// to a stored signature is Known and carries the stored instance.
// Caller holds rt.mu.
func (rt *Runtime) fingerprintLocked(cycle []member) *Deadlock {
	n := len(cycle)
	threads := make([]ThreadID, n)
	specs := make([]sig.ThreadSpec, n)
	for i, m := range cycle {
		outer := rt.engagementLocked(m.t, cycle[(i-1+n)%n])
		if len(outer) == 0 {
			return nil
		}
		threads[i] = m.t
		specs[i] = sig.ThreadSpec{Outer: outer, Inner: rt.innerLocked(m.t)}
	}
	s := sig.New(specs...)
	s.Origin = sig.OriginLocal
	dl := &Deadlock{Signature: s, Threads: threads}
	if s.Valid() == nil {
		held, added := rt.history.adopt(s)
		dl.Signature, dl.Known = held, !added
	}
	return dl
}

// engagementLocked returns t's outer stack on the primitive pred waits
// on: the outer stack of t's hold of the lock, or t's engagement on the
// channel of pred's case. Caller holds rt.mu.
func (rt *Runtime) engagementLocked(t ThreadID, pred member) sig.Stack {
	if ps, ok := rt.threads[pred.t]; ok && ps.wait != nil {
		for _, h := range rt.threads[t].held { // t owns the lock pred waits on
			if h.lock == ps.wait.lock {
				return h.outer
			}
		}
		return nil
	}
	return rt.chans.Engagement(t, pred.t, pred.c)
}

// innerLocked returns the stack t blocks at. Caller holds rt.mu.
func (rt *Runtime) innerLocked(t ThreadID) sig.Stack {
	if ts, ok := rt.threads[t]; ok && ts.wait != nil {
		return ts.wait.stack
	}
	return rt.chans.Inner(t)
}

// NewWaitLocked runs after tid registered a new wait, on a lock or a
// channel (ShareGraph). Unless detection is disabled, it looks for the
// wait-for cycle the wait closed and hands a new fingerprint to the
// history (fingerprintLocked); then the yield-cycle breaker runs, since
// the wait may have closed a wait+yield cycle too. The caller counts a
// returned deadlock, applies the recovery policy to its own wait, and
// calls OnDeadlock once rt.mu is released. Caller holds rt.mu.
func (rt *Runtime) NewWaitLocked(tid ThreadID) *Deadlock {
	var dl *Deadlock
	if !rt.cfg.DetectionDisabled {
		if cycle := rt.cycleLocked(tid, rt.casesLocked(tid)); cycle != nil {
			dl = rt.fingerprintLocked(cycle)
		}
	}
	BreakYieldCycles(rt.yielders, rt.casesLocked)
	return dl
}
