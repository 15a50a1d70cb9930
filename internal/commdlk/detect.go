package commdlk

import (
	"slices"

	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// graph is the channel side of the host's waits-for graph
// (dimmunix.ChanGraph), read by the host's one detector, yield-cycle
// breaker and true-positive check. Its methods run under rt.mu.
type graph Runtime

// Cases returns the rescuer sets of t's blocked op, one per case: for a
// send, the goroutines known to receive on the channel; for a recv, its
// known senders; never t itself. A set is empty when nobody is known (a
// cold channel, rescuable by unknown parties) and when the channel has
// blocked ops in both directions: it is mid-handoff, the send and the
// recv about to complete against each other (full excludes blocked
// recvs, empty excludes blocked sends, and an unbuffered pair
// rendezvouses), so the graph caught a transient between an op's native
// completion and its withdrawal.
func (g *graph) Cases(t dimmunix.ThreadID) [][]dimmunix.ThreadID {
	op, ok := g.blocked[uint64(t)]
	if !ok {
		return nil
	}
	cases := make([][]dimmunix.ThreadID, len(op.cases))
	for i, oc := range op.cases {
		cases[i] = oc.core.rescuers(oc.dir, t)
	}
	return cases
}

// rescuers returns the goroutines known to use c in the direction
// opposite to dir, but t, ascending: the rescuers of an op of direction
// dir blocked on c. None while c has blocked ops in both directions.
func (c *chanCore) rescuers(dir opDir, t dimmunix.ThreadID) []dimmunix.ThreadID {
	if c.waiting[dirSend] > 0 && c.waiting[dirRecv] > 0 {
		return nil
	}
	users := c.sendUsers
	if dir == dirSend {
		users = c.recvUsers
	}
	var rs []dimmunix.ThreadID
	for u := range users {
		if r := dimmunix.ThreadID(u); r != t {
			rs = append(rs, r)
		}
	}
	slices.Sort(rs)
	return rs
}

// Engagement returns t's kind-stamped stack on the channel of case c of
// pred's blocked op. A blocked send waits for capacity, so t's
// engagement is the deposit it holds there, else its recorded receive; a
// blocked recv waits for a sender, so it is t's send site.
func (g *graph) Engagement(t, pred dimmunix.ThreadID, c int) sig.Stack {
	oc, gid := g.blocked[uint64(pred)].cases[c], uint64(t)
	users := oc.core.sendUsers
	if oc.dir == dirSend {
		for _, d := range oc.core.deposits {
			if d.gid == gid {
				return stampKind(d.stack, d.kind)
			}
		}
		users = oc.core.recvUsers
	}
	if u, ok := users[gid]; ok {
		return stampKind(u.stack, u.kind)
	}
	return nil
}

// Inner returns the kind-stamped stack of t's blocked op.
func (g *graph) Inner(t dimmunix.ThreadID) sig.Stack {
	op := g.blocked[uint64(t)]
	return stampKind(op.stack, op.kind)
}

// Engagements hands the live deposits, channel by channel, and then the
// blocked ops, each on its first case's channel, to f.
func (g *graph) Engagements(f func(t dimmunix.ThreadID, r *dimmunix.Resource, cs sig.Stack, slots dimmunix.Slots) dimmunix.Slots) {
	for _, c := range g.filled {
		for i := range c.deposits {
			d := &c.deposits[i]
			d.slots = f(dimmunix.ThreadID(d.gid), &c.Resource, stampKind(d.stack, d.kind), d.slots)
		}
	}
	for _, op := range g.blocked {
		op.slots = f(dimmunix.ThreadID(op.gid), &op.cases[0].core.Resource, stampKind(op.stack, op.kind), op.slots)
	}
}
