// Package commdlk extends Communix's immunity model from resource
// deadlocks (mutex cycles, internal/dimmunix) to communication
// deadlocks: blocked channel sends, recvs, and selects — the dominant
// real-world deadlock class in Go.
//
// The model mirrors Dimmunix's, transposed to channels. Every blocking
// channel operation registers a node in its host's one waits-for graph
// (a select contributes one node with a case per channel it waits on),
// beside the host's lock waits, and the host's one detector
// (dimmunix.ChanGraph) runs on it. A case's rescuers are derived from
// observed channel usage: a blocked send can only be rescued by a
// goroutine known to receive on that channel, a blocked recv by a known
// sender. A case with no known rescuer escapes (an unknown party may yet
// act), so detection has no false positives on cold channels; it fires
// once both sides of a cycle have a usage history, which any warmed-up
// workload provides. A cycle may run through channels and mutexes
// alike.
//
// A detected deadlock becomes an ordinary signature in the internal/sig
// suffix format: each cycle member contributes an outer stack (where it
// engaged the primitive its predecessor waits on — for a channel, its
// live deposit into a buffered channel or its recorded usage site) and
// an inner stack (where it blocks). Channel frames carry their own frame
// kind (sig.KindChanSend/Recv/Select), so the codec, merge, store, WAL,
// replication, and push distribution pipelines carry them byte-for-byte
// unchanged, while a channel site can never suffix-match a mutex site or
// vice versa.
//
// A Runtime is the channel half of a dimmunix.Runtime, its host, and
// avoids through the host's one threat check
// (dimmunix.Runtime.AvoidLocked): a channel engagement — a live deposit,
// or a blocked op on its first case's channel — is a position in the
// host's per-signature shards beside lock holds and waits, so an op
// whose kind-stamped stack suffix-matches a history signature's outer
// stack parks while distinct goroutines occupy the signature's other
// slots on distinct resources, locks and channels alike, and a lock
// acquisition parks behind channel engagements the same way. Dropping
// an engagement wakes the yielders of its shards only. A blocked op's
// rescuers are its wait edges in the host's one graph, beside mutex
// waiters' lock owners, so a wait+yield cycle forces its smallest-id
// yielder through whichever primitives it crosses.
//
// All bookkeeping runs under the host's mutex, and each op decides and
// engages in one hold of it (Runtime.enter): the threat check, the
// native non-blocking attempt, and the recorded deposit or registered
// wait with detection, which takes over the slots the check occupied.
// The differential GraphDisabled arm (raw channel ops, no bookkeeping)
// doubles as the zero-overhead baseline the runtime bench compares
// against.
package commdlk

import (
	"errors"
	"slices"
	"sync"

	"communix/internal/dimmunix"
	"communix/internal/sig"
	"communix/internal/stacktrace"
)

// Errors returned by channel operations.
var (
	// ErrDeadlock reports that this operation's wait closed a detected
	// communication-deadlock cycle and the RecoverBreak policy denied
	// it (after fingerprinting).
	ErrDeadlock = errors.New("commdlk: channel operation would deadlock (signature recorded)")
	// ErrClosed reports that the runtime was shut down while the caller
	// was blocked or parked.
	ErrClosed = errors.New("commdlk: runtime closed")
)

// Config parameterizes a channel-deadlock Runtime beyond what it shares
// with its host. The zero value is usable.
type Config struct {
	// GraphDisabled bypasses the subsystem entirely: every Chan op is
	// the raw native channel op, no capture, no bookkeeping, no
	// detection, no avoidance. This is the lockstep differential
	// reference arm: it proves detection soundness (scenarios that
	// deadlock under it genuinely deadlock).
	GraphDisabled bool
}

// Stats is a snapshot of runtime counters.
type Stats struct {
	// Deadlocks counts deadlocks whose cycle a channel op's wait closed.
	Deadlocks uint64
	// Yields counts avoidance suspensions of channel ops, as the mutex
	// half's Stats.Yields counts lock acquisitions'.
	Yields uint64
	// AvoidanceBreaks counts yielders forced through to break a
	// wait+yield cycle.
	AvoidanceBreaks uint64
	// Blocked counts ops that entered the blocking slow path.
	Blocked uint64
}

// opDir distinguishes the two edge directions of the waits-for graph.
type opDir int

const (
	dirSend opDir = iota
	dirRecv
)

func (d opDir) kind() string {
	if d == dirSend {
		return sig.KindChanSend
	}
	return sig.KindChanRecv
}

// usage records where (and via which construct) a goroutine last
// completed an op on a channel.
type usage struct {
	stack sig.Stack
	kind  string
}

// deposit is one live buffered item: who filled the slot and where. It
// is the channel analogue of "holds the lock" — the engagement the
// avoidance positions and signature outer stacks are built from.
type deposit struct {
	gid   uint64
	stack sig.Stack
	kind  string
	slots dimmunix.Slots // the signature slots it occupies
}

// chanCore is the per-channel bookkeeping shared by every Chan[T]
// instantiation. All fields past the immutable header are guarded by
// rt.mu, the host's mutex.
type chanCore struct {
	// Resource is what the channel's engagements are on.
	dimmunix.Resource
	rt       *Runtime
	name     string
	capacity int
	buffered func() int // the native buffer's current length

	deposits  []deposit
	sendUsers map[uint64]usage
	recvUsers map[uint64]usage
	// waiting counts the ops blocked on the channel per direction
	// (indexed by opDir).
	waiting [2]int
}

// opCase is one (channel, direction) a blocked op waits on.
type opCase struct {
	core *chanCore
	dir  opDir
}

// blockedOp is a registered node of the waits-for graph: one goroutine
// blocked on one or more channel cases (>1 for select).
type blockedOp struct {
	gid   uint64
	cases []opCase
	stack sig.Stack
	kind  string
	slots dimmunix.Slots // occupied on its first case's channel
}

// Runtime maintains a node's channel waits-for graph, detector and
// avoidance state: the channel half of its host dimmunix runtime.
type Runtime struct {
	cfg  Config
	host *dimmunix.Runtime
	// mu, shared and capture are the host's lock (over both halves'
	// graph state and the yielder table), configuration and capture
	// cache.
	mu      *sync.Mutex
	shared  dimmunix.Config
	capture *stacktrace.Cache

	// half counts the channel ops' yields and breaks and closes them.
	half dimmunix.Half
	// filled holds the channels that currently hold deposits, in
	// first-fill order: the live deposits a position refresh walks.
	filled  []*chanCore
	blocked map[uint64]*blockedOp
	stats   Stats

	// closedCh releases every blocked op on Close.
	closedCh chan struct{}

	// afterAvoidHook, when set by a test, runs in enter under rt.mu once
	// avoidance has let the op through and before its native attempt:
	// the window the engagement's record must not leave open.
	afterAvoidHook func(gid uint64)
}

// NewRuntime builds the channel half of host, at most one per host. Its
// channels share host's lock, yielder table, waits-for graph and
// detector, history, recovery policy, avoidance and detection switches,
// OnDeadlock hook and capture cache.
// The graph names channel waiters by goroutine id, so from now on the
// thread ids passed to host's Acquire and Mutex.LockAt must be
// goroutine ids too.
func NewRuntime(host *dimmunix.Runtime, cfg Config) *Runtime {
	rt := &Runtime{
		cfg:      cfg,
		host:     host,
		blocked:  make(map[uint64]*blockedOp),
		closedCh: make(chan struct{}),
	}
	rt.mu, rt.shared, rt.capture = host.ShareGraph((*graph)(rt))
	return rt
}

// Close shuts the channel half down: every blocked op and parked
// yielder returns ErrClosed. The host stays open. Idempotent.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.half.Closed.Load() {
		rt.mu.Unlock()
		return
	}
	rt.half.Closed.Store(true)
	close(rt.closedCh)
	rt.host.WakeYieldersLocked()
	rt.mu.Unlock()
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.stats
	st.Yields, st.AvoidanceBreaks = rt.half.Yields.Load(), rt.half.Breaks.Load()
	return st
}

// Waiting returns how many goroutines are currently blocked in the
// waits-for graph or parked as yielders. Workloads use it to sequence
// deterministic schedules ("proceed once the peer is committed to its
// wait").
func (rt *Runtime) Waiting() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.blocked) + rt.half.Parked
}

// kindFilter adapts the avoidance index to the capture-time top-site
// probe: raw captures carry no kind — the op imposes one — so the probe
// stamps the op's kind onto a copy of the resolved top frame before
// asking the index. A miss proves no channel signature of this kind
// ends at the site, exactly the guarantee CaptureAdaptive needs.
type kindFilter struct {
	idx  *dimmunix.AvoidIndex
	kind string
}

func (f kindFilter) MatchesTopSite(fr *sig.Frame) bool {
	p := *fr
	p.Kind = f.kind
	return f.idx.MatchesTopSite(&p)
}

func (f kindFilter) MinSafeCaptureDepth() int { return f.idx.MinSafeCaptureDepth() }

// captureOp captures the calling op's stack with the PR 4 adaptive
// two-phase discipline, kind-aware. skip counts frames between the
// user's call site and captureOp's caller (1 for a direct Chan method).
func (rt *Runtime) captureOp(skip int, kind string) sig.Stack {
	idx := rt.shared.History.Index()
	return rt.capture.CaptureAdaptive(skip+1, kindFilter{idx: idx, kind: kind},
		stacktrace.DefaultShallowDepth, stacktrace.DefaultDepth)
}

// stampKind returns a copy of cs with the op kind on its top frame —
// the form channel stacks take inside signatures.
func stampKind(cs sig.Stack, kind string) sig.Stack {
	out := cs.Clone()
	if len(out) > 0 {
		out[len(out)-1].Kind = kind
	}
	return out
}

// matchable returns cs stamped with the op's kind when some history
// signature's outer stack ends at its site, else nil. Only such an op
// can occupy a signature slot, so only it is checked for a threat and
// copied.
func (rt *Runtime) matchable(cs sig.Stack, kind string) sig.Stack {
	if len(cs) == 0 || !(kindFilter{idx: rt.shared.History.Index(), kind: kind}).MatchesTopSite(&cs[len(cs)-1]) {
		return nil
	}
	return stampKind(cs, kind)
}

// enter is a channel op's first critical section: one rt.mu hold for
// the avoidance decision (the host's threat check, which parks the op
// while completing would instantiate a history signature), the native
// non-blocking attempt try, and then either the completion's record or
// the op's wait in the graph with detection. The slots the check
// occupied pass to the deposit or the blocked op the op creates, or are
// given back. Deciding and engaging in one hold is what keeps two ops
// from both passing avoidance and filling both of a signature's slots.
// try returns the index of the case it completed, or -1. A nil op
// reports the outcome: case chosen completed, or err. A non-nil op is
// the registered wait: the caller performs the native blocking op
// through await. OnDeadlock runs once rt.mu is released, and a
// panicking try (a send on a closed channel) releases it too.
func (rt *Runtime) enter(gid uint64, cs sig.Stack, kind string, cases []opCase, try func() int) (op *blockedOp, chosen int, err error) {
	var (
		dl    *dimmunix.Deadlock
		first = cases[0].core
		slots dimmunix.Slots // occupied, not yet taken by an engagement
	)
	rt.mu.Lock()
	defer func() {
		rt.releaseLocked(first, gid, slots)
		rt.mu.Unlock()
		if dl != nil && rt.shared.OnDeadlock != nil {
			rt.shared.OnDeadlock(*dl)
		}
	}()
	if ks := rt.matchable(cs, kind); ks != nil {
		wait := func() [][]dimmunix.ThreadID { return rt.waitCasesLocked(gid, cases) }
		if slots, err = rt.host.AvoidLocked(&rt.half, dimmunix.ThreadID(gid), &first.Resource, ks, wait); err != nil {
			return nil, -1, ErrClosed
		}
	}
	if rt.afterAvoidHook != nil {
		rt.afterAvoidHook(gid)
	}
	if chosen = try(); chosen >= 0 {
		rt.recordLocked(cases[chosen], gid, cs, kind, first, slots)
		slots = nil
		return nil, chosen, nil
	}
	if rt.half.Closed.Load() {
		return nil, -1, ErrClosed
	}
	op = &blockedOp{gid: gid, cases: cases, stack: cs, kind: kind, slots: slots}
	slots = nil
	rt.blockLocked(op, 1)
	rt.stats.Blocked++
	// The host's detector and yield-cycle breaker, over channels and
	// mutexes alike.
	if dl = rt.host.NewWaitLocked(dimmunix.ThreadID(gid)); dl != nil {
		rt.stats.Deadlocks++
		if rt.shared.Policy == dimmunix.RecoverBreak {
			rt.blockLocked(op, -1)
			slots = op.slots
			op, err = nil, ErrDeadlock
		}
	}
	return op, -1, err
}

// waitCasesLocked returns the rescuer sets an op on cases would wait on
// were it to block now, as Cases would report them, or nil when one of
// its cases can complete at once: room in the buffer or a blocked recv
// for a send, an item or a blocked send for a recv. A yield is a true
// positive when the op it holds back would close a wait-for cycle.
// Caller holds rt.mu.
func (rt *Runtime) waitCasesLocked(gid uint64, cases []opCase) [][]dimmunix.ThreadID {
	out := make([][]dimmunix.ThreadID, len(cases))
	for i, oc := range cases {
		c, n := oc.core, oc.core.buffered()
		if oc.dir == dirSend && (n < c.capacity || c.waiting[dirRecv] > 0) ||
			oc.dir == dirRecv && (n > 0 || c.waiting[dirSend] > 0) {
			return nil
		}
		out[i] = c.rescuers(oc.dir, dimmunix.ThreadID(gid))
	}
	return out
}

// blockLocked enters op's wait in the graph (delta 1) or withdraws it
// (delta -1), keeping its channels' per-direction counts. Caller holds
// rt.mu.
func (rt *Runtime) blockLocked(op *blockedOp, delta int) {
	if delta > 0 {
		rt.blocked[op.gid] = op
	} else {
		delete(rt.blocked, op.gid)
	}
	for _, oc := range op.cases {
		oc.core.waiting[oc.dir] += delta
	}
}

// await runs a blocked op's native blocking op, wait, which returns the
// chosen case or -1 when the runtime closed under it, and then leaves
// with that case. It leaves also when wait panics, as a native send does
// on a channel closed while it blocked, so no wait outlives its op.
func (rt *Runtime) await(op *blockedOp, wait func() int) (chosen int) {
	chosen = -1
	defer func() { rt.leave(op, chosen) }()
	return wait()
}

// leave is a blocked op's second critical section, after its native
// blocking op returned: it withdraws the wait and, unless the runtime
// closed under it (chosen < 0), records the completion of case chosen,
// to which the wait's slots pass.
func (rt *Runtime) leave(op *blockedOp, chosen int) {
	rt.mu.Lock()
	rt.blockLocked(op, -1)
	if chosen >= 0 {
		rt.recordLocked(op.cases[chosen], op.gid, op.stack, op.kind, op.cases[0].core, op.slots)
	} else {
		rt.releaseLocked(op.cases[0].core, op.gid, op.slots)
	}
	rt.mu.Unlock()
}

// record records a completed try op (TrySend/TryRecv) in its own hold:
// try ops cannot deadlock, so they skip avoidance and the graph.
func (rt *Runtime) record(oc opCase, gid uint64, cs sig.Stack, kind string) {
	rt.mu.Lock()
	rt.recordLocked(oc, gid, cs, kind, oc.core, nil)
	rt.mu.Unlock()
}

// recordLocked records gid's completed op on oc's channel: its usage
// and, for a send, a live deposit (the channel analogue of holding a
// lock). The deposit takes over slots, which the op occupied on from's
// channel; a select that deposited into another of its channels
// occupies its slots there afresh. The deposit ledger mirrors the
// native buffer, which items leave oldest first: whenever the ledger is
// longer than the buffer, its oldest entries are gone (received, or
// handed straight to a receiver) and are dropped, giving their slots
// back, which wakes the yielders they held back. Ops that complete
// natively outside rt.mu (blocked and try ops) record afterwards, and
// this rule converges the ledger once they have. A channel is in
// rt.filled exactly while its ledger is non-empty. Caller holds rt.mu.
func (rt *Runtime) recordLocked(oc opCase, gid uint64, cs sig.Stack, kind string, from *chanCore, slots dimmunix.Slots) {
	c := oc.core
	was, n := len(c.deposits), c.buffered()
	if oc.dir == dirSend {
		c.sendUsers[gid] = usage{stack: cs, kind: kind}
		if n > 0 {
			d := deposit{gid: gid, stack: cs, kind: kind}
			if from == c {
				d.slots, slots = slots, nil
			} else if len(slots) > 0 {
				d.slots = rt.host.RegisterPositions(dimmunix.ThreadID(gid), &c.Resource, stampKind(cs, kind))
			}
			c.deposits = append(c.deposits, d)
		}
	} else {
		c.recvUsers[gid] = usage{stack: cs, kind: kind}
	}
	rt.releaseLocked(from, gid, slots)
	for len(c.deposits) > n {
		d := c.deposits[0]
		c.deposits = c.deposits[1:]
		rt.releaseLocked(c, d.gid, d.slots)
	}
	switch {
	case was == 0 && len(c.deposits) > 0:
		rt.filled = append(rt.filled, c)
	case was > 0 && len(c.deposits) == 0:
		c.deposits = nil
		rt.filled = slices.DeleteFunc(rt.filled, func(f *chanCore) bool { return f == c })
	}
}

// releaseLocked gives back the slots an engagement of gid on c
// occupied, which it hands over with the engagement, but for those
// another live engagement of gid on c still occupies: a position names
// a goroutine and a channel, so it lasts as long as the last of them.
// Each dropped position wakes its shard's yielders. Caller holds rt.mu.
func (rt *Runtime) releaseLocked(c *chanCore, gid uint64, slots dimmunix.Slots) {
	if len(slots) == 0 {
		return
	}
	gone := slots[:0]
	for _, k := range slots {
		kept := false
		for _, d := range c.deposits {
			kept = kept || d.gid == gid && slices.Contains(d.slots, k)
		}
		if op := rt.blocked[gid]; op != nil && op.cases[0].core == c {
			kept = kept || slices.Contains(op.slots, k)
		}
		if !kept {
			gone = append(gone, k)
		}
	}
	rt.host.UnregisterPositions(dimmunix.ThreadID(gid), &c.Resource, gone)
}
