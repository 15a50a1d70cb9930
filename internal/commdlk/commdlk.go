// Package commdlk extends Communix's immunity model from resource
// deadlocks (mutex cycles, internal/dimmunix) to communication
// deadlocks: blocked channel sends, recvs, and selects — the dominant
// real-world deadlock class in Go.
//
// The model mirrors Dimmunix's, transposed to channels. Every blocking
// channel operation registers a node in a per-process waits-for graph
// (goroutine → channel-op edges; a select contributes one disjunctive
// node covering all its cases). On block, a detector computes the stuck
// set — the greatest fixed point of "every goroutine that could rescue
// me is itself stuck" — over rescuer sets derived from observed channel
// usage: a blocked send can only be rescued by a goroutine known to
// receive on that channel, a blocked recv by a known sender. Goroutines
// with no known rescuer are conservatively treated as rescuable (an
// unknown party may yet act), so detection has no false positives on
// cold channels; it fires once both sides of a cycle have a usage
// history, which any warmed-up workload provides.
//
// A detected communication deadlock becomes an ordinary signature in
// the internal/sig suffix format: each cycle member contributes an
// outer stack (where it engaged the channel its predecessor waits on —
// its live deposit into a buffered channel, or its recorded usage site)
// and an inner stack (where it blocks). Channel frames carry their own
// frame kind (sig.KindChanSend/Recv/Select), so the codec, merge,
// store, WAL, replication, and push distribution pipelines carry them
// byte-for-byte unchanged, while a channel site can never suffix-match
// a mutex signature or vice versa.
//
// Avoidance is the same yield discipline as the mutex runtime: an op
// whose call stack suffix-matches a history signature's outer stack,
// while the signature's other slots are occupied by distinct
// goroutines' engagements on distinct channels, parks before engaging —
// with the re-home timeout shared with dimmunix's yielders
// (dimmunix.YieldRehomeTimeout) and a combined wait+yield cycle breaker
// that forces the smallest-id yielder through.
//
// All bookkeeping runs under one runtime mutex — the reference
// discipline PR 1 established for new subsystems; the differential
// GraphDisabled arm (raw channel ops, no bookkeeping) doubles as the
// zero-overhead baseline the runtime bench compares against.
package commdlk

import (
	"errors"
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

// Config parameterizes a channel-deadlock Runtime. The zero value is
// usable: fresh in-memory history, RecoverNone policy.
type Config struct {
	// History is the deadlock history to avoid and extend — typically
	// the same one the process's dimmunix runtime uses, so one pushed
	// signature set protects both lock and channel sites.
	History *dimmunix.History
	// Policy selects deadlock recovery; default RecoverNone (threads
	// stay blocked, as a real deadlocked program would, until Close).
	Policy dimmunix.RecoveryPolicy
	// AvoidanceDisabled turns the yield discipline off (detection only).
	AvoidanceDisabled bool
	// GraphDisabled bypasses the subsystem entirely: every Chan op is
	// the raw native channel op, no capture, no bookkeeping, no
	// detection, no avoidance. This is the lockstep differential
	// reference arm: it proves detection soundness (scenarios that
	// deadlock under it genuinely deadlock).
	GraphDisabled bool
	// OnDeadlock, if set, is called synchronously after a communication
	// deadlock is fingerprinted, with internal locks dropped. The
	// communix facade routes it into the same plugin upload path as
	// mutex deadlocks.
	OnDeadlock func(dimmunix.Deadlock)
}

// Stats is a snapshot of runtime counters.
type Stats struct {
	// Deadlocks counts detected communication deadlocks.
	Deadlocks uint64
	// KnownRecurrences counts detections whose signature was already in
	// the history.
	KnownRecurrences uint64
	// Yields counts channel ops that parked at least once.
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
}

// chanCore is the per-channel bookkeeping shared by every Chan[T]
// instantiation. All fields past the immutable header are guarded by
// rt.mu.
type chanCore struct {
	rt       *Runtime
	name     string
	capacity int

	closed    bool
	deposits  []deposit
	sendUsers map[uint64]usage
	recvUsers map[uint64]usage
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
}

// yielder is a parked channel op: avoidance decided that completing it
// would instantiate a known signature. blockers are the goroutines
// whose engagements occupy the signature's other slots — the edges the
// wait+yield cycle breaker follows.
type yielder struct {
	gid      uint64
	blockers map[uint64]struct{}
	wake     chan struct{}
	proceed  bool
}

// Runtime maintains the process's channel waits-for graph, detector,
// and avoidance state.
type Runtime struct {
	cfg     Config
	history *dimmunix.History
	capture *stacktrace.Cache

	mu       sync.Mutex
	closed   bool
	cores    []*chanCore
	blocked  map[uint64]*blockedOp
	yielders map[uint64]*yielder
	stats    Stats

	// closedCh releases every blocked op and parked yielder on Close.
	closedCh chan struct{}
}

// NewRuntime builds a channel-deadlock runtime.
func NewRuntime(cfg Config) *Runtime {
	if cfg.History == nil {
		cfg.History = dimmunix.NewHistory()
	}
	if cfg.Policy == 0 {
		cfg.Policy = dimmunix.RecoverNone
	}
	return &Runtime{
		cfg:      cfg,
		history:  cfg.History,
		capture:  stacktrace.NewCache(stacktrace.NewRegistry()),
		blocked:  make(map[uint64]*blockedOp),
		yielders: make(map[uint64]*yielder),
		closedCh: make(chan struct{}),
	}
}

// History returns the runtime's deadlock history.
func (rt *Runtime) History() *dimmunix.History { return rt.history }

// Close shuts the runtime down: every blocked op and parked yielder
// returns ErrClosed. Idempotent.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	close(rt.closedCh)
	rt.wakeAllLocked()
	rt.mu.Unlock()
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// Waiting returns how many goroutines are currently blocked in the
// waits-for graph or parked as yielders. Workloads use it to sequence
// deterministic schedules ("proceed once the peer is committed to its
// wait").
func (rt *Runtime) Waiting() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.blocked) + len(rt.yielders)
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
	idx := rt.history.Index()
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

// suffixMatches reports whether the raw captured stack cs, performing
// an op of the given kind, suffix-matches the signature outer stack
// want (whose top frame carries a kind). Lower frames compare by plain
// site; the top frame additionally requires the kinds to agree.
func suffixMatches(cs sig.Stack, kind string, want sig.Stack) bool {
	n := len(want)
	if n == 0 || len(cs) < n {
		return false
	}
	wt := want[n-1]
	ct := cs[len(cs)-1]
	if wt.Kind != kind || wt.Line != ct.Line || wt.Class != ct.Class || wt.Method != ct.Method {
		return false
	}
	for i := 1; i < n; i++ {
		if !cs[len(cs)-1-i].SameSite(want[n-1-i]) {
			return false
		}
	}
	return true
}

// newCore registers a channel with the runtime.
func (rt *Runtime) newCore(name string, capacity int) *chanCore {
	c := &chanCore{
		rt:        rt,
		name:      name,
		capacity:  capacity,
		sendUsers: make(map[uint64]usage),
		recvUsers: make(map[uint64]usage),
	}
	rt.mu.Lock()
	rt.cores = append(rt.cores, c)
	rt.mu.Unlock()
	return c
}

// completeSend records a successful send: usage, and — for a buffered
// channel — a live deposit (the channel analogue of holding a lock).
func (c *chanCore) completeSend(gid uint64, cs sig.Stack, kind string) {
	rt := c.rt
	rt.mu.Lock()
	c.sendUsers[gid] = usage{stack: cs, kind: kind}
	if c.capacity > 0 {
		if len(c.deposits) >= c.capacity {
			// A racing recv consumed items before its bookkeeping ran;
			// keep the ledger bounded by the channel's own capacity.
			c.deposits = c.deposits[1:]
		}
		c.deposits = append(c.deposits, deposit{gid: gid, stack: cs, kind: kind})
	}
	rt.mu.Unlock()
}

// completeRecv records a successful recv: usage, the FIFO deposit pop,
// and a wake — removing an engagement may resolve a parked yielder's
// threat.
func (c *chanCore) completeRecv(gid uint64, cs sig.Stack, kind string) {
	rt := c.rt
	rt.mu.Lock()
	c.recvUsers[gid] = usage{stack: cs, kind: kind}
	if len(c.deposits) > 0 {
		c.deposits = c.deposits[1:]
	}
	rt.wakeAllLocked()
	rt.mu.Unlock()
}

// markClosed flags the channel closed and wakes yielders (recvs on a
// closed channel complete immediately, changing the threat picture).
func (c *chanCore) markClosed() {
	rt := c.rt
	rt.mu.Lock()
	c.closed = true
	rt.wakeAllLocked()
	rt.mu.Unlock()
}

// wakeAllLocked nudges every parked yielder to re-evaluate. Channel
// yielders are few (one per threatened op); a broadcast is simpler than
// dimmunix's per-signature shards and bounded by the same cardinality.
func (rt *Runtime) wakeAllLocked() {
	for _, y := range rt.yielders {
		select {
		case y.wake <- struct{}{}:
		default:
		}
	}
}

// block publishes the caller's wait in the graph, runs detection, and
// applies policy. On a RecoverBreak denial it returns (nil, ErrDeadlock)
// with the wait withdrawn; otherwise the caller must perform the real
// blocking op and then call unblock.
func (rt *Runtime) block(gid uint64, cs sig.Stack, kind string, cases ...opCase) (*blockedOp, error) {
	op := &blockedOp{gid: gid, cases: cases, stack: cs, kind: kind}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	rt.blocked[gid] = op
	rt.stats.Blocked++

	dl := rt.detectLocked(op)
	if dl != nil {
		rt.stats.Deadlocks++
		if dl.Known {
			rt.stats.KnownRecurrences++
		} else {
			rt.history.Add(dl.Signature)
		}
		if rt.cfg.Policy == dimmunix.RecoverBreak {
			delete(rt.blocked, gid)
		}
	}
	// This wait may have closed a mixed wait+yield cycle.
	rt.resolveYieldCyclesLocked()
	rt.mu.Unlock()

	if dl != nil {
		if rt.cfg.OnDeadlock != nil {
			rt.cfg.OnDeadlock(*dl)
		}
		if rt.cfg.Policy == dimmunix.RecoverBreak {
			return nil, ErrDeadlock
		}
	}
	return op, nil
}

// unblock withdraws a completed (or abandoned) wait and wakes yielders:
// the graph lost a node and the channel state changed.
func (rt *Runtime) unblock(op *blockedOp) {
	rt.mu.Lock()
	if rt.blocked[op.gid] == op {
		delete(rt.blocked, op.gid)
	}
	rt.wakeAllLocked()
	rt.mu.Unlock()
}
