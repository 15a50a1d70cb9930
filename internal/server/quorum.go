// Quorum acknowledgement (Config.AckMode == AckQuorum): the primary
// withholds an ADD's StatusOK until the committed entry is durable on a
// majority of the cell.
//
// Followers report their durable log length (cursor) on the replication
// session — immediately after the stream opens and after each applied
// page, and at the keepalive cadence otherwise. Each report is stamped
// with the follower's vote bar (the newer of its adopted epoch and any
// epoch it has voted in), and the tracker counts a report only when the
// reporter is a configured peer on an established REPLICATE session AND
// its bar equals this primary's epoch — a follower that votes in a
// newer election, or one still minted against an older primary's log,
// stops counting instantly. The tracker keeps the latest cursor per
// follower and derives the quorum index: the highest log index held by
// at least majority-1 followers (the primary itself is the remaining
// member). ADD verdicts carrying a committed index above it park on a
// waiter channel; each cursor report re-derives the index and releases
// every waiter at or below it.
//
// Degradation is explicit, never silent: a waiter that outlives
// Config.AckTimeout — or an ADD arriving while Config.AckWindow waiters
// are already parked — is answered StatusBusy. The entry is committed
// locally either way; the client's retry is absorbed as a duplicate
// (answered OK), so the contract "StatusOK implies majority-durable"
// holds without ever double-applying an upload. A primary partitioned
// away from every follower therefore refuses writes within one
// AckTimeout — the quorum-mode half of split-brain safety.
package server

import (
	"sort"
	"sync"
	"time"

	"communix/internal/wire"
)

// quorumWaiter is one parked ADD verdict: released (true) when the
// quorum index reaches idx, aborted (false) on server shutdown. The
// channel is buffered so the releasing side never blocks.
type quorumWaiter struct {
	idx int
	ch  chan bool
}

// quorumTracker holds the per-follower durable cursors and the parked
// quorum-mode ADDs.
type quorumTracker struct {
	mu      sync.Mutex
	cursors map[string]int // follower node → latest reported durable cursor
	waiters []quorumWaiter
	idx     int // highest majority-durable index (monotonic)
	closed  bool
}

// majority is the vote/ack threshold for this cell: more than half of
// len(Peers)+1 members.
func (s *Server) majority() int {
	return (len(s.peers)+1)/2 + 1
}

// isPeer reports whether node is a configured cell member. Quorum
// counting and vote granting are restricted to the membership the
// operator configured: an arbitrary connection claiming an invented
// node id must not widen the electorate or the ack set.
func (s *Server) isPeer(node string) bool {
	for _, p := range s.peers {
		if p == node {
			return true
		}
	}
	return false
}

// isMember reports whether node names a cell member: a configured peer
// or this node itself (what the operator's promote names). Sessions
// opened for a member bypass Config.MaxSessions — the same claimed-id
// trust VOTE already extends.
func (s *Server) isMember(node string) bool {
	return node != "" && (node == s.nodeID || node == s.advertise || s.isPeer(node))
}

// recordCursor ingests one follower cursor report, re-derives the
// quorum index, and releases every waiter it now covers. Reports are
// taken at face value (latest wins, even backwards — a reset follower
// really did lose its tail); the quorum index itself never regresses,
// so an already-released ACK is never retracted.
//
// Only reports that provably describe THIS primary's log are counted:
// the node must come from an established REPLICATE session and be a
// configured cell peer (the caller guarantees both), this server must
// currently be primary, and the report's vote bar must equal our own
// epoch. The bar check is the voter-side half of election safety: a
// follower that grants a vote stamps every later report with the voted
// epoch, so the superseded primary stops counting it immediately — it
// can never quorum-acknowledge an entry the election's winner does not
// hold. A bar below our epoch is a report minted against a previous
// primary's log (its cursor may cover a divergent tail) and is equally
// ignored; the follower re-handshakes at our epoch before its reports
// count again.
func (s *Server) recordCursor(node string, cursor int, bar uint64) {
	if node == "" || !s.isPeer(node) {
		return
	}
	if _, isFollower := s.followerOf(); isFollower {
		return
	}
	q := &s.quorum
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || bar != s.db.Epoch() {
		return
	}
	if q.cursors == nil {
		q.cursors = make(map[string]int)
	}
	q.cursors[node] = cursor
	need := s.majority() - 1 // followers needed besides the primary itself
	if need <= 0 {
		return // single-node cell: nothing ever parks
	}
	if len(q.cursors) < need {
		return
	}
	sorted := make([]int, 0, len(q.cursors))
	for _, c := range q.cursors {
		sorted = append(sorted, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	if idx := sorted[need-1]; idx > q.idx {
		q.idx = idx
	}
	q.releaseLocked()
}

// releaseLocked answers every waiter at or below the quorum index.
// Callers hold q.mu.
func (q *quorumTracker) releaseLocked() {
	keep := q.waiters[:0]
	for _, w := range q.waiters {
		if w.idx <= q.idx {
			w.ch <- true
		} else {
			keep = append(keep, w)
		}
	}
	q.waiters = keep
}

// awaitQuorum gates one StatusOK ADD verdict (committed index in Next)
// on majority durability. It returns the verdict unchanged once the
// index is covered, or a StatusBusy degradation on timeout, window
// overflow, or shutdown.
func (s *Server) awaitQuorum(verdict wire.Response) wire.Response {
	idx := verdict.Next
	if idx <= 0 || s.majority() <= 1 {
		return verdict
	}
	if _, isFollower := s.followerOf(); isFollower {
		// Demoted while this ADD was in flight: the tracker was (or is
		// being) reset and no cursor report will ever cover the entry
		// here. Degrade loudly; the retry lands on the new primary (or
		// absorbs as a duplicate). Checked before taking q.mu — the
		// demotion path resets the tracker while holding the role lock. A
		// flip racing past this check only parks a waiter that times out:
		// recordCursor re-checks the role per report, so nothing can
		// falsely release it.
		return wire.Response{Status: wire.StatusBusy, Detail: "no longer primary; committed locally, retry"}
	}
	q := &s.quorum
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return wire.Response{Status: wire.StatusBusy, Detail: "server closing"}
	}
	if idx <= q.idx {
		q.mu.Unlock()
		return verdict
	}
	if len(q.waiters) >= s.ackWindow {
		q.mu.Unlock()
		return wire.Response{Status: wire.StatusBusy, Detail: "quorum window full; committed locally, retry"}
	}
	w := quorumWaiter{idx: idx, ch: make(chan bool, 1)}
	q.waiters = append(q.waiters, w)
	q.mu.Unlock()

	t := time.NewTimer(s.ackTimeout)
	defer t.Stop()
	select {
	case ok := <-w.ch:
		if ok {
			return verdict
		}
		return wire.Response{Status: wire.StatusBusy, Detail: "quorum wait aborted (role change or shutdown); committed locally, retry"}
	case <-t.C:
	}
	// Timed out — but a release may have raced the timer. Resolve under
	// the lock: if the waiter is still parked, withdraw it and degrade;
	// if it is gone, its channel holds the verdict.
	q.mu.Lock()
	for i := range q.waiters {
		if q.waiters[i].ch == w.ch {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			q.mu.Unlock()
			return wire.Response{Status: wire.StatusBusy,
				Detail: "quorum ack timeout; committed locally, retry"}
		}
	}
	q.mu.Unlock()
	if ok := <-w.ch; ok {
		return verdict
	}
	return wire.Response{Status: wire.StatusBusy, Detail: "quorum wait aborted (role change or shutdown); committed locally, retry"}
}

// closeAll aborts every parked waiter; they answer StatusBusy. Called
// once from Close.
func (q *quorumTracker) closeAll() {
	q.mu.Lock()
	q.closed = true
	for _, w := range q.waiters {
		w.ch <- false
	}
	q.waiters = nil
	q.mu.Unlock()
}

// reset clears the tracker across a role transition (promotion or
// demotion): cursors recorded against the previous role's log describe
// a log this node no longer serves — counting them after a demote/
// re-promote cycle could release ACKs for entries a fenced follower no
// longer holds — and the quorum index restarts from the new role's
// reports. Parked waiters are aborted (they answer StatusBusy; the
// entry is committed locally and the retry is absorbed as a duplicate).
func (q *quorumTracker) reset() {
	q.mu.Lock()
	for _, w := range q.waiters {
		w.ch <- false
	}
	q.waiters = nil
	q.cursors = nil
	q.idx = 0
	q.mu.Unlock()
}
