// Failure detection and leader election (Config.Peers): the automatic
// half of failover, layered on the primitives PR 7 built by hand —
// detection replaces the operator noticing, election replaces
// `-promote`, and the existing Promote fencing stays the only way a
// role changes.
//
// Detection rides the replication keepalive plane: every frame a
// follower hears from its primary (entry pages, cursor-report acks)
// stamps lastContact — but only while the primary's epoch is at least
// every epoch this node has voted in. Once a vote is granted, frames
// from an outvoted primary stop counting as contact, so if the
// candidate neither wins nor is superseded the voter's own window
// expires and the cell re-elects at a higher epoch instead of wedging.
// The elector suspects the primary once the silence exceeds a uniformly
// jittered timeout in [T, 2T) — jitter decorrelates the followers so
// split votes resolve across rounds.
//
// Election is epoch-stamped majority voting on the (last-entry epoch,
// log length) pair — Raft's (lastLogTerm, lastLogIndex), with the
// last-entry epoch derived from the fence history: a suspicious
// follower first probes the cell (a reachable primary at or above both
// its epoch and its voted epoch means the fault was the link, not the
// primary — refollow, don't elect), then, with a reachable majority,
// votes for itself at epoch+1 and solicits the rest. A voter grants at
// most one vote per epoch (persisted before the grant leaves the node,
// so crash-restart cannot double-vote) and only to candidates whose
// (last-entry epoch, cursor) is lexicographically at least its own —
// equal pairs grant; one vote per epoch plus jittered candidacies
// serialize rivals, and a strict tiebreak would deadlock two equal
// candidates forever. Comparing the epoch before the length is what
// keeps a rejoining stale primary out: its divergent tail can be longer
// than the majority's log, but its last entry was committed under the
// old epoch, so it can never outrank voters holding entries
// acknowledged under a newer one. Majority grants promote through
// Promote; anything less stands down and retries after the next
// jittered timeout. A minority partition can therefore never advance
// the epoch, and in quorum-ACK mode this rule (together with the
// cursor-report vote bar, quorum.go) makes the winner provably hold
// every acknowledged entry: the ack majority and the vote majority
// intersect, and a voter's acks stop counting toward the old primary
// the moment it grants.
//
// A primary runs the inverse check on the same loop: it probes peers
// once per timeout and steps down — rejoining as a follower, where the
// fence check discards any divergent tail — as soon as any peer reports
// a newer epoch. That is how a restarted old primary heals into the new
// cell without operator action.
package server

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"time"

	"communix/internal/wire"
)

// noteContact stamps the failure detector's clock: called for every
// frame the follower hears from its primary, and when granting a vote
// (the candidate deserves one full window to win and take over).
func (s *Server) noteContact() {
	s.lastContact.Store(time.Now().UnixNano())
}

// voteBar is this node's vote bar: the newer of its adopted epoch and
// any epoch it has voted in. Cursor reports are stamped with it (the
// primary only counts reports whose bar equals its own epoch), and a
// primary below it no longer counts as leadership contact.
func (s *Server) voteBar() uint64 {
	bar := s.db.Epoch()
	if voted, _ := s.db.Vote(); voted > bar {
		bar = voted
	}
	return bar
}

// contactFrom stamps the failure detector iff a frame from a primary at
// the given epoch still counts as leadership contact — i.e. this node
// has not voted in a newer election. Without the gate, a healthy stream
// from an outvoted primary would pin the detector forever: the voter
// could neither ack that primary (its reports carry the newer bar) nor
// ever time out and force the cell to re-elect.
func (s *Server) contactFrom(epoch uint64) {
	if voted, _ := s.db.Vote(); epoch < voted {
		return
	}
	s.noteContact()
}

// electorLoop is the single goroutine driving detection, election, and
// primary step-down for this server. One goroutine means role
// transitions never race themselves; transitions still race operator
// Promote calls, which the epoch checks tolerate.
func (s *Server) electorLoop(stop chan struct{}) {
	defer s.electWG.Done()
	seed := fnv.New64a()
	seed.Write([]byte(s.nodeID))
	rnd := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(seed.Sum64())))
	tick := s.electionTimeout / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	suspectAfter := jitteredTimeout(rnd, s.electionTimeout)
	lastProbe := time.Now()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if _, isFollower := s.followerOf(); isFollower {
			silence := time.Since(time.Unix(0, s.lastContact.Load()))
			if silence < suspectAfter {
				continue
			}
			s.logfSafe("primary silent for %v (threshold %v), starting election", silence.Round(time.Millisecond), suspectAfter.Round(time.Millisecond))
			s.runElection()
			// Whatever happened — won, lost, refollowed — restart the
			// detection window with fresh jitter.
			s.noteContact()
			suspectAfter = jitteredTimeout(rnd, s.electionTimeout)
			lastProbe = time.Now()
		} else if time.Since(lastProbe) >= s.electionTimeout {
			lastProbe = time.Now()
			s.stepDownIfSuperseded()
		}
	}
}

// jitteredTimeout draws a suspicion threshold uniformly from [base, 2·base).
func jitteredTimeout(rnd *rand.Rand, base time.Duration) time.Duration {
	return base + time.Duration(rnd.Int63n(int64(base)))
}

// peerProbe is one cell member's HELLO-reported state (ok false =
// unreachable within the timeout).
type peerProbe struct {
	addr    string
	ok      bool
	epoch   uint64
	role    string
	primary string
}

// probePeers HELLOs every peer concurrently and collects their state.
func (s *Server) probePeers() []peerProbe {
	out := make([]peerProbe, len(s.peers))
	done := make(chan struct{})
	for i, addr := range s.peers {
		go func(i int, addr string) {
			defer func() { done <- struct{}{} }()
			out[i] = s.probePeer(addr)
		}(i, addr)
	}
	for range s.peers {
		<-done
	}
	return out
}

// dialPeer opens a session to a cell peer: dial, then HELLO at our
// epoch naming our node, which a peer admits past its session cap; the
// whole exchange and whatever the caller sends next are bounded by the
// election timeout. The caller closes conn; its next request uses ID 2.
// A refused HELLO's reply is returned with the error.
func (s *Server) dialPeer(addr string) (net.Conn, *wire.Conn, wire.Response, error) {
	conn, err := s.dialTo(addr)()
	if err != nil {
		return nil, nil, wire.Response{}, err
	}
	_ = conn.SetDeadline(time.Now().Add(s.electionTimeout))
	c := wire.NewConn(conn)
	hello, err := c.Hello(s.db.Epoch(), s.nodeID)
	if err != nil {
		conn.Close()
		return nil, nil, hello, err
	}
	return conn, c, hello, nil
}

// probePeer runs one HELLO round-trip against a peer. A busy reply
// still carries the peer's epoch and role (a peer whose membership list
// lacks us caps us like a client), so it counts as reachable: a node at
// its cap is alive, and deposing a live primary for it would be wrong.
func (s *Server) probePeer(addr string) peerProbe {
	p := peerProbe{addr: addr}
	conn, _, hello, err := s.dialPeer(addr)
	if err == nil {
		conn.Close()
	} else if hello.Status != wire.StatusBusy || hello.Role == "" {
		return p
	}
	p.ok, p.epoch, p.role, p.primary = true, hello.Epoch, hello.Role, hello.Primary
	return p
}

// runElection is one follower election attempt: discovery, quorum
// check, self-vote, solicitation, and (on a majority) promotion.
func (s *Server) runElection() {
	myEpoch := s.db.Epoch()
	myLen := s.db.Len()
	myLast := s.db.LastEntryEpoch()
	probes := s.probePeers()

	// Discovery first: if any reachable peer IS a primary at our epoch or
	// newer, the cell has a leader and our problem is the link to it.
	// Likewise a peer that merely knows of a newer epoch points us at the
	// leader it follows. Either way: refollow, don't elect. The floor
	// additionally covers any epoch we have voted in: a primary below it
	// is outvoted — refollowing it would reset our detector and wedge the
	// cell between an old primary we may no longer ack and an election
	// that never finishes.
	floor := myEpoch
	if voted, _ := s.db.Vote(); voted > floor {
		floor = voted
	}
	reachable := 1 // ourselves
	for _, p := range probes {
		if !p.ok {
			continue
		}
		reachable++
		if p.role == rolePrimary && p.epoch >= floor {
			s.logfSafe("election: discovered live primary %s at epoch %d, refollowing", p.addr, p.epoch)
			s.refollow(p.addr)
			return
		}
		if p.epoch > myEpoch && p.epoch >= floor && p.primary != "" && p.primary != s.nodeID && p.primary != s.advertise {
			s.logfSafe("election: peer %s is at newer epoch %d following %s, refollowing", p.addr, p.epoch, p.primary)
			s.refollow(p.primary)
			return
		}
	}
	if n := len(s.peers) + 1; reachable < s.majority() {
		s.logfSafe("election: only %d/%d nodes reachable, below majority %d; standing down", reachable, n, s.majority())
		return
	}

	// The election target must clear not only the cell's current epoch
	// but any epoch this node has already voted in: a lost round consumes
	// the cell's epoch-E votes without E ever gaining a primary, and
	// retrying E forever would livelock two candidates that each
	// self-voted. Starting past our own vote (plus jittered timers
	// decorrelating the candidates) guarantees some round eventually
	// finds a voter majority with the target epoch unspent.
	target := myEpoch + 1
	if voted, _ := s.db.Vote(); voted >= target {
		target = voted + 1
	}
	granted, err := s.db.RecordVote(target, s.nodeID)
	if err != nil {
		s.logfSafe("election: cannot persist self-vote for epoch %d: %v", target, err)
		return
	}
	if !granted {
		// Already voted for another candidate this epoch; let them win.
		return
	}
	votes := 1
	var barSeen uint64
	for _, r := range s.requestVotes(target, myLen, myLast) {
		if r.granted {
			votes++
		} else if r.ok {
			if r.epoch > barSeen {
				barSeen = r.epoch
			}
			s.logfSafe("election: vote for epoch %d denied (voter epoch %d, cursor %d): %s", target, r.epoch, r.cursor, r.detail)
		}
	}
	if votes < s.majority() {
		s.logfSafe("election for epoch %d lost: %d/%d votes", target, votes, len(s.peers)+1)
		// Vote rejections carry the highest epoch the voter has committed
		// or voted in. Self-voting at that bar fast-forwards the next
		// candidacy past every spent epoch we just learned about — without
		// it, a candidate whose epoch numbering fell behind a rival's
		// advances one epoch per round forever and never catches up.
		if barSeen > target {
			if _, err := s.db.RecordVote(barSeen, s.nodeID); err == nil {
				s.logfSafe("election: fast-forwarding past spent epoch %d", barSeen)
			}
		}
		return
	}
	// Won. Promote unless the world moved underneath us (a newer epoch
	// was adopted, or an operator already promoted us).
	if _, isFollower := s.followerOf(); !isFollower || s.db.Epoch() >= target {
		return
	}
	epoch, err := s.promoteTo(target)
	if err != nil {
		s.logfSafe("election won but promotion failed: %v", err)
		return
	}
	s.logfSafe("elected primary at epoch %d with %d/%d votes", epoch, votes, len(s.peers)+1)
}

// voteResult is one peer's answer to a vote solicitation.
type voteResult struct {
	ok      bool // reachable and answered
	granted bool
	epoch   uint64
	cursor  int
	detail  string
}

// requestVotes solicits every peer concurrently for target epoch,
// advertising the candidacy's (last-entry epoch, cursor) pair.
func (s *Server) requestVotes(target uint64, cursor int, lastEpoch uint64) []voteResult {
	out := make([]voteResult, len(s.peers))
	done := make(chan struct{})
	for i, addr := range s.peers {
		go func(i int, addr string) {
			defer func() { done <- struct{}{} }()
			out[i] = s.requestVote(addr, target, cursor, lastEpoch)
		}(i, addr)
	}
	for range s.peers {
		<-done
	}
	return out
}

// requestVote runs one VOTE round-trip on a fresh session.
func (s *Server) requestVote(addr string, target uint64, cursor int, lastEpoch uint64) voteResult {
	var r voteResult
	conn, c, _, err := s.dialPeer(addr)
	if err != nil {
		return r
	}
	defer conn.Close()
	if c.Send(wire.NewVote(2, target, cursor, lastEpoch, s.nodeID)) != nil {
		return r
	}
	var resp wire.Response
	if c.Recv(&resp) != nil {
		return r
	}
	r.ok = true
	r.granted = resp.Status == wire.StatusOK
	r.epoch, r.cursor, r.detail = resp.Epoch, resp.Cursor, resp.Detail
	return r
}

// handleVote decides one incoming VOTE request — any role answers (a
// live primary rejecting with its epoch tells the candidate to stand
// down). Grants are persisted before the reply leaves (store.RecordVote)
// and re-checked against the log afterwards: replication can apply
// entries between the comparison and the persisted grant, and a grant
// for a candidate our log has meanwhile outgrown would let it win an
// election while missing entries our cursor reports may have helped
// acknowledge. A rejection's epoch field is the highest epoch this node
// has committed or voted in — the bar the candidate's next candidacy
// must clear — so rival candidates converge instead of chasing each
// other's epochs.
func (s *Server) handleVote(req wire.Request) wire.Response {
	myEpoch := s.db.Epoch()
	myLen := s.db.Len()
	myLast := s.db.LastEntryEpoch()
	bar := myEpoch
	if voted, _ := s.db.Vote(); voted > bar {
		bar = voted
	}
	reject := func(detail string) wire.Response {
		return wire.Response{Status: wire.StatusRejected, Epoch: bar, Cursor: myLen, Detail: detail}
	}
	if req.Node == "" {
		return wire.Response{Status: wire.StatusError, Detail: "vote request without candidate node id"}
	}
	if len(s.peers) > 0 && !s.isPeer(req.Node) {
		return reject(fmt.Sprintf("candidate %s is not a configured cell peer", req.Node))
	}
	if req.Epoch <= myEpoch {
		return reject(fmt.Sprintf("stale election epoch %d (cell is at %d)", req.Epoch, myEpoch))
	}
	candLast := req.LastEpoch
	if candLast == 0 {
		candLast = 1 // a pre-field candidate reads as the initial epoch
	}
	if candLast < myLast || (candLast == myLast && req.Cursor < myLen) {
		// The log-completeness rule, on the (last-entry epoch, length)
		// pair: never elect a candidate that would lose entries we hold
		// (in quorum mode, entries that may be ACKed). The epoch compares
		// first — a stale primary's divergent tail can be longer than our
		// log, but its last entry's epoch is older, so length alone must
		// never outrank entries acknowledged under a newer epoch. An
		// equal pair grants: one vote per epoch already serializes rival
		// candidates, and demanding a strict winner (say, a node-id
		// tiebreak) deadlocks two equal candidates forever.
		return reject(fmt.Sprintf("candidate log behind: last-entry epoch %d, cursor %d; local %d, %d (node %s)",
			candLast, req.Cursor, myLast, myLen, s.nodeID))
	}
	granted, err := s.db.RecordVote(req.Epoch, req.Node)
	if err != nil {
		return wire.Response{Status: wire.StatusError, Detail: err.Error()}
	}
	if !granted {
		return reject(fmt.Sprintf("already voted in epoch %d", req.Epoch))
	}
	// The replication stream kept applying while the grant persisted; if
	// the log is now ahead of the candidate, withdraw the reply (the vote
	// stays spent — conservative, and a retried solicitation re-runs this
	// same check). From the moment the grant was persisted our cursor
	// reports carry the voted epoch as their bar, so the old primary has
	// stopped counting us; together the two guarantees mean no entry can
	// be quorum-acknowledged past this candidate's cursor with our help.
	if last2, len2 := s.db.LastEntryEpoch(), s.db.Len(); last2 > candLast || (last2 == candLast && len2 > req.Cursor) {
		return reject(fmt.Sprintf("log advanced past candidate during grant: last-entry epoch %d, len %d", last2, len2))
	}
	s.logfSafe("granted vote to %s for epoch %d", req.Node, req.Epoch)
	// Give the winner one full detection window to take over before we
	// consider candidacy ourselves.
	s.noteContact()
	return wire.Response{Status: wire.StatusOK, Epoch: myEpoch, Cursor: myLen}
}

// stepDownIfSuperseded is the primary-side arm of the elector: probe
// the cell and, if any peer reports a newer epoch, demote ourselves and
// follow the newer leader. The follow loop's fence check (SafeLen) then
// discards whatever divergent tail this node accepted while isolated —
// automatic split-brain healing.
func (s *Server) stepDownIfSuperseded() {
	myEpoch := s.db.Epoch()
	for _, p := range s.probePeers() {
		if !p.ok || p.epoch <= myEpoch {
			continue
		}
		target := p.addr
		if p.role != rolePrimary && p.primary != "" {
			target = p.primary
		}
		if target == s.nodeID || target == s.advertise {
			continue // stale pointer back at ourselves
		}
		s.logfSafe("superseded: peer %s is at epoch %d (ours %d), stepping down to follow %s", p.addr, p.epoch, myEpoch, target)
		s.refollow(target)
		return
	}
}

// refollow (re)points this server at a primary address and (re)arms the
// follower loop. Used by discovery, lost elections, and step-down.
func (s *Server) refollow(addr string) {
	if addr == "" {
		return
	}
	s.startFollowing(addr)
	s.noteContact()
}
