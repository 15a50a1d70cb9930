package server

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// Election-safety regressions: the vote-grant rules that keep a
// quorum-acknowledged entry on whichever node wins an election, and the
// session binding that keeps arbitrary connections out of the quorum
// arithmetic.

// TestHandleVoteLogComparison pins the grant rule on the (last-entry
// epoch, cursor) pair. Length alone is NOT authority: a stale primary's
// divergent tail can be longer than the cell's log, but its newest
// entry was committed under the old epoch, so it must never outrank a
// voter holding entries acknowledged under a newer one.
func TestHandleVoteLogComparison(t *testing.T) {
	srv, _, auth := v2TestServer(t, Config{MaxPerDay: 10_000, Peers: []string{"m1", "m2"}})
	seedServer(t, srv, auth, 40, 3)
	// Bump the store to epoch 2 (fence at length 3) and commit past the
	// fence: the voter's newest entry now belongs to epoch 2, length 5.
	if _, err := srv.Store().PromoteTo(2); err != nil {
		t.Fatal(err)
	}
	seedServer(t, srv, auth, 41, 2)
	if e := srv.Store().LastEntryEpoch(); e != 2 {
		t.Fatalf("voter LastEntryEpoch = %d, want 2", e)
	}

	vote := func(id, epoch uint64, cursor int, lastEpoch uint64, node string) wire.Response {
		return srv.Process(wire.NewVote(id, epoch, cursor, lastEpoch, node))
	}

	// A candidate outside the configured membership never gets a vote,
	// however good its log claims to be.
	if resp := vote(1, 3, 100, 9, "intruder"); resp.Status != wire.StatusRejected ||
		!strings.Contains(resp.Detail, "not a configured cell peer") {
		t.Fatalf("non-peer vote = %+v, want membership rejection", resp)
	}
	// A candidate with no node id is malformed.
	if resp := srv.Process(wire.NewVote(2, 3, 100, 9, "")); resp.Status != wire.StatusError {
		t.Fatalf("anonymous vote = %+v, want StatusError", resp)
	}

	// The stale-tail case the rule exists for: a longer log whose newest
	// entry is epoch 1's loses to our shorter epoch-2 log.
	if resp := vote(3, 3, 100, 1, "m1"); resp.Status != wire.StatusRejected ||
		!strings.Contains(resp.Detail, "log behind") {
		t.Fatalf("stale-epoch long log = %+v, want log-behind rejection", resp)
	}
	// Same last-entry epoch, shorter log: rejected.
	if resp := vote(4, 3, 4, 2, "m1"); resp.Status != wire.StatusRejected ||
		!strings.Contains(resp.Detail, "log behind") {
		t.Fatalf("shorter equal-epoch log = %+v, want log-behind rejection", resp)
	}
	// An exactly equal pair grants — a strict tiebreak would deadlock two
	// equal candidates forever.
	if resp := vote(5, 3, 5, 2, "m1"); resp.Status != wire.StatusOK {
		t.Fatalf("equal-pair vote = %+v, want grant", resp)
	}
	// One vote per epoch: a second candidate in epoch 3 is refused even
	// with a better log.
	if resp := vote(6, 3, 9, 2, "m2"); resp.Status != wire.StatusRejected ||
		!strings.Contains(resp.Detail, "already voted") {
		t.Fatalf("second candidate same epoch = %+v, want already-voted rejection", resp)
	}
	// The epoch component dominates the length component: a candidate
	// whose newest entry is epoch 3's outranks our longer epoch-2 log.
	if resp := vote(7, 4, 1, 3, "m2"); resp.Status != wire.StatusOK {
		t.Fatalf("newer-epoch short log = %+v, want grant", resp)
	}
}

// TestVoteSeversQuorumAck pins the voter-side half of election safety:
// the instant a follower grants a vote in a newer epoch, its cursor
// reports stop counting toward the old primary's quorum — so nothing
// can be quorum-acknowledged that the election's winner might not hold.
// Replication itself keeps flowing (the voter's log must stay current
// in case it has to stand for election); only the acks are severed.
func TestVoteSeversQuorumAck(t *testing.T) {
	ls, addrs := cellListeners(t, 1)
	pcfg := Config{
		MaxPerDay:  10_000,
		AckMode:    AckQuorum,
		AckTimeout: 250 * time.Millisecond,
		Advertise:  addrs[0],
		NodeID:     addrs[0],
		Peers:      []string{"f1"},
	}
	p := startCellNode(t, pcfg, ls[0])
	f := startNode(t, Config{Follow: addrs[0], NodeID: "f1", MaxPerDay: 10_000})

	auth, _ := ids.NewAuthority(testKey)
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(42))
	req1 := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 1, 6, 9))
	req2 := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 2, 6, 9))

	// Healthy cell: quorum ADDs acknowledge.
	if resp := p.srv.Process(req1); resp.Status != wire.StatusOK {
		t.Fatalf("ADD before vote = %+v", resp)
	}
	waitReplicated(t, p.srv, f.srv)

	// A candidate solicits the follower for epoch 2 and wins its vote.
	grant := f.srv.Process(wire.NewVote(1, 2, f.srv.Store().Len(), f.srv.Store().LastEntryEpoch(), "c3"))
	if grant.Status != wire.StatusOK {
		t.Fatalf("vote = %+v, want grant", grant)
	}

	// Every later report carries bar 2; the epoch-1 primary must refuse
	// to count them and degrade instead of acknowledging.
	resp := p.srv.Process(req2)
	if resp.Status != wire.StatusBusy || !strings.Contains(resp.Detail, "quorum") {
		t.Fatalf("ADD after vote = %+v, want StatusBusy mentioning quorum", resp)
	}
	if got := p.srv.Store().Len(); got != 2 {
		t.Fatalf("degraded ADD not committed locally: len=%d, want 2", got)
	}
	// The entry still replicates — the stream survives the vote, only the
	// ack plane is severed.
	waitReplicated(t, p.srv, f.srv)
}

// TestCursorRequiresReplicateSession pins the quorum tracker's
// admission: durable-cursor reports count only when attributed to a
// configured peer on an established REPLICATE session. A sessionless
// CURSOR is refused outright; a session that never replicated is
// rejected; an established replica under an unconfigured name is
// tolerated as keepalive but never counted — none of them can release a
// quorum-parked ADD.
func TestCursorRequiresReplicateSession(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{
		MaxPerDay:  10_000,
		AckMode:    AckQuorum,
		AckTimeout: 200 * time.Millisecond,
		Peers:      []string{"f1"},
	})

	// Sessionless CURSOR: Process serves no session state, so it is an
	// error there.
	if resp := srv.Process(wire.NewCursorReport(1, 99, 1)); resp.Status != wire.StatusError {
		t.Fatalf("sessionless CURSOR = %+v, want StatusError", resp)
	}

	// A session that never sent REPLICATE: rejected.
	_, c := dialV2(t, addr)
	if err := c.Send(wire.NewCursorReport(2, 99, 1)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusRejected || !strings.Contains(resp.Detail, "REPLICATE") {
		t.Fatalf("non-replica CURSOR = %+v, want StatusRejected", resp)
	}

	// An established replica claiming a name outside Peers: the stream is
	// served (read replicas need no membership) and its reports are
	// acked, but they must never feed the quorum index.
	rc, hello := helloResp(t, addr, 1)
	rep := wire.NewReplicate(2, 1, hello.Epoch)
	rep.Node = "intruder"
	if err := rc.Send(rep); err != nil {
		t.Fatal(err)
	}
	var ack wire.Response
	if err := rc.Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusOK {
		t.Fatalf("REPLICATE = %+v", ack)
	}
	if err := rc.Send(wire.NewCursorReport(3, 99, hello.Epoch)); err != nil {
		t.Fatal(err)
	}
	for {
		var rr wire.Response
		if err := rc.Recv(&rr); err != nil {
			t.Fatal(err)
		}
		if rr.ID != 3 {
			continue // entry pages on the replication stream
		}
		if rr.Status != wire.StatusOK {
			t.Fatalf("replica CURSOR ack = %+v", rr)
		}
		break
	}

	// Despite a report claiming cursor 99 at the right epoch, the quorum
	// tracker saw nothing: the next ADD parks and degrades.
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(43))
	req := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 1, 6, 9))
	if resp := srv.Process(req); resp.Status != wire.StatusBusy || !strings.Contains(resp.Detail, "quorum") {
		t.Fatalf("ADD with only spoofed reports = %+v, want StatusBusy mentioning quorum", resp)
	}
}
