package server

import (
	"encoding/binary"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// pooled runs a push-path test as the "pooled" subtest. The pusher pool
// is the server's only push path; the subtest keeps the names these
// tests have always reported under.
func pooled(t *testing.T, fn func(t *testing.T)) {
	t.Run("pooled", fn)
}

// v2TestServer spins up a TCP server with session knobs; cleanup stops
// it.
func v2TestServer(t *testing.T, cfg Config) (*Server, string, *ids.Authority) {
	t.Helper()
	cfg.Key = testKey
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return srv, l.Addr().String(), auth
}

// dialV2 opens a raw v2 session: HELLO exchanged, ready for requests.
func dialV2(t *testing.T, addr string) (net.Conn, *wire.Conn) {
	t.Helper()
	conn, c, resp := rawHello(t, addr, wire.NewHello(1))
	if resp.Status != wire.StatusOK || resp.ID != 1 || resp.Version != wire.V2 {
		t.Fatalf("HELLO reply = %+v, want ok/id=1/version=2", resp)
	}
	return conn, c
}

// seedServer commits n distinct signatures through the direct path.
func seedServer(t *testing.T, srv *Server, auth *ids.Authority, seed int64, n int) {
	t.Helper()
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
		if resp := srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK {
			t.Fatalf("seed ADD %d: %+v", i, resp)
		}
	}
}

func TestHelloNegotiatesV2(t *testing.T) {
	_, addr, _ := v2TestServer(t, Config{})
	_, c := dialV2(t, addr)
	// IDs are echoed: two in-flight GETs answered by ID, whatever the
	// order.
	if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 5, From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.Request{Type: wire.MsgPing, ID: 6}); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("response %d: %+v", i, resp)
		}
		seen[resp.ID] = true
	}
	if !seen[5] || !seen[6] {
		t.Errorf("responses did not echo request IDs: %v", seen)
	}
}

func TestSubscribeStreamsBacklogAndLiveDeltas(t *testing.T) {
	pooled(t, testSubscribeStreamsBacklogAndLiveDeltas)
}

func testSubscribeStreamsBacklogAndLiveDeltas(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{})
	seedServer(t, srv, auth, 1, 3)

	_, c := dialV2(t, addr)
	if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.ID != 2 {
		t.Fatalf("SUBSCRIBE ack = %+v", resp)
	}

	// Backlog arrives as PUSH frames.
	got := 0
	for got < 3 {
		var push wire.Response
		if err := c.Recv(&push); err != nil {
			t.Fatal(err)
		}
		if push.ID != 0 || push.Type != wire.MsgPush || push.Status != wire.StatusOK {
			t.Fatalf("expected PUSH, got %+v", push)
		}
		got += len(push.Sigs)
	}
	if got != 3 {
		t.Fatalf("backlog delivered %d signatures, want 3", got)
	}

	// A live commit is pushed without any client action.
	seedServer(t, srv, auth, 2, 1)
	var push wire.Response
	if err := c.Recv(&push); err != nil {
		t.Fatal(err)
	}
	if push.Type != wire.MsgPush || len(push.Sigs) != 1 || push.Next != 5 {
		t.Fatalf("live delta = %+v", push)
	}
}

func TestSubscriberFanOut(t *testing.T) {
	pooled(t, testSubscriberFanOut)
}

func testSubscriberFanOut(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{})
	const subs = 3
	conns := make([]*wire.Conn, subs)
	for i := range conns {
		_, c := dialV2(t, addr)
		if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	seedServer(t, srv, auth, 3, 2)
	for i, c := range conns {
		got := 0
		for got < 2 {
			var push wire.Response
			if err := c.Recv(&push); err != nil {
				t.Fatalf("subscriber %d: %v", i, err)
			}
			if push.Type != wire.MsgPush {
				t.Fatalf("subscriber %d: %+v", i, push)
			}
			got += len(push.Sigs)
		}
	}
}

func TestGetPaginates(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{GetBatch: 2})
	seedServer(t, srv, auth, 4, 5)

	_, c := dialV2(t, addr)
	from, pages, total := 1, 0, 0
	for {
		if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 10, From: from}); err != nil {
			t.Fatal(err)
		}
		var page wire.Response
		if err := c.Recv(&page); err != nil {
			t.Fatal(err)
		}
		if page.Status != wire.StatusOK {
			t.Fatalf("GET page: %+v", page)
		}
		if len(page.Sigs) > 2 {
			t.Fatalf("page of %d exceeds GetBatch=2", len(page.Sigs))
		}
		pages++
		total += len(page.Sigs)
		from = page.Next
		if !page.More {
			break
		}
	}
	if total != 5 || pages != 3 {
		t.Errorf("drained %d signatures over %d pages, want 5 over 3", total, pages)
	}
	if from != 6 {
		t.Errorf("final Next = %d, want 6 (database size + 1)", from)
	}
}

// The size-probe idiom (communix-inspect): a GET far past the end still
// reveals the database size via Next, with no signatures and no More.
func TestGetSizeProbeSurvivesPagination(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{GetBatch: 2})
	seedServer(t, srv, auth, 5, 5)
	_, c := dialV2(t, addr)
	if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 1, From: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Next != 6 || len(resp.Sigs) != 0 || resp.More {
		t.Errorf("size probe = %+v, want next=6, no sigs, no more", resp)
	}
}

func TestLaggingSubscriberDowngradedToCatchup(t *testing.T) {
	pooled(t, testLaggingSubscriberDowngradedToCatchup)
}

func testLaggingSubscriberDowngradedToCatchup(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{GetBatch: 1, PushMaxLag: 2})
	// 6 committed signatures: any subscriber starting from 1 lags by 6 >
	// PushMaxLag and must be downgraded instead of pushed at.
	seedServer(t, srv, auth, 6, 6)

	_, c := dialV2(t, addr)
	if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.ID != 2 {
		t.Fatalf("SUBSCRIBE ack = %+v", resp)
	}
	var marker wire.Response
	if err := c.Recv(&marker); err != nil {
		t.Fatal(err)
	}
	if marker.Type != wire.MsgPush || !marker.More || len(marker.Sigs) != 0 || marker.Next != 1 {
		t.Fatalf("expected catch-up marker from 1, got %+v", marker)
	}

	// Drain via paginated GETs, as the contract demands. (Fresh
	// Response per read: json leaves omitted fields untouched, so
	// reusing one across pages would keep a stale More.)
	from := marker.Next
	for {
		if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 3, From: from}); err != nil {
			t.Fatal(err)
		}
		var page wire.Response
		if err := c.Recv(&page); err != nil {
			t.Fatal(err)
		}
		from = page.Next
		if !page.More {
			break
		}
	}
	if from != 7 {
		t.Fatalf("catch-up drained to %d, want 7", from)
	}

	// The complete GET reply re-armed pushing: the next commit arrives
	// as a live PUSH.
	seedServer(t, srv, auth, 7, 1)
	var push wire.Response
	if err := c.Recv(&push); err != nil {
		t.Fatal(err)
	}
	if push.Type != wire.MsgPush || len(push.Sigs) != 1 || push.Next != 8 {
		t.Fatalf("push after catch-up = %+v", push)
	}
}

func TestUploaderReceivesOwnSignatureViaPush(t *testing.T) {
	pooled(t, testUploaderReceivesOwnSignatureViaPush)
}

func testUploaderReceivesOwnSignatureViaPush(t *testing.T) {
	_, addr, auth := v2TestServer(t, Config{})
	_, c := dialV2(t, addr)
	if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}

	_, token := auth.Issue()
	r := rand.New(rand.NewSource(12))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	add := addReq(t, token, s)
	add.ID = 3
	if err := c.Send(add); err != nil {
		t.Fatal(err)
	}
	// Two frames arrive in unspecified order: the ADD verdict (ID 3)
	// and the PUSH carrying our own signature back (ID 0).
	var gotVerdict, gotPush bool
	for !gotVerdict || !gotPush {
		var f wire.Response
		if err := c.Recv(&f); err != nil {
			t.Fatal(err)
		}
		switch {
		case f.ID == 3:
			if f.Status != wire.StatusOK {
				t.Fatalf("ADD verdict: %+v", f)
			}
			gotVerdict = true
		case f.ID == 0 && f.Type == wire.MsgPush:
			if len(f.Sigs) != 1 {
				t.Fatalf("push: %+v", f)
			}
			gotPush = true
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
}

// The downgrade/resume ordering contract under stress: with a tiny page
// size and lag threshold, a subscriber racing a concurrent committer is
// downgraded and re-armed over and over. Whatever the interleaving of
// GET replies and PUSH frames, the subscriber's view must stay
// contiguous: a resumed PUSH overtaking its re-arming GET reply would
// appear here as a frame starting past what the client holds.
func TestCatchupResumeOrderingUnderStress(t *testing.T) {
	pooled(t, testCatchupResumeOrderingUnderStress)
}

func testCatchupResumeOrderingUnderStress(t *testing.T) {
	const total = 120
	srv, addr, auth := v2TestServer(t, Config{GetBatch: 1, PushMaxLag: 1, MaxPerDay: 1000})

	// Commit in the background while the subscriber tries to keep up.
	// (t.Errorf, not seedServer's Fatalf: Fatal must stay on the test
	// goroutine.)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, token := auth.Issue()
		r := rand.New(rand.NewSource(42))
		for i := 0; i < total; i++ {
			s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
			if resp := srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK {
				t.Errorf("stress ADD %d: %+v", i, resp)
				return
			}
		}
	}()
	defer func() { <-done }()

	_, c := dialV2(t, addr)
	if err := c.Send(wire.NewSubscribe(1, 1)); err != nil {
		t.Fatal(err)
	}
	var ack wire.Response
	if err := c.Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusOK || ack.ID != 1 {
		t.Fatalf("SUBSCRIBE ack = %+v", ack)
	}

	// have = count of contiguous signatures held from index 1; every
	// data frame (PUSH or GET reply) must start at or before have+1.
	have := 0
	getInFlight := false
	for have < total {
		var f wire.Response
		if err := c.Recv(&f); err != nil {
			t.Fatalf("recv with %d/%d: %v", have, total, err)
		}
		switch {
		case f.Type == wire.MsgPush && f.More:
			// Catch-up marker: drain via paginated GETs. One GET at a
			// time; replies interleave with frames already in flight.
			if !getInFlight {
				getInFlight = true
				if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 7, From: have + 1}); err != nil {
					t.Fatal(err)
				}
			}
		case f.Type == wire.MsgPush:
			start := f.Next - len(f.Sigs)
			if start > have+1 {
				t.Fatalf("PUSH starts at %d with only %d held — a push overtook its re-arming reply", start, have)
			}
			if f.Next-1 > have {
				have = f.Next - 1
			}
		case f.ID == 7:
			if f.Status != wire.StatusOK {
				t.Fatalf("catch-up GET: %+v", f)
			}
			start := f.Next - len(f.Sigs)
			if start > have+1 {
				t.Fatalf("GET page starts at %d with only %d held", start, have)
			}
			if f.Next-1 > have {
				have = f.Next - 1
			}
			getInFlight = false
			if f.More {
				getInFlight = true
				if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 7, From: f.Next}); err != nil {
					t.Fatal(err)
				}
			}
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
}

// Tearing a subscriber down mid-stream must leave the server healthy:
// the session's cursor is dropped, no pusher touches the dead session,
// and fresh subscribers still get full service.
func TestSessionTeardownMidPush(t *testing.T) { pooled(t, testSessionTeardownMidPush) }

func testSessionTeardownMidPush(t *testing.T) {
	// PushMaxLag above the backlog so the whole stream really is pushed
	// page by page (GetBatch 1) — the teardowns happen mid-push, not in
	// catch-up mode.
	srv, addr, auth := v2TestServer(t, Config{GetBatch: 1, PushMaxLag: 1000, MaxPerDay: 1000})
	seedServer(t, srv, auth, 9, 30)

	for i := 0; i < 5; i++ {
		conn, c := dialV2(t, addr)
		if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		// Read one PUSH so the stream is demonstrably live, then hang up
		// with ~29 pages still to come.
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}

	// The server survived five mid-push teardowns: a new subscriber
	// still receives the full backlog.
	_, c := dialV2(t, addr)
	if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	got := 0
	for got < 30 {
		var push wire.Response
		if err := c.Recv(&push); err != nil {
			t.Fatalf("fresh subscriber with %d/30: %v", got, err)
		}
		if push.Type != wire.MsgPush {
			t.Fatalf("fresh subscriber: %+v", push)
		}
		got += len(push.Sigs)
	}
}

// MaxSubs shedding: a subscriber over the quota is accepted but
// receives only catch-up markers; it drains via paginated GETs, and is
// promoted to full push delivery once an admitted subscriber departs.
func TestMaxSubsShedsIntoCatchup(t *testing.T) { pooled(t, testMaxSubsShedsIntoCatchup) }

func testMaxSubsShedsIntoCatchup(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{MaxSubs: 1})

	subscribe := func(c *wire.Conn) {
		t.Helper()
		if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || resp.ID != 2 {
			t.Fatalf("SUBSCRIBE ack = %+v", resp)
		}
	}
	connA, cA := dialV2(t, addr)
	subscribe(cA)
	_, cB := dialV2(t, addr)
	subscribe(cB) // over quota: shed

	seedServer(t, srv, auth, 10, 2)

	// A (admitted) gets the data pushed (as one page or two, depending
	// on how the commits interleave with dispatch); B (shed) gets a bare
	// marker.
	gotA := 0
	for gotA < 2 {
		var push wire.Response
		if err := cA.Recv(&push); err != nil {
			t.Fatal(err)
		}
		if push.Type != wire.MsgPush || len(push.Sigs) == 0 {
			t.Fatalf("admitted subscriber frame = %+v, want data push", push)
		}
		gotA += len(push.Sigs)
	}
	var marker wire.Response
	if err := cB.Recv(&marker); err != nil {
		t.Fatal(err)
	}
	if marker.Type != wire.MsgPush || !marker.More || len(marker.Sigs) != 0 {
		t.Fatalf("shed subscriber frame = %+v, want bare catch-up marker", marker)
	}

	// The shed session still drains everything via paginated GETs.
	drained, from := 0, marker.Next
	for {
		if err := cB.Send(wire.Request{Type: wire.MsgGet, ID: 4, From: from}); err != nil {
			t.Fatal(err)
		}
		var page wire.Response
		if err := cB.Recv(&page); err != nil {
			t.Fatal(err)
		}
		drained += len(page.Sigs)
		from = page.Next
		if !page.More {
			break
		}
	}
	if drained != 2 {
		t.Fatalf("shed subscriber drained %d signatures, want 2", drained)
	}

	// Still over quota (A holds the slot): the next commit is another
	// marker, not data.
	seedServer(t, srv, auth, 11, 1)
	if err := cB.Recv(&marker); err != nil {
		t.Fatal(err)
	}
	if marker.Type != wire.MsgPush || !marker.More || len(marker.Sigs) != 0 {
		t.Fatalf("shed subscriber second frame = %+v, want marker", marker)
	}

	// A departs, freeing the slot. B's next completed drain promotes it…
	connA.Close()
	if err := cB.Send(wire.Request{Type: wire.MsgGet, ID: 5, From: marker.Next}); err != nil {
		t.Fatal(err)
	}
	var page wire.Response
	for {
		if err := cB.Recv(&page); err != nil {
			t.Fatal(err)
		}
		if page.ID != 5 {
			continue // late marker from before the GET completed
		}
		if page.More {
			if err := cB.Send(wire.Request{Type: wire.MsgGet, ID: 5, From: page.Next}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		break
	}

	// …so the commit after promotion arrives as a data push. Allow for
	// the promotion racing A's teardown: B may see more marker rounds
	// first, but must end up receiving pushed data. Each retry commits
	// under a fresh seed — reusing one would generate a duplicate
	// signature, which deduplicates into no commit at all.
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; ; round++ {
		seedServer(t, srv, auth, int64(100+round), 1)
		var f wire.Response
		if err := cB.Recv(&f); err != nil {
			t.Fatal(err)
		}
		if f.Type == wire.MsgPush && len(f.Sigs) > 0 {
			break // promoted: full push delivery
		}
		if time.Now().After(deadline) {
			t.Fatal("shed subscriber was never promoted after the slot freed")
		}
		// Marker: drain and complete a GET to retry promotion.
		from := f.Next
		for {
			if err := cB.Send(wire.Request{Type: wire.MsgGet, ID: 6, From: from}); err != nil {
				t.Fatal(err)
			}
			var page wire.Response
			if err := cB.Recv(&page); err != nil {
				t.Fatal(err)
			}
			if page.ID != 6 {
				continue
			}
			from = page.Next
			if !page.More {
				break
			}
		}
	}
}

// helloAsking is a HELLO asking for version.
func helloAsking(version int) wire.Request {
	return wire.Request{Type: wire.MsgHello, ID: 1, Version: version}
}

// expectClosed asserts the server hangs up after its last reply.
func expectClosed(t *testing.T, c *wire.Conn) {
	t.Helper()
	var resp wire.Response
	if err := c.Recv(&resp); err == nil {
		t.Fatalf("connection still open, server sent %+v", resp)
	}
}

// Every session opens with HELLO: a first frame of any other type is
// answered error, echoing its ID, and the connection is closed.
func TestFirstFrameMustBeHello(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{})
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(99))
	add := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9))
	add.ID = 7
	for _, req := range []wire.Request{add, {Type: wire.MsgGet, ID: 8, From: 1}, wire.NewPing(9)} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		c := wire.NewConn(conn)
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusError || resp.ID != req.ID {
			t.Fatalf("%s as first frame: reply %+v, want error echoing id %d", req.Type, resp, req.ID)
		}
		expectClosed(t, c)
		conn.Close()
	}
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("an ADD sent before HELLO was committed: %d signatures", n)
	}
}

// A HELLO asking for a version below 2 is refused, not downgraded.
func TestHelloVersion1Refused(t *testing.T) {
	_, addr, _ := v2TestServer(t, Config{})
	for _, version := range []int{0, 1} {
		_, c, resp := rawHello(t, addr, helloAsking(version))
		if resp.Status != wire.StatusError || resp.ID != 1 {
			t.Fatalf("HELLO version %d: reply %+v, want error echoing id 1", version, resp)
		}
		expectClosed(t, c)
	}
	// A HELLO beyond this server's version negotiates down to it.
	if _, _, resp := rawHello(t, addr, helloAsking(wire.MaxVersion+1)); resp.Status != wire.StatusOK || resp.Version != wire.MaxVersion {
		t.Fatalf("HELLO version %d: reply %+v, want ok at %d", wire.MaxVersion+1, resp, wire.MaxVersion)
	}
}

// MaxSessions refuses surplus HELLOs busy and closes them, so a shed
// peer holds no socket or handler; a slot freed by a departing session
// admits the next HELLO.
func TestMaxSessionsRefusesSurplusHellosBusy(t *testing.T) {
	_, addr, _ := v2TestServer(t, Config{MaxSessions: 1})
	connA, _ := dialV2(t, addr) // holds the only session slot

	_, cB, resp := rawHello(t, addr, wire.NewHello(1))
	if resp.Status != wire.StatusBusy || resp.ID != 1 {
		t.Fatalf("over-cap HELLO reply = %+v, want busy echoing id 1", resp)
	}
	expectClosed(t, cB)

	connA.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, _, resp := rawHello(t, addr, wire.NewHello(1))
		conn.Close()
		if resp.Status == wire.StatusOK && resp.Version == wire.V2 {
			break
		}
		if resp.Status != wire.StatusBusy || time.Now().After(deadline) {
			t.Fatalf("HELLO after the holder left: %+v, want the freed slot", resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// One frame bound for reads and writes: a peer announcing a 9 MiB frame
// is disconnected before its payload is allocated, and a concurrent
// session keeps being answered.
func TestOversizedFrameDisconnectsOnlyItsPeer(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{})
	seedServer(t, srv, auth, 15, 3)
	_, good := dialV2(t, addr)
	conn, _ := dialV2(t, addr)

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 9<<20)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server kept the connection after a 9 MiB header (read %d bytes)", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server neither answered nor closed the oversized peer")
	}

	for id := uint64(2); id < 5; id++ {
		if err := good.Send(wire.Request{Type: wire.MsgGet, ID: id, From: 1}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := good.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || resp.ID != id || len(resp.Sigs) != 3 {
			t.Fatalf("concurrent session GET: %+v", resp)
		}
	}
}

// processAdd is the one validator of an uploaded signature: the frame
// decoder only delimits it, so an ADD whose sig is not JSON reaches the
// session, is answered error, and leaves the session serving. The same
// sig in an envelope outside the canonical subset (a space after the
// opening brace) is read by encoding/json, which rejects the frame, and
// the connection is dropped — the two outcomes PROTOCOL allows.
func TestAddWithNonJSONSigAnsweredOnLiveSession(t *testing.T) {
	_, addr, auth := v2TestServer(t, Config{})
	_, token := auth.Issue()
	addFrame := func(open string) []byte {
		payload := open + `"type":1,"id":2,"token":"` + string(token) + `","sig":{"threads":[1}]}`
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}

	conn, c := dialV2(t, addr)
	if _, err := conn.Write(addFrame("{")); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 || resp.Status != wire.StatusError || !strings.HasPrefix(resp.Detail, "malformed signature: ") {
		t.Fatalf("ADD with a sig that is not JSON: %+v", resp)
	}
	if err := c.Send(wire.NewPing(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Recv(&resp); err != nil || resp.ID != 3 || resp.Status != wire.StatusOK {
		t.Fatalf("PING after the refused ADD: %+v, %v", resp, err)
	}

	conn, c = dialV2(t, addr)
	if _, err := conn.Write(addFrame("{ ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := c.Recv(&resp); err == nil {
		t.Fatalf("non-canonical ADD with a sig that is not JSON was answered: %+v", resp)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server neither answered nor closed the connection")
	}
}
