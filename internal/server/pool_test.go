package server

import (
	"math/rand"
	"net"
	"testing"

	"communix/internal/ids"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// handPlayedServer builds a server whose pusher pool has no workers:
// the real workers are parked and enqueues accumulate until the test
// pops and dispatches them by hand. Cleanup closes the server.
func handPlayedServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.pool.close()
	srv.pool = newPusherPool(srv, 0)
	return srv
}

// Regression: a subscriber that disconnects while sitting in the
// readiness queue must not leave a dangling cursor in the hub, and the
// worker that later pops the dead entry must not produce frames for (or
// otherwise wake) the freed session. The interleaving is provoked
// deterministically by swapping the server's pool for one with no
// workers, so the queue only moves when the test plays the worker.
func TestDisconnectWhileQueuedInReadinessQueue(t *testing.T) {
	srv := handPlayedServer(t)

	client, serverEnd := net.Pipe()
	defer client.Close()
	sess := newSession(serverEnd, wire.NewConn(serverEnd))
	sess.wg.Add(1)
	go srv.writeLoop(sess)

	// SUBSCRIBE lifecycle up to the armed wake: the session is now
	// queued for dispatch.
	srv.subscribe(sess, 1)
	srv.subscriptionArmed(sess)
	if got := srv.pool.queued(); got != 1 {
		t.Fatalf("readiness queue holds %d sessions after arming, want 1", got)
	}

	// The peer vanishes while the session is still queued — exactly what
	// serveSession's teardown does.
	sess.shutdown()
	srv.hub.remove(sess)
	sess.wg.Wait()

	// No dangling cursor: the hub forgot the session entirely.
	srv.hub.mu.Lock()
	subs, admitted := len(srv.hub.subs), srv.hub.admitted
	srv.hub.mu.Unlock()
	if subs != 0 || admitted != 0 {
		t.Fatalf("hub still tracks %d subs (%d admitted) after teardown", subs, admitted)
	}

	if got := srv.pool.queued(); got != 1 {
		t.Fatalf("readiness queue holds %d sessions, want the 1 stale entry", got)
	}

	// The worker pops the dead entry: dispatch must no-op — no frame
	// produced, scheduling state parked idle, no panic, no block.
	popped := srv.pool.pop()
	if popped != sess {
		t.Fatalf("popped %v, want the dead session", popped)
	}
	srv.dispatchPush(popped)
	sess.mu.Lock()
	pstate, inflight := sess.pstate, sess.inflight
	sess.mu.Unlock()
	if pstate != pushIdle || inflight {
		t.Fatalf("dead session left pstate=%d inflight=%v, want idle/false", pstate, inflight)
	}
	select {
	case enc := <-sess.pushSlot:
		t.Fatalf("dispatch produced a %d-byte frame for a dead session", len(enc))
	default:
	}
	if got := srv.pool.queued(); got != 0 {
		t.Fatalf("readiness queue holds %d sessions after the pop, want 0", got)
	}
}

// A commit arriving after a subscriber's teardown wakes nobody: the hub
// no longer knows the session, so the readiness queue stays empty.
func TestCommitAfterTeardownWakesNobody(t *testing.T) {
	srv := handPlayedServer(t)

	client, serverEnd := net.Pipe()
	defer client.Close()
	sess := newSession(serverEnd, wire.NewConn(serverEnd))
	sess.wg.Add(1)
	go srv.writeLoop(sess)
	srv.subscribe(sess, 1)
	srv.subscriptionArmed(sess)

	// Drain the queue (simulated worker round on an empty log), then
	// tear the session down.
	for srv.pool.pop() != nil {
	}
	sess.shutdown()
	srv.hub.remove(sess)
	sess.wg.Wait()

	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(5))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	if resp := srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK {
		t.Fatalf("ADD: %+v", resp)
	}
	if got := srv.pool.queued(); got != 0 {
		t.Fatalf("commit after teardown enqueued %d sessions, want 0", got)
	}
}

// The encoded-page cache returns bytes only for exact cursor matches,
// holds several cursor cohorts at once (burst fragmentation), replaces
// a same-cursor entry in place, and evicts round-robin once full.
func TestPageCache(t *testing.T) {
	var c pageCache
	if enc, _ := c.get(1); enc != nil {
		t.Fatalf("empty cache returned %q", enc)
	}
	c.put(1, 4, []byte("page-1"))
	if enc, next := c.get(1); string(enc) != "page-1" || next != 4 {
		t.Fatalf("get(1) = %q/%d, want page-1/4", enc, next)
	}
	if enc, _ := c.get(2); enc != nil {
		t.Fatalf("get(2) hit a cache holding from=1: %q", enc)
	}
	// Distinct cursors coexist — the cohorts of one burst must not evict
	// one another.
	c.put(4, 9, []byte("page-4"))
	if enc, next := c.get(1); string(enc) != "page-1" || next != 4 {
		t.Fatalf("get(1) after put(4) = %q/%d, want page-1/4", enc, next)
	}
	if enc, next := c.get(4); string(enc) != "page-4" || next != 9 {
		t.Fatalf("get(4) = %q/%d, want page-4/9", enc, next)
	}
	// A longer page at the same cursor supersedes in place.
	c.put(1, 7, []byte("page-1-longer"))
	if enc, next := c.get(1); string(enc) != "page-1-longer" || next != 7 {
		t.Fatalf("superseded get(1) = %q/%d, want page-1-longer/7", enc, next)
	}
	// Filling every slot evicts the oldest entries round-robin.
	for i := 0; i < pageCacheSlots; i++ {
		from := 100 + i
		c.put(from, from+1, []byte("filler"))
	}
	if enc, _ := c.get(1); enc != nil {
		t.Fatalf("entry survived a full round of evictions: %q", enc)
	}
	for i := 0; i < pageCacheSlots; i++ {
		if enc, _ := c.get(100 + i); enc == nil {
			t.Fatalf("freshly inserted from=%d missing", 100+i)
		}
	}
}

// The readiness queue is FIFO and recycles its backing array when
// drained.
func TestReadinessQueueFIFO(t *testing.T) {
	p := newPusherPool(nil, 0)
	a, b := &session{}, &session{}
	p.enqueue(a)
	p.enqueue(b)
	if p.queued() != 2 {
		t.Fatalf("queued = %d, want 2", p.queued())
	}
	if p.pop() != a || p.pop() != b {
		t.Fatal("pop order is not FIFO")
	}
	if p.pop() != nil {
		t.Fatal("empty queue popped a session")
	}
	if len(p.queue) != 0 || p.head != 0 {
		t.Fatalf("drained queue not recycled: len=%d head=%d", len(p.queue), p.head)
	}
}
