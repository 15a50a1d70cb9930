// Session layer: persistent connections (docs/PROTOCOL.md).
//
// Every connection opens with HELLO and becomes a session: a reader
// (the connection's handler goroutine) dispatches ID-tagged requests
// and a writer goroutine serializes all outbound frames. Push delivery
// — streaming signature deltas to a SUBSCRIBEd peer — is driven by the
// shared pusher pool (pool.go), which owns a position into the store's
// append-only log per session and schedules page production across all
// subscribers with a fixed number of workers. A subscriber lagging more
// than the configured threshold is downgraded: it receives one catch-up
// marker (PUSH with More set, no signatures) and must drain via
// paginated GETs; the first GET reply that comes back complete re-arms
// the push stream from the position the GET reached.
//
// Ordering is enforced at production time, not queue time: push
// production is gated on the armed/catchup flags, and those flags only
// flip in post-write hooks running after the corresponding response
// frame (the SUBSCRIBE ack, the re-arming complete GET reply) has
// physically reached the socket. A PUSH that could overtake the reply
// that permits it therefore cannot exist, regardless of how the writer
// interleaves its two sources.
//
// Admission limits: Config.MaxSessions caps concurrent sessions — a
// HELLO over the cap is answered busy and its connection closed, and
// clients back off or rotate to another server. Config.MaxSubs
// caps push-admitted subscribers — a SUBSCRIBE over the quota is
// accepted but shed: the session receives only catch-up markers (so it
// still learns when the database grows) and drains via paginated GETs;
// each completed drain re-attempts admission, so shed sessions promote
// to full push delivery as slots free up.
package server

import (
	"fmt"
	"net"
	"sync"

	"communix/internal/ids"
	"communix/internal/wire"
)

const (
	// sessionOutQueue bounds one session's outbound response queue.
	// Frames past it apply backpressure to their producer (reader
	// dispatch), never unbounded server memory.
	sessionOutQueue = 16
	// sessionMaxInflightAdds bounds one session's ADD workers, and so its
	// concurrently processed ADDs; further ADD frames wait in the kernel
	// socket buffer.
	sessionMaxInflightAdds = 32
)

// hub tracks subscribed sessions and their push-admission state. It
// carries no payload on wakeups: each dispatch reads its own deltas
// from the store's lock-free log snapshot, so a commit burst costs one
// coalesced wakeup per subscriber regardless of burst size.
type hub struct {
	mu sync.Mutex
	// subs maps each subscribed session to its admission: true = full
	// push delivery, false = shed to marker-only (over MaxSubs quota).
	subs map[*session]bool
	// admitted counts the true entries, so admission checks are O(1).
	admitted int
	// users counts active subscriptions per authenticated user — the
	// per-user quota plane (Config.MaxSubsPerUser), extending the
	// per-user ADD budgets to the read side.
	users map[ids.UserID]int
}

// reserveUser counts one subscription against user's quota, rejecting
// at max. A session holds at most one reservation (re-SUBSCRIBE on the
// same session is not double-counted); remove releases it. A counted
// session re-subscribing under a DIFFERENT user token runs the quota
// check for the new user before the old reservation moves: rotating
// tokens on one session is not a way to hold slots under several users,
// nor to bypass the new user's limit. On rejection the old reservation
// stands — the session's active subscription is still the old user's.
func (h *hub) reserveUser(sess *session, user ids.UserID, max int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	sess.mu.Lock()
	prev, counted := sess.user, sess.userCounted
	sess.mu.Unlock()
	if counted && prev == user {
		return true
	}
	if h.users == nil {
		h.users = make(map[ids.UserID]int)
	}
	if h.users[user] >= max {
		return false
	}
	h.users[user]++
	if counted {
		if h.users[prev] > 1 {
			h.users[prev]--
		} else {
			delete(h.users, prev)
		}
	}
	sess.mu.Lock()
	sess.user = user
	sess.userCounted = true
	sess.mu.Unlock()
	return true
}

// register adds a subscribing session and decides its admission against
// the quota (0 = unlimited). A re-SUBSCRIBE keeps the session's
// existing admission — re-subscribing is not a way to jump the queue.
func (h *hub) register(sess *session, maxSubs int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs == nil {
		h.subs = make(map[*session]bool)
	}
	if adm, ok := h.subs[sess]; ok {
		return adm
	}
	adm := maxSubs <= 0 || h.admitted < maxSubs
	h.subs[sess] = adm
	if adm {
		h.admitted++
	}
	return adm
}

// remove drops a departing session, freeing its admission slot and its
// per-user quota reservation.
func (h *hub) remove(sess *session) {
	h.mu.Lock()
	if adm, ok := h.subs[sess]; ok {
		delete(h.subs, sess)
		if adm {
			h.admitted--
		}
	}
	sess.mu.Lock()
	user, counted := sess.user, sess.userCounted
	sess.userCounted = false
	sess.mu.Unlock()
	if counted {
		if h.users[user] > 1 {
			h.users[user]--
		} else {
			delete(h.users, user)
		}
	}
	h.mu.Unlock()
}

// tryPromote upgrades a shed session to full push delivery if a quota
// slot is free. Reports whether the session is now admitted.
func (h *hub) tryPromote(sess *session, maxSubs int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	adm, ok := h.subs[sess]
	if !ok {
		return false
	}
	if adm {
		return true
	}
	if maxSubs > 0 && h.admitted >= maxSubs {
		return false
	}
	h.subs[sess] = true
	h.admitted++
	sess.mu.Lock()
	sess.shed = false
	sess.mu.Unlock()
	return true
}

// wakeSubscribers schedules push work for every subscribed session —
// the store calls this once per committed batch.
func (s *Server) wakeSubscribers() {
	s.hub.mu.Lock()
	for sess := range s.hub.subs {
		s.wakePusher(sess)
	}
	s.hub.mu.Unlock()
}

// outFrame is one queued outbound response. onWrite, if set, runs on
// the writer goroutine immediately after the frame reaches the socket —
// the mechanism that gates push production on bytes-on-wire.
type outFrame struct {
	resp    wire.Response
	onWrite func()
}

// session is one connection's server-side state.
type session struct {
	conn net.Conn
	wc   *wire.Conn

	out chan outFrame
	// pushSlot carries at most one pre-encoded PUSH frame from a pool
	// worker to the writer. The
	// inflight flag guarantees it is empty whenever a send is attempted,
	// so pushers never block on a slow subscriber.
	pushSlot chan []byte
	stop     chan struct{}
	stopOnce sync.Once

	// mu guards the subscription and scheduling state below, shared
	// between the reader (SUBSCRIBE/GET handling), the writer (post-write
	// hooks), and the pusher.
	mu         sync.Mutex
	subscribed bool
	// cursor is the 1-based log index the next PUSH starts from.
	cursor int
	// catchup marks a downgraded subscriber: pushing is paused until a
	// complete (un-truncated) GET reply proves the peer caught up.
	catchup bool
	// shed marks a subscriber over the MaxSubs quota: it receives
	// catch-up markers instead of data pages until tryPromote succeeds.
	shed bool
	// replica marks a REPLICATE stream (a follower server, not a
	// client): pushes carry full entries instead of signature pages, and
	// the session is never shed or lag-downgraded.
	replica bool
	// replNode is the replica's peer node identity, bound when the
	// REPLICATE was admitted (empty unless the claimed node is a
	// configured cell peer). CURSOR reports on this session count toward
	// quorum under this identity and no other — an arbitrary connection
	// cannot speak for a member.
	replNode string
	// user/userCounted track this session's per-user subscription quota
	// reservation (hub.reserveUser); only meaningful when
	// Config.MaxSubsPerUser is enforced.
	user        ids.UserID
	userCounted bool
	// armed is set once the SUBSCRIBE ack has physically been written;
	// no PUSH is produced before that, so the first PUSH can never
	// overtake the ack.
	armed bool
	// inflight is set while one PUSH frame is between production and the
	// socket; the writer clears it and re-wakes the pusher, making
	// per-session delivery self-clocking at one page in flight.
	inflight bool
	// pstate is the pool's per-session scheduling state (pool.go).
	pstate int8

	wg sync.WaitGroup // writer + ADD workers
}

func newSession(conn net.Conn, wc *wire.Conn) *session {
	return &session{
		conn:     conn,
		wc:       wc,
		out:      make(chan outFrame, sessionOutQueue),
		pushSlot: make(chan []byte, 1),
		stop:     make(chan struct{}),
	}
}

// send queues one outbound frame, giving up when the session is tearing
// down (so producers never block on a dead peer's full queue).
func (sess *session) send(r wire.Response) bool {
	return sess.sendHook(r, nil)
}

// sendHook queues one outbound frame with a post-write hook.
func (sess *session) sendHook(r wire.Response, onWrite func()) bool {
	select {
	case sess.out <- outFrame{resp: r, onWrite: onWrite}:
		return true
	case <-sess.stop:
		return false
	}
}

// closing reports whether shutdown has begun. Callers must tolerate the
// answer going stale immediately; it only gates best-effort work.
func (sess *session) closing() bool {
	select {
	case <-sess.stop:
		return true
	default:
		return false
	}
}

// shutdown tears the session down exactly once: the stop channel
// releases every goroutine blocked on send, and closing the
// connection unblocks the reader.
func (sess *session) shutdown() {
	sess.stopOnce.Do(func() {
		close(sess.stop)
		sess.conn.Close()
	})
}

// replyBuffers holds the frame buffers writers encode replies into,
// server-wide: a GET reply's page is encoded, written and done with
// before the writer takes its next frame, so one buffer serves reply
// after reply instead of each reply allocating its own.
type replyBuffers struct{ pool sync.Pool }

// maxPooledReply bounds the buffers put back: the largest frame the
// protocol allows, header included.
const maxPooledReply = wire.MaxFrameSize + 4

func (p *replyBuffers) get() *[]byte {
	if buf, ok := p.pool.Get().(*[]byte); ok {
		return buf
	}
	return new([]byte)
}

// put returns buf to the pool holding frame's storage (buf's own when
// frame is nil), and reports whether it did: storage past
// maxPooledReply is dropped.
func (p *replyBuffers) put(buf *[]byte, frame []byte) bool {
	if frame != nil {
		*buf = frame[:0]
	}
	if cap(*buf) > maxPooledReply {
		return false
	}
	p.pool.Put(buf)
	return true
}

// writeLoop is the session's single writer: every frame — responses and
// pushes alike — leaves through here, so interleaving is frame-atomic.
// After each written PUSH it clears inflight and re-wakes the pusher,
// which is what clocks page production to the subscriber's socket.
// Responses are encoded with AppendStoredFrame, into a buffer from the
// server's replyBufs that goes back once the frame is written: the only
// signatures a reply carries are GetPage's store entries. PUSH pages
// are not recycled: the pusher caches a page's frame and shares it with
// every subscriber at the same cursor.
func (s *Server) writeLoop(sess *session) {
	defer sess.wg.Done()
	for {
		select {
		case f := <-sess.out:
			buf := s.replyBufs.get()
			enc, err := wire.AppendStoredFrame((*buf)[:0], f.resp)
			if err == nil {
				err = sess.wc.SendEncoded(enc)
			}
			s.replyBufs.put(buf, enc)
			if err != nil {
				sess.shutdown()
				return
			}
			if f.onWrite != nil {
				f.onWrite()
			}
		case enc := <-sess.pushSlot:
			if err := sess.wc.SendEncoded(enc); err != nil {
				sess.shutdown()
				return
			}
			sess.mu.Lock()
			sess.inflight = false
			sess.mu.Unlock()
			s.wakePusher(sess)
		case <-sess.stop:
			return
		}
	}
}

// serveSession negotiates and runs one session; it returns when the
// connection dies (peer hangup, write error, server Close). hello is the
// already-read opening frame. A HELLO asking for a version below V2 is
// answered StatusError, and one past the session cap StatusBusy (still
// stamped with our epoch and role, so a probing peer learns them);
// either way the connection then closes, so a refused peer holds no
// socket or goroutine here. A HELLO naming a cell member skips the cap:
// the cell's own probes, votes, replication streams and the operator's
// promote must get through a node saturated with clients.
func (s *Server) serveSession(conn net.Conn, c *wire.Conn, hello wire.Request) {
	if hello.Version < wire.V2 {
		_ = c.Send(wire.Response{Status: wire.StatusError, ID: hello.ID,
			Detail: fmt.Sprintf("unsupported protocol version %d (want %d)", hello.Version, wire.V2)})
		return
	}
	if !s.isMember(hello.Node) {
		if !s.reserveSession() {
			busy := wire.Response{Status: wire.StatusBusy, ID: hello.ID, Detail: "session limit reached; retry later"}
			s.decorateHello(&busy, hello.Epoch)
			_ = c.Send(busy)
			return
		}
		defer s.releaseSession()
	}
	version := min(hello.Version, wire.MaxVersion)

	sess := newSession(conn, c)
	sess.wg.Add(1)
	go s.writeLoop(sess)
	defer func() {
		sess.shutdown()
		s.hub.remove(sess)
		sess.wg.Wait()
	}()

	ack := wire.Response{Status: wire.StatusOK, ID: hello.ID, Version: version}
	s.decorateHello(&ack, hello.Epoch)
	if !sess.send(ack) {
		return
	}

	// ADD verdicts can wait on a commit or a quorum, so ADDs run on the
	// session's workers while this reader keeps answering GETs, PINGs
	// and pushes. A worker starts only when every running one is busy,
	// up to sessionMaxInflightAdds; past that the reader blocks on the
	// hand-off. IDs match responses back to requests, order is
	// unspecified. Closing adds on return stops the workers (the
	// teardown above waits for them).
	adds := make(chan wire.Request)
	defer close(adds)
	workers := 0
	for {
		var req wire.Request
		if err := c.Recv(&req); err != nil {
			return
		}
		switch req.Type {
		case wire.MsgAdd:
			select {
			case adds <- req:
			default:
				if workers < sessionMaxInflightAdds {
					workers++
					sess.wg.Add(1)
					go s.addWorker(sess, req, adds)
				} else {
					adds <- req
				}
			}
		case wire.MsgGet:
			resp := s.Process(req)
			resp.ID = req.ID
			var onWrite func()
			if !resp.More {
				// A complete reply proves the peer is caught up: resume
				// pushing from where the GET ended (no gap: anything
				// committed after the snapshot is ≥ resp.Next). The hook
				// runs strictly AFTER the reply bytes reach the socket,
				// and push production is gated on it — so the first
				// resumed PUSH can never overtake the GET reply on the
				// wire; overtaking would misalign the client's repository
				// positions and drop the GET page for good.
				next := resp.Next
				onWrite = func() { s.getCompleted(sess, next) }
			}
			if !sess.sendHook(resp, onWrite) {
				return
			}
		case wire.MsgSubscribe:
			if reject := s.admitSubscribe(sess, req); reject != nil {
				if !sess.send(*reject) {
					return
				}
				continue
			}
			s.subscribe(sess, req.From)
			// Arming happens in the ack's post-write hook: the backlog
			// stream starts only once the ack is on the wire, so PUSH
			// frames never precede it.
			if !sess.sendHook(wire.Response{Status: wire.StatusOK, ID: req.ID}, func() { s.subscriptionArmed(sess) }) {
				return
			}
		case wire.MsgReplicate:
			if reject := s.admitReplicate(sess, req); reject != nil {
				if !sess.send(*reject) {
					return
				}
				continue
			}
			// Same arming discipline as SUBSCRIBE: entry pages flow only
			// once the ack (carrying our epoch and fence history) is on
			// the wire.
			ack := wire.Response{Status: wire.StatusOK, ID: req.ID,
				Epoch: s.db.Epoch(), Fences: fencesToWire(s.db.Fences())}
			if !sess.sendHook(ack, func() { s.subscriptionArmed(sess) }) {
				return
			}
		case wire.MsgCursor:
			// Durable-cursor reports count toward quorum ACKs only on an
			// established REPLICATE session, attributed to the node identity
			// bound at admission — never to a name the frame claims. The
			// report's Epoch field is the follower's vote bar (quorum.go).
			sess.mu.Lock()
			replica, node := sess.replica, sess.replNode
			sess.mu.Unlock()
			if !replica {
				if !sess.send(wire.Response{Status: wire.StatusRejected, ID: req.ID,
					Detail: "CURSOR requires an established REPLICATE session"}) {
					return
				}
				continue
			}
			if node != "" {
				s.recordCursor(node, req.Cursor, req.Epoch)
			}
			if !sess.send(wire.Response{Status: wire.StatusOK, ID: req.ID}) {
				return
			}
		case wire.MsgPing:
			if !sess.send(wire.Response{Status: wire.StatusOK, ID: req.ID}) {
				return
			}
		default:
			resp := s.Process(req)
			resp.ID = req.ID
			if !sess.send(resp) {
				return
			}
		}
	}
}

// addWorker is one of a session's ADD workers: it answers req, then
// every ADD handed over on adds until the reader closes it. A worker
// lives as long as its session, so its stack grows once, not per ADD.
func (s *Server) addWorker(sess *session, req wire.Request, adds <-chan wire.Request) {
	defer sess.wg.Done()
	for ok := true; ok; req, ok = <-adds {
		resp := s.Process(req)
		resp.ID = req.ID
		sess.send(resp)
	}
}

// admitSubscribe enforces the per-user subscription quota
// (Config.MaxSubsPerUser). When enforced, the SUBSCRIBE must carry a
// valid user token, and each user gets at most that many concurrent
// subscriptions across all their sessions. A non-nil response is the
// rejection to send.
func (s *Server) admitSubscribe(sess *session, req wire.Request) *wire.Response {
	if s.maxSubsPerUser <= 0 {
		return nil
	}
	user, err := s.codec.Verify(req.Token)
	if err != nil {
		return &wire.Response{Status: wire.StatusRejected, ID: req.ID,
			Detail: "subscription requires a valid user token on this server"}
	}
	if !s.hub.reserveUser(sess, user, s.maxSubsPerUser) {
		return &wire.Response{Status: wire.StatusRejected, ID: req.ID,
			Detail: "per-user subscription limit reached"}
	}
	return nil
}

// subscribe registers the session for pushes from 1-based index from.
// Production stays disarmed until the SUBSCRIBE ack's post-write hook
// fires; admission against the MaxSubs quota is decided here.
func (s *Server) subscribe(sess *session, from int) {
	if from < 1 {
		from = 1
	}
	admitted := s.hub.register(sess, s.maxSubs)
	sess.mu.Lock()
	sess.subscribed = true
	sess.cursor = from
	sess.catchup = false
	sess.armed = false
	sess.shed = !admitted
	sess.mu.Unlock()
}

// subscriptionArmed runs after the SUBSCRIBE ack reaches the socket:
// from here on the pusher may produce frames for this session.
func (s *Server) subscriptionArmed(sess *session) {
	sess.mu.Lock()
	sess.armed = true
	sess.mu.Unlock()
	s.wakePusher(sess)
}

// getCompleted runs after a complete (un-truncated) GET reply reaches
// the socket. For a downgraded subscriber that is the proof it caught
// up: re-arm the push stream from where the GET ended; a shed session
// additionally re-attempts quota admission — completing a drain is the
// promotion point, so promotion never lands mid-drain.
func (s *Server) getCompleted(sess *session, next int) {
	sess.mu.Lock()
	resumed := sess.subscribed && sess.catchup
	shed := sess.shed
	if resumed {
		sess.catchup = false
		sess.cursor = next
	}
	sess.mu.Unlock()
	if !resumed {
		return
	}
	if shed {
		s.hub.tryPromote(sess, s.maxSubs)
	}
	s.wakePusher(sess)
}
