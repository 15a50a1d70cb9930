// Replication: log-shipping follower replicas with epoch-fenced
// failover (docs/ARCHITECTURE.md, "Replication").
//
// A follower is a full Server whose store is rebuilt from the primary's
// log instead of from client ADDs. It opens one session to the
// primary and REPLICATEs from its own WAL-recovered cursor; the primary
// serves the session through the same pooled pusher machinery that
// drives SUBSCRIBE, except the frames carry full entries (signature
// plus user/timestamp metadata) so the follower's dup-set, adjacency,
// and per-user budget state comes out byte-identical. Shipped entries
// commit through the follower's normal store path — same WAL, same
// recovery — so a restarting follower resumes from durable state.
//
// Fencing: every promotion bumps a persisted epoch and freezes the new
// primary's log length as a fence. A peer carrying state from an older
// epoch compares its log length against the minimum fence over the
// epochs it missed (store.SafeLen): at or below it, its prefix is
// guaranteed identical and replication continues from its cursor;
// above it, its tail may contain commits the failed primary never
// shipped, so it discards everything (ResetReplica) and re-replicates
// from index 1. Client sessions on a resetting follower are dropped so
// they re-HELLO and run the same fence check.
package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"communix/internal/store"
	"communix/internal/wire"
)

// Role names carried in HELLO replies.
const (
	rolePrimary  = "primary"
	roleFollower = "follower"
)

// followRetryMin/Max bound the follower's reconnect backoff.
const (
	followRetryMin = 100 * time.Millisecond
	followRetryMax = 5 * time.Second
)

// followerOf reports whether this server is currently a follower and,
// if so, the primary address it advertises to rejected writers.
func (s *Server) followerOf() (string, bool) {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	return s.primaryAddr, s.follower
}

// roleName is the Role value for HELLO replies.
func (s *Server) roleName() string {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if s.follower {
		return roleFollower
	}
	return rolePrimary
}

// primaryAdvertise is the Primary value for HELLO replies: a follower
// points at its primary, a primary points at itself (Config.Advertise).
func (s *Server) primaryAdvertise() string {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if s.follower {
		return s.primaryAddr
	}
	return s.advertise
}

// logfSafe logs through Config.Logf when set.
func (s *Server) logfSafe(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// setFollowConn registers the follower's live replication connection so
// stopFollowing can sever it. It refuses (closing the conn) once the
// follower has been stopped — otherwise a dial racing Promote/Close
// could leave a connection nobody will ever close, blocking followOnce
// in a read forever.
func (s *Server) setFollowConn(conn net.Conn) bool {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if s.followStopped {
		conn.Close()
		return false
	}
	s.followConn = conn
	return true
}

// clearFollowConn drops the registration after a replication session
// ends (the conn is closed by the caller).
func (s *Server) clearFollowConn(conn net.Conn) {
	s.roleMu.Lock()
	if s.followConn == conn {
		s.followConn = nil
	}
	s.roleMu.Unlock()
}

// stopFollowing halts the follower loop and waits for it to exit. It is
// idempotent and a no-op on primaries that never followed.
func (s *Server) stopFollowing() {
	s.roleMu.Lock()
	if s.followStop == nil || s.followStopped {
		s.roleMu.Unlock()
		if s.followStop != nil {
			s.followWG.Wait()
		}
		return
	}
	s.followStopped = true
	stop := s.followStop
	conn := s.followConn
	s.followConn = nil
	s.roleMu.Unlock()
	close(stop)
	if conn != nil {
		conn.Close()
	}
	s.followWG.Wait()
}

// startFollowing (re)arms the follower loop toward addr: any previous
// loop is stopped first, then the role flips to follower and a fresh
// loop dials the new primary. This is how an elected-over follower
// repoints itself and how a superseded primary demotes; it refuses to
// arm once Close has begun.
func (s *Server) startFollowing(addr string) {
	s.stopFollowing()
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if s.roleShutdown {
		return
	}
	if s.followStop != nil && !s.followStopped {
		return // a concurrent caller armed a loop already
	}
	s.follower = true
	s.primaryAddr = addr
	s.followDial = s.dialTo(addr)
	s.followStop = make(chan struct{})
	s.followStopped = false
	s.followWG.Add(1)
	go s.followLoop(s.followStop)
	// The role flipped (this may be a demotion): cursors recorded while
	// we were primary describe a log we no longer serve, and any parked
	// quorum ADD can never be covered here — reset after the flip so a
	// racing ADD either parks first (and is aborted) or sees the
	// follower role and refuses to park at all.
	s.quorum.reset()
}

// Promote turns a follower into the primary: the follower loop is
// stopped first (so the log length the fence freezes is final), then
// the store bumps its persisted epoch with a fence at the current
// length. Promoting a primary is a no-op returning the current epoch —
// idempotent, so operators can retry. The returned epoch is the one the
// server now serves at.
func (s *Server) Promote() (uint64, error) {
	return s.promoteTo(0)
}

// promoteTo is Promote with an explicit target epoch (0 = next): the
// elector promotes to the epoch its votes were granted for, which can
// sit more than one ahead after contested rounds (store.PromoteTo).
func (s *Server) promoteTo(target uint64) (uint64, error) {
	s.roleMu.Lock()
	wasFollower := s.follower
	s.roleMu.Unlock()
	if !wasFollower {
		return s.db.Epoch(), nil
	}
	s.stopFollowing()
	s.roleMu.Lock()
	s.follower = false
	s.primaryAddr = ""
	s.roleMu.Unlock()
	epoch, err := s.db.PromoteTo(target)
	if err != nil {
		return 0, fmt.Errorf("server: promote: %w", err)
	}
	// Cursors recorded during a previous primacy (before we were demoted)
	// describe a log that has since been fenced — clear them after the
	// epoch bump, so every report counted from here on had to be stamped
	// with the new epoch.
	s.quorum.reset()
	s.logfSafe("promoted to primary at epoch %d (fence %d)", epoch, s.db.Len())
	// Live client sessions stay: the fence froze at our own length, so
	// every position they hold is ≤ the fence and guaranteed to survive.
	// Peers of the failed primary re-HELLO here and fence themselves.
	return epoch, nil
}

// dropClientSessions severs every live client connection.
// Used after a promotion or a replica reset, when sessions negotiated
// under the previous epoch (or against discarded state) must re-HELLO
// and fence themselves. The accept loop keeps running; clients
// reconnect immediately.
func (s *Server) dropClientSessions() {
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

// followLoop runs the follower's replication client until stop: dial,
// replicate, and on any failure back off and retry. One retry cycle is
// followOnce; errors are logged and retried — a follower outliving its
// primary keeps serving reads from its local store and reconnects when
// a primary (old or newly promoted) comes back.
func (s *Server) followLoop(stop chan struct{}) {
	defer s.followWG.Done()
	backoff := followRetryMin
	for {
		select {
		case <-stop:
			return
		default:
		}
		err := s.followOnce(stop)
		if err == nil || isStopped(stop) {
			return
		}
		s.logfSafe("replication session ended: %v (retry in %v)", err, backoff)
		select {
		case <-stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > followRetryMax {
			backoff = followRetryMax
		}
	}
}

func isStopped(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// errStalePrimary marks a primary whose epoch is older than ours: a
// failed primary that came back after we were fenced past it. We must
// not replicate from it — its tail may be the divergent one.
var errStalePrimary = errors.New("primary is at an older epoch than this follower")

// followOnce runs one replication session: dial the primary, HELLO with
// our epoch, fence ourselves if the primary's epoch is newer, REPLICATE
// from our cursor, then apply the entry stream until the connection
// dies. A nil return means the follower was stopped deliberately.
func (s *Server) followOnce(stop chan struct{}) error {
	conn, err := s.followDial()
	if err != nil {
		return fmt.Errorf("dial primary: %w", err)
	}
	if !s.setFollowConn(conn) {
		return nil // stopped while dialing
	}
	defer func() {
		s.clearFollowConn(conn)
		conn.Close()
	}()
	c := wire.NewConn(conn)

	// HELLO at our epoch, naming our node so a primary at its session
	// cap still admits us. The reply tells us the primary's epoch and the
	// fence we must respect if it is newer than ours.
	hello, err := c.Hello(s.db.Epoch(), s.nodeID)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	s.contactFrom(hello.Epoch)

	switch {
	case hello.Epoch < s.db.Epoch():
		return errStalePrimary
	case hello.Epoch > s.db.Epoch():
		// Promotions happened while we were away. Our prefix survives iff
		// it is no longer than the fence (minimum promoted length over the
		// epochs we missed).
		if s.db.Len() > hello.Fence {
			s.logfSafe("fenced at epoch %d: local length %d exceeds fence %d, resynchronizing from scratch", hello.Epoch, s.db.Len(), hello.Fence)
			if err := s.resetReplica(); err != nil {
				return err
			}
		}
		if err := s.db.AdoptEpoch(hello.Epoch, fencesFromWire(hello.Fences)); err != nil {
			return fmt.Errorf("adopt epoch %d: %w", hello.Epoch, err)
		}
	}

	// The epoch this session was negotiated at: frames received on it are
	// proof of liveness for a primary at exactly this epoch, and the
	// failure detector must not count them once we vote past it.
	sessEpoch := s.db.Epoch()

	// REPLICATE from our cursor, whatever it is: the primary's log keeps
	// every committed entry, so the stream is the only catch-up path.
	rep := wire.NewReplicate(2, s.db.Len()+1, s.db.Epoch()) // HELLO used ID 1
	rep.Node = s.nodeID                                     // binds this session to our node id for CURSOR reports
	if err := c.Send(rep); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	var ack wire.Response
	if err := c.Recv(&ack); err != nil {
		return fmt.Errorf("replicate reply: %w", err)
	}
	if ack.Status != wire.StatusOK {
		return fmt.Errorf("primary refused REPLICATE (status %v): %s", ack.Status, ack.Detail)
	}

	// Keepalive: a dedicated goroutine is the session's sole writer from
	// here on (the reader below never writes). Instead of plain PINGs it
	// reports our durable cursor — the primary's quorum-ACK signal — on
	// the ticker cadence and immediately after each applied page (the
	// reader taps reportCh). The channel is pre-filled so the first
	// report goes out as soon as the stream opens: the primary's tracker
	// starts empty and learns our cursor from this report, not from the
	// REPLICATE request itself.
	//
	// Each report is stamped with our vote bar, and ordering matters for
	// election safety: the cursor is read strictly BEFORE the bar. If a
	// vote grant lands between the two reads, the report carries the new
	// bar and the primary discards it; read the other way around, a
	// pre-vote bar could be paired with a post-vote cursor and count for
	// a quorum the election's winner never intersects.
	reportCh := make(chan struct{}, 1)
	reportCh <- struct{}{}
	pingDone := make(chan struct{})
	defer close(pingDone)
	go func() {
		t := time.NewTicker(s.followPing)
		defer t.Stop()
		id := uint64(1000)
		for {
			select {
			case <-pingDone:
				return
			case <-stop:
				return
			case <-t.C:
			case <-reportCh:
			}
			id++
			cur := s.db.Len()
			bar := s.voteBar()
			if c.Send(wire.NewCursorReport(id, cur, bar)) != nil {
				return // the reader sees the broken conn and returns
			}
		}
	}()

	// Apply the entry stream. PUSH frames (ID 0) carry entries; CURSOR
	// acks and the occasional marker-free frame are skipped. Every frame
	// is proof of liveness for a primary at the session's epoch — counted
	// by the failure detector only while we have not voted past it.
	for {
		var f wire.Response
		if err := c.Recv(&f); err != nil {
			if isStopped(stop) {
				return nil
			}
			return fmt.Errorf("stream: %w", err)
		}
		s.contactFrom(sessEpoch)
		if f.ID != 0 || f.Type != wire.MsgPush {
			continue // CURSOR/PING ack
		}
		if len(f.Entries) == 0 {
			continue
		}
		from := f.Next - len(f.Entries)
		if _, err := s.db.ApplyReplicated(from, entriesFromWire(f.Entries)); err != nil {
			return fmt.Errorf("apply [%d,%d): %w", from, f.Next, err)
		}
		// Fan the new entries out to our own subscribers: a follower is a
		// read replica, its SUBSCRIBE clients get deltas at replication
		// speed. Then nudge the keepalive goroutine to report the advanced
		// cursor at once — quorum ACK latency is this signal's latency.
		s.wakeSubscribers()
		select {
		case reportCh <- struct{}{}:
		default:
		}
	}
}

// resetReplica discards the follower's local store state (log,
// validation state, WAL segments and snapshots) and severs client
// sessions, whose peers hold positions into the discarded log.
func (s *Server) resetReplica() error {
	if err := s.db.ResetReplica(); err != nil {
		return fmt.Errorf("reset replica: %w", err)
	}
	s.dropClientSessions()
	return nil
}

// decorateHello stamps the replication fields onto a HELLO reply: our
// epoch, role, the primary's address, the full fence history, and —
// when the peer's epoch is older than ours — the fence its local state
// must not exceed (store.SafeLen over the epochs it missed).
func (s *Server) decorateHello(resp *wire.Response, peerEpoch uint64) {
	resp.Epoch = s.db.Epoch()
	resp.Role = s.roleName()
	resp.Primary = s.primaryAdvertise()
	if peerEpoch < resp.Epoch {
		resp.Fence = s.db.SafeLen(peerEpoch)
	}
	resp.Fences = fencesToWire(s.db.Fences())
}

// admitReplicate decides one REPLICATE request. The epoch was
// negotiated at HELLO; a mismatch here means a promotion raced the
// handshake, and the follower must redial to renegotiate. Any cursor is
// admitted: the in-memory log holds every committed entry. A nil
// response means the session is registered as a replica and the caller
// should ack and arm it.
func (s *Server) admitReplicate(sess *session, req wire.Request) *wire.Response {
	epoch := s.db.Epoch()
	if req.Epoch != epoch {
		return &wire.Response{
			Status: wire.StatusRejected, ID: req.ID,
			Epoch: epoch, Fences: fencesToWire(s.db.Fences()),
			Detail: fmt.Sprintf("epoch mismatch: session negotiated %d, server at %d; redial", req.Epoch, epoch),
		}
	}
	from := max(req.From, 1)
	// Bind the replica's node identity to the session — CURSOR reports on
	// this session are attributed to it. Only configured peers get an
	// identity; an unknown node still replicates (read replicas outside
	// the voting cell are fine) but its reports never count toward
	// quorum. The tracker is NOT seeded here: the cursor in the request
	// carries no vote bar, so the follower's first stamped report — sent
	// the moment the stream opens — is the earliest trustworthy signal.
	node := ""
	if req.Node != "" && s.isPeer(req.Node) {
		node = req.Node
	}
	s.subscribeReplica(sess, from, node)
	return nil
}

// subscribeReplica registers the session as a replica stream from
// 1-based index from, attributed to the given peer node identity (empty
// for non-members). Replicas are infrastructure: always admitted
// (maxSubs 0), never shed, never lag-downgraded — the primary ships
// pages as fast as the replica's socket drains them.
func (s *Server) subscribeReplica(sess *session, from int, node string) {
	s.hub.register(sess, 0)
	sess.mu.Lock()
	sess.subscribed = true
	sess.replica = true
	sess.replNode = node
	sess.cursor = from
	sess.catchup = false
	sess.armed = false
	sess.shed = false
	sess.mu.Unlock()
}

// entriesFromWire converts shipped entries to store entries.
func entriesFromWire(in []wire.Entry) []store.Entry {
	out := make([]store.Entry, len(in))
	for i, e := range in {
		out[i] = store.Entry{User: e.User, Unix: e.Unix, Data: e.Sig}
	}
	return out
}

// entriesToWire converts store entries to wire entries.
func entriesToWire(in []store.Entry) []wire.Entry {
	out := make([]wire.Entry, len(in))
	for i, e := range in {
		out[i] = wire.Entry{User: e.User, Unix: e.Unix, Sig: e.Data}
	}
	return out
}

// fencesFromWire converts a shipped fence history.
func fencesFromWire(in []wire.EpochFence) []store.Fence {
	out := make([]store.Fence, len(in))
	for i, f := range in {
		out[i] = store.Fence{E: f.E, N: f.N}
	}
	return out
}

// fencesToWire converts a fence history for shipping.
func fencesToWire(in []store.Fence) []wire.EpochFence {
	out := make([]wire.EpochFence, len(in))
	for i, f := range in {
		out[i] = wire.EpochFence{E: f.E, N: f.N}
	}
	return out
}
