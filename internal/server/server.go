// Package server implements the Communix server (§III-A/B): it collects
// deadlock signatures uploaded by Communix plugins (ADD), validates them
// server-side (§III-C2: encrypted sender ids, per-user adjacency, daily
// rate limit), and serves incremental downloads to Communix clients
// (GET).
//
// Two entry points exist deliberately: Process invokes the request
// processing routines directly (how the paper's Figure 2 measures the
// server's computations from tens of thousands of simultaneous threads),
// and Serve exposes the same processing over TCP (how Figure 3 measures
// the end-to-end distribution path).
package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"communix/internal/ids"
	"communix/internal/store"
	"communix/internal/wire"
)

// DefaultIngestBatch is a store.AddBatch size for callers that batch
// uploads themselves. Its only remaining use is the store probe of the
// system benchmark (benchmark/layers.go); the server never batches.
const DefaultIngestBatch = 64

// Config parameterizes a Server.
type Config struct {
	// Key is the predefined AES-128 key under which user-id tokens were
	// minted. Required.
	Key []byte
	// MaxPerDay overrides the per-user daily signature budget (default
	// store.DefaultMaxPerDay).
	MaxPerDay int
	// Clock injects time for the rate limiter.
	Clock func() time.Time
	// DataDir makes the signature database durable: accepted signatures
	// are written ahead to a segment log in this directory, and New
	// recovers the directory on startup. Empty keeps the database in
	// memory only — a restart loses every signature ever contributed.
	DataDir string
	// Fsync selects the write-ahead log's fsync policy (store.FsyncBatch
	// by default); meaningful only with DataDir.
	Fsync store.FsyncPolicy
	// GetBatch caps one GET reply (and one PUSH frame) at this many
	// signatures; truncated replies set More and the client pages
	// through Next. 0 means the protocol maximum, wire.MaxGetBatch;
	// larger values are clamped to it.
	GetBatch int
	// PushMaxLag is how many signatures behind a subscribed session
	// may fall before the server downgrades it from PUSH delivery to
	// catch-up GETs (default 4 × GetBatch). Pushing resumes when a GET
	// reply comes back complete.
	PushMaxLag int
	// MaxSessions caps concurrent client sessions. A HELLO past the cap
	// is answered StatusBusy and its connection closed; clients back off
	// or rotate to another server. A HELLO naming a cell member (a peer
	// in Peers, or this node — what communix-inspect -promote sends) is
	// not counted. 0 = unlimited.
	MaxSessions int
	// MaxSubs caps push-admitted subscribers. A SUBSCRIBE past the quota
	// is accepted but shed: the session receives only catch-up markers
	// and drains via paginated GETs, promoting to full push delivery
	// when a slot frees up. 0 = unlimited. Replica sessions (REPLICATE)
	// are infrastructure and never count against it.
	MaxSubs int
	// Follow starts the server as a follower replica of the primary at
	// this address: it opens a session there, REPLICATEs from its own
	// WAL-recovered cursor, applies shipped entries through the store's
	// commit path, and serves GET/SUBSCRIBE to clients while answering
	// ADDs with StatusNotPrimary (carrying this address). Empty = primary.
	Follow string
	// Advertise is the address this server tells clients to upload to
	// when it is (or becomes) the primary — the Primary field of its
	// HELLO replies. Optional; without it clients fall back to trying
	// their peer list.
	Advertise string
	// FollowPing is the follower's keepalive interval on the replication
	// session (default 10s). Followers report their durable cursor at
	// this cadence (plus immediately after each applied page), which is
	// also the primary's liveness signal for quorum acknowledgement.
	// Tests shorten it.
	FollowPing time.Duration
	// AckMode selects the upload acknowledgement contract: AckAsync (the
	// default) answers StatusOK once the entry is durable locally;
	// AckQuorum withholds StatusOK until a majority of the cell (this
	// node plus the Peers) holds the entry durably, degrading to
	// StatusBusy — never silent loss — when the quorum cannot be reached
	// within AckTimeout or the in-flight window is full.
	AckMode AckMode
	// NodeID identifies this server in a replicated cell: the identity a
	// follower's REPLICATE binds to its session (attributing its cursor
	// reports) and candidates stamp on vote requests. It must match the
	// entry for this node in its peers' Peers lists — reports and vote
	// requests under unconfigured names are ignored. Defaults to
	// Advertise.
	NodeID string
	// Peers lists the other members of the replicated cell (their
	// advertised addresses). A non-empty list arms the failure detector
	// and elector: followers that lose contact with the primary past the
	// (jittered) ElectionTimeout solicit epoch-stamped votes and
	// self-promote on a majority; a primary that discovers a peer at a
	// newer epoch steps down and rejoins as a follower. Majority is
	// computed over len(Peers)+1.
	Peers []string
	// PeerDial overrides how this server reaches a cell address — a
	// peer, or the primary it follows (tests and in-process benches dial
	// over pipes). nil uses TCP.
	PeerDial func(addr string) (net.Conn, error)
	// ElectionTimeout is the base failure-detection window: a follower
	// suspects the primary after hearing nothing for a uniformly jittered
	// duration in [ElectionTimeout, 2×ElectionTimeout) — jitter
	// decorrelates candidates so split votes resolve. Default 10s.
	ElectionTimeout time.Duration
	// AckTimeout bounds how long a quorum-mode ADD waits for majority
	// durability before degrading to StatusBusy (default 5s). The entry
	// is committed locally either way; the client's retry is absorbed as
	// a duplicate, so degradation never double-applies.
	AckTimeout time.Duration
	// AckWindow bounds concurrently waiting quorum-mode ADDs; further
	// uploads are answered StatusBusy immediately (default 4096).
	AckWindow int
	// MaxSubsPerUser caps push subscriptions per authenticated user,
	// extending the per-user ADD budgets to the read side. When set,
	// SUBSCRIBE must carry a valid user token and is answered
	// StatusRejected over the quota. 0 = no per-user cap.
	MaxSubsPerUser int
	// Logf, when set, receives operational log lines (follower loop
	// retries, promotions, elections). nil discards them.
	Logf func(format string, args ...any)
}

// AckMode selects the upload acknowledgement contract.
type AckMode int

const (
	// AckAsync acknowledges an ADD once it is durable on the primary;
	// replication to followers is asynchronous (an unfenced tail can be
	// lost on failover — the fence makes that explicit).
	AckAsync AckMode = iota
	// AckQuorum acknowledges an ADD only once a majority of the cell
	// holds it durably, so any elected successor (which needs a majority
	// of votes, granted only to max-cursor candidates) provably holds
	// every acknowledged entry.
	AckQuorum
)

// ParseAckMode maps the -ack flag values to an AckMode.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "", "async":
		return AckAsync, nil
	case "quorum":
		return AckQuorum, nil
	default:
		return 0, fmt.Errorf("unknown ack mode %q (want async or quorum)", s)
	}
}

// Server is a Communix signature server.
type Server struct {
	codec *ids.Codec
	db    *store.Store

	// Session layer: hub tracks subscribed sessions and
	// their push admission, pool is the shared pusher worker pool
	// (GOMAXPROCS workers); getBatch/pushMaxLag/maxSessions/maxSubs are
	// the resolved Config knobs.
	hub         hub
	pool        *pusherPool
	replyBufs   replyBuffers
	getBatch    int
	pushMaxLag  int
	maxSessions int
	maxSubs     int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	sessions int // live sessions, capped by maxSessions
	wg       sync.WaitGroup
	closed   bool

	// Replication role state (replica.go). roleMu guards the fields; the
	// epoch itself lives in the store's persisted metadata.
	roleMu        sync.Mutex
	follower      bool
	primaryAddr   string // the primary's address a follower advertises
	advertise     string // our own address to advertise when primary
	followDial    func() (net.Conn, error)
	followPing    time.Duration
	followStop    chan struct{}
	followStopped bool
	followConn    net.Conn
	roleShutdown  bool // Close ran: no follower loop may be (re)armed
	followWG      sync.WaitGroup
	logf          func(format string, args ...any)

	// Failover plane (elector.go, quorum.go): cell membership, the
	// failure detector's last-contact clock, and the quorum-ACK tracker.
	nodeID          string
	peers           []string
	peerDial        func(addr string) (net.Conn, error)
	electionTimeout time.Duration
	ackMode         AckMode
	ackTimeout      time.Duration
	ackWindow       int
	lastContact     atomic.Int64 // unix nanos of the last frame from the primary
	electStop       chan struct{}
	electWG         sync.WaitGroup
	failoverOff     sync.Once
	quorum          quorumTracker

	maxSubsPerUser int
}

// New builds a server. With cfg.DataDir set it recovers the signature
// database from the directory before serving, so the server resumes the
// exact signature sequence (and per-user validation state) it had before
// the last shutdown or crash.
func New(cfg Config) (*Server, error) {
	codec, err := ids.NewCodec(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	db, err := store.Open(store.Config{
		MaxPerDay: cfg.MaxPerDay,
		Clock:     cfg.Clock,
		DataDir:   cfg.DataDir,
		Fsync:     cfg.Fsync,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		codec: codec,
		db:    db,
		conns: make(map[net.Conn]struct{}),
	}
	s.getBatch = cfg.GetBatch
	if s.getBatch <= 0 || s.getBatch > wire.MaxGetBatch {
		s.getBatch = wire.MaxGetBatch
	}
	s.pushMaxLag = cfg.PushMaxLag
	if s.pushMaxLag <= 0 {
		s.pushMaxLag = 4 * s.getBatch
	}
	if s.pushMaxLag < s.getBatch {
		// A threshold below one page would downgrade every subscriber on
		// every push; the floor keeps the knob safe to misconfigure.
		s.pushMaxLag = s.getBatch
	}
	s.maxSessions = cfg.MaxSessions
	s.maxSubs = cfg.MaxSubs
	s.pool = newPusherPool(s, runtime.GOMAXPROCS(0))
	s.advertise = cfg.Advertise
	s.logf = cfg.Logf
	s.followPing = cfg.FollowPing
	if s.followPing <= 0 {
		s.followPing = 10 * time.Second
	}
	s.nodeID = cfg.NodeID
	if s.nodeID == "" {
		s.nodeID = cfg.Advertise
	}
	s.peers = append([]string(nil), cfg.Peers...)
	s.peerDial = cfg.PeerDial
	s.electionTimeout = cfg.ElectionTimeout
	if s.electionTimeout <= 0 {
		s.electionTimeout = 10 * time.Second
	}
	s.ackMode = cfg.AckMode
	s.ackTimeout = cfg.AckTimeout
	if s.ackTimeout <= 0 {
		s.ackTimeout = 5 * time.Second
	}
	s.ackWindow = cfg.AckWindow
	if s.ackWindow <= 0 {
		s.ackWindow = 4096
	}
	s.maxSubsPerUser = cfg.MaxSubsPerUser
	s.lastContact.Store(time.Now().UnixNano())
	if cfg.Follow != "" {
		s.startFollowing(cfg.Follow)
	}
	if len(s.peers) > 0 {
		s.electStop = make(chan struct{})
		s.electWG.Add(1)
		go s.electorLoop(s.electStop)
	}
	return s, nil
}

// dialTo builds a dialer for one cell address, honoring Config.PeerDial.
func (s *Server) dialTo(addr string) func() (net.Conn, error) {
	if s.peerDial != nil {
		dial := s.peerDial
		return func() (net.Conn, error) { return dial(addr) }
	}
	return func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
}

// Role reports the server's current role name ("primary" or
// "follower") — for operators, benches, and tests polling a failover.
func (s *Server) Role() string { return s.roleName() }

// Store exposes the underlying database (read-mostly, for tests and
// benchmarks).
func (s *Server) Store() *store.Store { return s.db }

// Process handles one ADD, GET, VOTE or PROMOTE — the direct-invocation
// path, and what a session runs for those four. GETs are answered
// inline from the store's lock-free snapshot, paginated at the
// GetBatch/wire.MaxGetBytes caps (truncated replies set More); ADDs
// commit on the calling goroutine, where the store groups concurrent
// commits into one WAL append. Every other type is session state
// (HELLO, SUBSCRIBE, REPLICATE, CURSOR, PING) or unknown, and is
// answered StatusError here.
//
// An accepted ADD keeps no reference to req.Sig: signature bytes that
// are already canonical are stored as a copy, any others re-encoded.
func (s *Server) Process(req wire.Request) wire.Response {
	switch req.Type {
	case wire.MsgAdd:
		if addr, isFollower := s.followerOf(); isFollower {
			return wire.Response{Status: wire.StatusNotPrimary, Primary: addr, Detail: "follower replica: uploads go to the primary"}
		}
		resp := s.processAdd(req)
		if s.ackMode == AckQuorum && resp.Status == wire.StatusOK {
			// Quorum gate: hold the OK until the committed index (carried
			// in Next) is durable on a majority. This blocks only the
			// request's own goroutine and degrades to StatusBusy on
			// timeout, never lying about durability.
			resp = s.awaitQuorum(resp)
		}
		return resp
	case wire.MsgGet:
		sigs, next, more := s.db.GetPage(req.From, s.getBatch, wire.MaxGetBytes)
		return wire.Response{Status: wire.StatusOK, Sigs: sigs, Next: next, More: more}
	case wire.MsgVote:
		return s.handleVote(req)
	case wire.MsgPromote:
		epoch, err := s.Promote()
		if err != nil {
			return wire.Response{Status: wire.StatusError, Detail: err.Error()}
		}
		return wire.Response{Status: wire.StatusOK, Epoch: epoch, Role: rolePrimary}
	default:
		return wire.Response{Status: wire.StatusError, Detail: fmt.Sprintf("unknown message type %d", req.Type)}
	}
}

// processAdd runs the ADD gates — the encrypted sender id must verify
// under the predefined key (§III-C2) — then hands the upload's bytes to
// the store, which decodes them once, and maps the outcome to its
// reply. The frame decoder only delimits req.Sig, so the store's decode
// is its one validation: a sig that is not a valid signature, JSON or
// not, is answered StatusError as malformed. The store groups
// concurrent commits into one WAL append; a closed store refuses the
// commit, which answers StatusError. The store keeps the copy it is
// handed when those bytes are already the canonical encoding, and
// re-encodes any others.
func (s *Server) processAdd(req wire.Request) wire.Response {
	user, err := s.codec.Verify(req.Token)
	if err != nil {
		return wire.Response{Status: wire.StatusRejected, Detail: "invalid user token"}
	}
	// A copy: req.Sig may share its array with the rest of the request
	// frame, which the stored entry must not keep alive.
	res := s.db.AddBatch([]store.Upload{{User: user, Data: bytes.Clone(req.Sig)}})[0]
	if res.Added {
		s.wakeSubscribers()
	}
	return s.addVerdict(res.Added, res.Err, res.Index)
}

// addVerdict maps a store ADD outcome to the wire response. An accepted
// upload whose WAL write failed (the durable store's degraded mode) is
// still answered ok — the signature IS in the database and served by
// GET; StatusError is reserved for malformed requests per
// docs/PROTOCOL.md — with a detail flagging the lost durability for
// operators watching client logs. So is a duplicate of it written in the
// same failed append.
//
// StatusOK replies carry the committed log index in Next — the
// watermark the quorum gate holds the ACK on and the client pins
// read-your-writes against. A duplicate carries its original's index:
// the store answers it only once the original is published, and the
// quorum gate then holds it until the original is on a majority.
func (s *Server) addVerdict(added bool, err error, index int) wire.Response {
	switch {
	case index > 0 && err != nil:
		detail := "accepted; server durability degraded"
		if !added {
			detail = "duplicate; server durability degraded"
		}
		return wire.Response{Status: wire.StatusOK, Next: index, Detail: detail}
	case errors.Is(err, store.ErrMalformed):
		return wire.Response{Status: wire.StatusError, Detail: strings.TrimPrefix(err.Error(), "store: ")}
	case errors.Is(err, store.ErrRateLimited):
		return wire.Response{Status: wire.StatusRejected, Detail: "daily signature limit reached"}
	case errors.Is(err, store.ErrAdjacent):
		return wire.Response{Status: wire.StatusRejected, Detail: "adjacent to a signature you already sent"}
	case err != nil:
		return wire.Response{Status: wire.StatusError, Detail: err.Error()}
	case !added:
		return wire.Response{Status: wire.StatusOK, Next: index, Detail: "duplicate"}
	default:
		return wire.Response{Status: wire.StatusOK, Next: index}
	}
}

// Serve accepts connections on l until Close. Each connection is one
// session opened by HELLO.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close ran first (or concurrently): take responsibility for the
		// listener it never saw and return cleanly.
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr ("host:port") and serves until Close.
// It reports the bound address through the returned channel before
// blocking in the accept loop.
func (s *Server) ListenAndServe(addr string, bound chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	if bound != nil {
		bound <- l.Addr()
	}
	return s.Serve(l)
}

// handle serves one connection. Its first frame must be HELLO, which
// opens the session; any other frame is answered StatusError, echoing
// its ID, and the connection is closed.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	c := wire.NewConn(conn)
	var req wire.Request
	if err := c.Recv(&req); err != nil {
		return // EOF or protocol error: drop the connection
	}
	if req.Type != wire.MsgHello {
		_ = c.Send(wire.Response{Status: wire.StatusError, ID: req.ID,
			Detail: fmt.Sprintf("%s before HELLO: every session opens with HELLO", req.Type)})
		return
	}
	s.serveSession(conn, c, req)
}

// reserveSession claims a session slot against Config.MaxSessions. A
// false return means the cap is reached and the HELLO is answered busy.
func (s *Server) reserveSession() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSessions > 0 && s.sessions >= s.maxSessions {
		return false
	}
	s.sessions++
	return true
}

// releaseSession returns a session slot.
func (s *Server) releaseSession() {
	s.mu.Lock()
	s.sessions--
	s.mu.Unlock()
}

// Close stops the accept loop, closes all connections, waits for handler
// goroutines (and the ADDs they have in flight) to drain, and finally
// flushes and closes the database's write-ahead log. An ADD that reaches
// the store after that is answered StatusError.
func (s *Server) Close() {
	s.failoverOff.Do(func() {
		s.roleMu.Lock()
		s.roleShutdown = true
		s.roleMu.Unlock()
		if s.electStop != nil {
			close(s.electStop)
			s.electWG.Wait()
		}
		s.quorum.closeAll()
	})
	s.stopFollowing()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.listener != nil {
			s.listener.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	// After wg.Wait every session is fully torn down, so no enqueue can
	// race the pool shutdown.
	s.pool.close()
	_ = s.db.Close()
}
