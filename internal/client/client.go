// Package client implements the Communix client (§III-B): the component
// that keeps the local signature repository in sync with the Communix
// server, decoupled from applications so that application startup never
// waits on the network. It also provides the upload path the Communix
// plugin uses to publish freshly detected signatures.
//
// All traffic rides one managed persistent connection (re-dialed
// transparently when it dies): a session opened by HELLO, with
// multiplexed request IDs. By default the client polls at the sync
// interval; in Subscribe mode it SUBSCRIBEs and the server pushes
// signature deltas the moment other users contribute them, cutting
// time-to-protection from poll-interval scale to sub-second, with
// keepalive PINGs and jittered-backoff reconnects keeping the session
// standing.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/sig"
	"communix/internal/wire"
)

// DefaultSyncInterval is how often the client polls the server. The
// paper updates once a day — a higher frequency would overload the
// server (§III-B).
const DefaultSyncInterval = 24 * time.Hour

// DefaultRetryMin is the first retry delay after a failed sync. Retries
// back off exponentially from here up to the sync interval, so a broken
// server is reprobed quickly at first without ever exceeding the
// steady-state polling rate.
const DefaultRetryMin = 30 * time.Second

// DefaultKeepalive is how often a subscribed session PINGs the server;
// a PING that gets no answer within pingTimeout kills the session and
// triggers a reconnect, so a silently dead TCP path is detected within
// roughly one keepalive period.
const DefaultKeepalive = 30 * time.Second

// Timeouts bounding one round trip, so that neither Close — which waits
// for in-flight work — nor the plugin's synchronous Upload can hang on
// an unreachable or wedged server. dialTimeout applies to the default
// dialer only (a custom Config.Dial manages its own); syncIOTimeout
// bounds each request/response exchange on the managed session;
// pingTimeout bounds a keepalive round trip.
const (
	dialTimeout   = 30 * time.Second
	syncIOTimeout = 2 * time.Minute
	pingTimeout   = 30 * time.Second
)

// Config parameterizes a Client.
type Config struct {
	// Addr is the server's TCP address ("host:port"). Ignored when Dial
	// is set.
	Addr string
	// Dial overrides connection establishment (tests, in-process
	// servers).
	Dial func() (net.Conn, error)
	// Repo is the local repository downloads land in. Required.
	Repo *repo.Repo
	// Token is the user's encrypted id, attached to uploads.
	Token ids.Token
	// SyncInterval overrides DefaultSyncInterval, the polling cadence
	// (without Subscribe) and the cap on reconnect backoff.
	SyncInterval time.Duration
	// RetryMin overrides DefaultRetryMin, the starting delay of the
	// exponential backoff applied after consecutive sync failures (and,
	// in Subscribe mode, after session drops). It is capped at
	// SyncInterval.
	RetryMin time.Duration
	// OnSync, if set, is called after every periodic sync attempt (and,
	// in Subscribe mode, after failed connection/subscription attempts).
	OnSync func(added int, err error)
	// Subscribe switches Start from periodic polling to push delivery:
	// the client holds one session open, SUBSCRIBEs, and appends pushed
	// signature deltas to the repository as they arrive. Keepalive PINGs
	// detect dead sessions; reconnects use the jittered RetryMin
	// backoff.
	Subscribe bool
	// OnSignatures, if set, observes every batch of signatures the
	// background loop lands in the repository — pushed deltas in
	// Subscribe mode, poll results otherwise. It runs on the client's
	// background goroutine and may do real work (e.g. agent validation)
	// without stalling push reception.
	OnSignatures func(added int)
	// Keepalive overrides DefaultKeepalive (Subscribe mode).
	Keepalive time.Duration
	// Peers lists additional server addresses (a replicated deployment's
	// followers and primary). Reads — syncs and subscriptions — rotate
	// across Addr/Dial plus every peer: a dead server costs one failed
	// dial and the client moves on, so read availability survives any
	// single server. Uploads landing on a follower are forwarded to the
	// primary its StatusNotPrimary reply advertises.
	Peers []string
	// PeerDial overrides the peer dialers (tests and in-process fleets):
	// one dialer per peer, used instead of TCP dials to Peers.
	PeerDial []func() (net.Conn, error)
	// DialAddr dials an advertised address — the upload path uses it to
	// reach the primary a follower redirected to. Defaults to TCP; tests
	// override it to map advertised names onto in-process pipes.
	DialAddr func(addr string) (net.Conn, error)
}

// Client syncs a local repository against a Communix server.
type Client struct {
	cfg Config

	mu      sync.Mutex
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup

	// sess is the managed connection, dialed lazily and re-dialed when
	// it dies; nil when no live session is cached. sessClosed (set by
	// Close under sessMu, checked by getSession under the same lock)
	// guarantees no session can be dialed-and-cached after Close tore
	// the cached one down — a later dial would leak its connection and
	// reader goroutine with nobody left to close them.
	sessMu     sync.Mutex
	sess       *session
	sessClosed bool
	// dialers is the read-path rotation (Addr/Dial first, then Peers);
	// dialIdx is the rotation's sticky start — the last dialer that
	// produced a working session — advanced only when that peer fails,
	// so a healthy deployment keeps each client pinned to one server.
	dialers []func() (net.Conn, error)
	dialIdx int

	// Upload-redirect state: one managed session to the primary a
	// follower's StatusNotPrimary advertised, dialed lazily and re-dialed
	// when the advertised address changes or the session dies.
	leaderMu   sync.Mutex
	leaderSess *session
	leaderAddr string

	// Push delivery state: the session reader accumulates under pushMu
	// and nudges pushNotify (cap 1); the subscribe loop drains and runs
	// the user-visible work, keeping the reader fast.
	pushMu      sync.Mutex
	pushAdded   int
	pushCatchup bool
	pushNotify  chan struct{}

	// Read-your-writes pin: after a forwarded upload the primary's OK
	// carries the committed log index (Next); until the repository's
	// cursor passes it, reads route to that primary instead of the
	// (possibly lagging) rotated follower, so a client never fails to
	// see its own accepted signature.
	pinMu   sync.Mutex
	pinIdx  int
	pinAddr string
}

// New builds a client.
func New(cfg Config) (*Client, error) {
	if cfg.Repo == nil {
		return nil, errors.New("client: Repo is required")
	}
	if cfg.Dial == nil {
		if cfg.Addr == "" {
			return nil, errors.New("client: Addr or Dial is required")
		}
		addr := cfg.Addr
		cfg.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) }
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = DefaultRetryMin
	}
	if cfg.RetryMin > cfg.SyncInterval {
		cfg.RetryMin = cfg.SyncInterval
	}
	if cfg.Keepalive <= 0 {
		cfg.Keepalive = DefaultKeepalive
	}
	if cfg.DialAddr == nil {
		cfg.DialAddr = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) }
	}
	c := &Client{cfg: cfg, done: make(chan struct{}), pushNotify: make(chan struct{}, 1)}
	c.dialers = append(c.dialers, cfg.Dial)
	c.dialers = append(c.dialers, cfg.PeerDial...)
	for _, addr := range cfg.Peers {
		addr := addr
		c.dialers = append(c.dialers, func() (net.Conn, error) { return cfg.DialAddr(addr) })
	}
	return c, nil
}

// getSession returns the cached managed session, dialing (and running
// the HELLO handshake) when there is none or the cached one died.
func (c *Client) getSession() (*session, error) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.sessClosed {
		// Refuse to dial after Close: a fresh session would outlive the
		// client with nobody left to tear it down. Dialing holds sessMu,
		// so a dial already in flight completes and caches before Close
		// can mark the client closed — and is then torn down by it.
		return nil, errors.New("client: closed")
	}
	if c.sess != nil && c.sess.alive() {
		return c.sess, nil
	}
	if c.sess != nil {
		c.sess.close()
		c.sess = nil
	}
	// Rotate across the peer set starting from the sticky index: the
	// peer that last worked is retried first, and a failure (dial error,
	// a refused or busy HELLO, or a server fenced out as stale) moves on
	// to the next. If no peer admits us, a busy refusal outranks other
	// errors whatever the rotation order, so Upload backs off and retries
	// instead of failing on a dead peer listed after a busy one.
	var lastErr error
	n := len(c.dialers)
	for i := 0; i < n; i++ {
		idx := (c.dialIdx + i) % n
		s, err := dialSession(c.dialers[idx], c.handlePush, c.cfg.Repo.Epoch())
		if err != nil {
			if !errors.Is(lastErr, errServerBusy) {
				lastErr = err
			}
			continue
		}
		if err := c.adoptSession(s); err != nil {
			s.close()
			if !errors.Is(lastErr, errServerBusy) {
				lastErr = err
			}
			continue
		}
		c.dialIdx = idx
		c.sess = s
		return s, nil
	}
	return nil, lastErr
}

// adoptSession runs the client side of epoch fencing on a fresh
// session (docs/PROTOCOL.md, "Epochs and fencing"). A server whose
// epoch is behind the repository's is a stale primary that came back
// after a failover — reading from it could serve a divergent tail, so
// it is refused and the rotation moves on. A server ahead of us means
// we missed promotions: the repository survives iff its length is at
// or below the fence (the minimum log length promoted over the missed
// epochs); past it, the repository resets and re-downloads from 1.
func (c *Client) adoptSession(s *session) error {
	repoEpoch := c.cfg.Repo.Epoch()
	switch {
	case s.epoch == repoEpoch:
		return nil
	case s.epoch < repoEpoch:
		return fmt.Errorf("client: server at stale epoch %d, repository already at %d", s.epoch, repoEpoch)
	}
	if c.cfg.Repo.Len() > s.fence {
		return c.cfg.Repo.Reset(s.epoch)
	}
	return c.cfg.Repo.SetEpoch(s.epoch)
}

// invalidate discards a dead session (if it is still the cached one).
func (c *Client) invalidate(s *session) {
	c.sessMu.Lock()
	if c.sess == s {
		c.sess = nil
	}
	c.sessMu.Unlock()
	s.close()
}

// failCachedSession kills whatever session is currently cached with
// err, forcing the next operation (and the subscribe loop) to
// reconnect. Safe to call from a session's own reader goroutine.
func (c *Client) failCachedSession(err error) {
	c.sessMu.Lock()
	s := c.sess
	c.sess = nil
	c.sessMu.Unlock()
	if s != nil {
		s.fail(err)
	}
}

// closeSession (Close only) drops whatever session is cached,
// unblocking any round trips in flight on it, and bars future dials.
func (c *Client) closeSession() {
	c.sessMu.Lock()
	c.sessClosed = true
	s := c.sess
	c.sess = nil
	c.sessMu.Unlock()
	if s != nil {
		s.close()
	}
}

// A pick returns the session a round trip should run on, and how to
// discard that session if the round trip fails on it.
type pick func() (*session, func(*session), error)

// rotated picks the read rotation's managed session.
func (c *Client) rotated() (*session, func(*session), error) {
	s, err := c.getSession()
	return s, c.invalidate, err
}

// leader picks the managed session to the primary at addr.
func (c *Client) leader(addr string) pick {
	return func() (*session, func(*session), error) {
		s, err := c.leaderSession(addr)
		return s, c.invalidateLeader, err
	}
}

// reader picks where reads go: the pinned primary while a
// read-your-writes pin is live, the rotation otherwise — and also when
// the pinned primary is unreachable, because availability beats the pin
// mid-failover.
func (c *Client) reader() (*session, func(*session), error) {
	if pinned := c.readPin(); pinned != "" {
		if s, err := c.leaderSession(pinned); err == nil {
			return s, c.invalidateLeader, nil
		}
	}
	return c.rotated()
}

// do performs one round trip on the session p picks. A transport error
// on the first attempt discards that session and retries once on a
// freshly picked one: the common cause is a connection that idled long
// enough (hours between polls) for the far side or a middlebox to drop
// it silently. Requests are idempotent (ADD answers "duplicate", GET is
// a read), so the retry is always safe.
//
// req builds the request only after the session is established:
// establishing it runs epoch adoption, which may reset the repository
// and rewind the cursor (a fenced failover). A GET(from) built before
// the dial would capture the stale pre-reset cursor — the sync would
// skip the re-download entirely and strand the repository empty with
// its cursor past the new primary's log.
func (c *Client) do(p pick, req func() wire.Request) (wire.Response, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		s, discard, err := p()
		if err != nil {
			return wire.Response{}, err
		}
		resp, err := s.roundTrip(req(), syncIOTimeout)
		if err == nil {
			return resp, nil
		}
		discard(s)
		lastErr = err
	}
	return wire.Response{}, lastErr
}

// setReadPin records a committed upload index: reads stick to the
// primary at addr until the repository's cursor passes it.
func (c *Client) setReadPin(idx int, addr string) {
	c.pinMu.Lock()
	if idx > c.pinIdx {
		c.pinIdx, c.pinAddr = idx, addr
	}
	c.pinMu.Unlock()
}

// readPin returns the primary address reads are currently pinned to, or
// "" once the repository has caught up past the pinned index (the pin
// clears itself).
func (c *Client) readPin() string {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	if c.pinIdx == 0 {
		return ""
	}
	if c.cfg.Repo.Next() > c.pinIdx {
		c.pinIdx, c.pinAddr = 0, ""
		return ""
	}
	return c.pinAddr
}

// SyncOnce performs one incremental download: GET(next) where next is
// the repository's server cursor, paging through truncated replies until
// the server reports the database drained. It returns how many
// signatures arrived.
func (c *Client) SyncOnce() (int, error) {
	added := 0
	get := func() wire.Request { return wire.NewGet(c.cfg.Repo.Next()) }
	for {
		resp, err := c.do(c.reader, get)
		if err != nil {
			return added, fmt.Errorf("client: sync: %w", err)
		}
		if resp.Status != wire.StatusOK {
			return added, fmt.Errorf("client: sync: server said %s: %s", resp.Status, resp.Detail)
		}
		before := c.cfg.Repo.Len()
		if err := c.cfg.Repo.AppendDecoded(resp.Sigs, resp.DecodedSigs(), resp.Next); err != nil {
			return added, fmt.Errorf("client: sync: %w", err)
		}
		added += c.cfg.Repo.Len() - before
		if !resp.More {
			return added, nil
		}
	}
}

// uploadBusyRetries is how many times Upload retries a StatusBusy
// verdict (a quorum not yet reached, or a HELLO refused at the session
// cap) before giving up.
const uploadBusyRetries = 3

// Upload publishes one signature to the server with the client's
// encrypted user id — the Communix plugin calls this right after
// Dimmunix produces a signature (§III-B). The server's verdict is
// returned: nil for accepted (or duplicate), an error describing the
// rejection otherwise. A busy server (quorum not yet reached) is retried a
// few times with short backoff on the same managed connection — an
// overloaded server is the one peer that must not be greeted with extra
// dial/teardown cycles per attempt. A server refusing the session
// itself as busy gets the same backoff and budget. Signatures are rare
// and small, so losing one to sustained overload only delays, and never
// prevents, collective immunity — some other user's upload will carry
// the same deadlock.
func (c *Client) Upload(s *sig.Signature) error {
	req, err := wire.NewAdd(c.cfg.Token, s)
	if err != nil {
		return fmt.Errorf("client: upload: %w", err)
	}
	add := func() wire.Request { return req }
	backoff := 10 * time.Millisecond
	leaderAddr := "" // set once a follower redirects us to the primary
	redirects := 0
	for attempt := 0; ; attempt++ {
		p := c.rotated
		if leaderAddr != "" {
			p = c.leader(leaderAddr)
		}
		resp, err := c.do(p, add)
		if errors.Is(err, errServerBusy) {
			resp, err = wire.Response{Status: wire.StatusBusy, Detail: err.Error()}, nil
		}
		if err != nil {
			if leaderAddr == "" {
				return fmt.Errorf("client: upload: %w", err)
			}
			// The advertised primary is unreachable — likely mid-failover.
			// Fall back to the rotation, whose followers will redirect to
			// whoever was elected; the redirect budget bounds the loop.
			if redirects++; redirects > 3 {
				return fmt.Errorf("client: upload: advertised primary unreachable: %w", err)
			}
			leaderAddr = ""
			continue
		}
		switch {
		case resp.Status == wire.StatusOK:
			if leaderAddr != "" && resp.Next > 0 {
				// Read-your-writes: our upload is committed at index Next
				// on this primary; pin reads there until the rotated
				// follower catches up past it.
				c.setReadPin(resp.Next, leaderAddr)
			}
			return nil
		case resp.Status == wire.StatusNotPrimary:
			// The upload reached a follower: forward to the primary it
			// advertises. Bounded hops guard against a redirect cycle of
			// stale advertisements mid-failover.
			if resp.Primary == "" {
				return fmt.Errorf("client: upload: follower knows no primary: %s", resp.Detail)
			}
			if redirects++; redirects > 3 {
				return fmt.Errorf("client: upload: primary redirect loop via %s", resp.Primary)
			}
			leaderAddr = resp.Primary
		case resp.Status == wire.StatusBusy && attempt < uploadBusyRetries:
			time.Sleep(backoff)
			backoff *= 2
		case resp.Status == wire.StatusBusy:
			// Keep overload distinguishable from a validation rejection:
			// callers may reasonably retry the former later, never the
			// latter.
			return fmt.Errorf("client: upload: server busy after %d retries: %s", uploadBusyRetries, resp.Detail)
		default:
			return fmt.Errorf("client: upload rejected: %s", resp.Detail)
		}
	}
}

// leaderSession returns the managed session to the advertised primary,
// dialing when none is cached, the cached one died, or the advertised
// address changed (a new promotion). Reuses the read path's closed
// gate: after Close no leader session can be created either.
func (c *Client) leaderSession(addr string) (*session, error) {
	c.sessMu.Lock()
	closed := c.sessClosed
	c.sessMu.Unlock()
	if closed {
		return nil, errors.New("client: closed")
	}
	c.leaderMu.Lock()
	defer c.leaderMu.Unlock()
	if c.leaderSess != nil && c.leaderAddr == addr && c.leaderSess.alive() {
		return c.leaderSess, nil
	}
	if c.leaderSess != nil {
		c.leaderSess.close()
		c.leaderSess = nil
	}
	s, err := dialSession(func() (net.Conn, error) { return c.cfg.DialAddr(addr) }, nil, c.cfg.Repo.Epoch())
	if err != nil {
		return nil, err
	}
	if s.epoch < c.cfg.Repo.Epoch() {
		// A stale ex-primary still advertising itself: uploads committed
		// there would be fenced away. Refuse.
		s.close()
		return nil, fmt.Errorf("client: advertised primary %s is at stale epoch %d", addr, s.epoch)
	}
	c.leaderSess = s
	c.leaderAddr = addr
	return s, nil
}

// invalidateLeader discards a dead leader session (if still cached).
func (c *Client) invalidateLeader(s *session) {
	c.leaderMu.Lock()
	if c.leaderSess == s {
		c.leaderSess = nil
	}
	c.leaderMu.Unlock()
	s.close()
}

// Start launches the background distribution loop: push delivery when
// Config.Subscribe is set (SUBSCRIBE + server pushes + keepalives, with
// automatic reconnect), periodic polling otherwise. Either way the
// repository starts filling immediately — a fresh node should not wait a
// full (default 24h!) interval before it ever hears about the
// community's signatures. Stop with Close.
func (c *Client) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.wg.Add(1)
	go c.loop()
}

func (c *Client) loop() {
	defer c.wg.Done()
	if c.cfg.Subscribe {
		c.subscribeLoop()
		return
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	for {
		// A Close racing Start should not have to wait out a sync against
		// a slow server.
		select {
		case <-c.done:
			return
		default:
		}
		if !c.pollCycle(rng, &failures) {
			return
		}
	}
}

// pollCycle performs one poll — SyncOnce, callbacks, failure
// accounting — then sleeps the jittered cadence. It returns false when
// Close fired during the sleep.
func (c *Client) pollCycle(rng *rand.Rand, failures *int) bool {
	added, err := c.SyncOnce()
	c.notifySync(added, err)
	if added > 0 && c.cfg.OnSignatures != nil {
		c.cfg.OnSignatures(added)
	}
	if err != nil {
		*failures++
	} else {
		*failures = 0
	}
	return c.sleep(c.nextDelay(*failures, rng.Float64()))
}

// sleep waits d, returning false when Close fired first.
func (c *Client) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-c.done:
		return false
	}
}

// subscribeLoop keeps a subscription standing: establish a session,
// SUBSCRIBE, service pushes and keepalives until the session dies, then
// reconnect with the jittered failure backoff.
func (c *Client) subscribeLoop() {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	for {
		select {
		case <-c.done:
			return
		default:
		}
		s, err := c.getSession()
		if err == nil {
			if err = c.runSubscription(s); err == nil {
				return // Close fired
			}
			c.invalidate(s)
		}
		c.notifySync(0, err)
		failures++
		if !c.sleep(c.nextDelay(failures, rng.Float64())) {
			return
		}
	}
}

// runSubscription drives one live subscription: SUBSCRIBE from the
// repository's cursor, then service pushed deltas, catch-up downgrades,
// and keepalives until Close (returns nil) or the session dies (returns
// why).
func (c *Client) runSubscription(s *session) error {
	// The token rides along for servers enforcing per-user subscription
	// quotas; servers without the quota ignore it.
	resp, err := s.roundTrip(wire.NewSubscribeUser(0, c.cfg.Repo.Next(), c.cfg.Token), syncIOTimeout)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("client: subscribe: server said %s: %s", resp.Status, resp.Detail)
	}
	keepalive := time.NewTicker(c.cfg.Keepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-c.done:
			return nil
		case <-s.done:
			return s.failErr()
		case <-c.pushNotify:
			added, catchup := c.takePush()
			if added > 0 && c.cfg.OnSignatures != nil {
				c.cfg.OnSignatures(added)
			}
			if catchup {
				// The server downgraded us (we lagged past its push
				// threshold): drain via paginated GETs. A complete GET
				// reply re-arms pushing server-side.
				added, err := c.SyncOnce()
				if added > 0 && c.cfg.OnSignatures != nil {
					c.cfg.OnSignatures(added)
				}
				if err != nil {
					return err
				}
			}
		case <-keepalive.C:
			if _, err := s.roundTrip(wire.NewPing(0), pingTimeout); err != nil {
				return err
			}
		}
	}
}

// handlePush runs on the session reader goroutine for every
// server-initiated frame: append the delta to the repository (cheap,
// idempotent) and hand the user-visible work to the subscribe loop.
func (c *Client) handlePush(resp wire.Response) {
	if resp.Type != wire.MsgPush || resp.Status != wire.StatusOK {
		return
	}
	added := 0
	if len(resp.Sigs) > 0 {
		before := c.cfg.Repo.Len()
		if err := c.cfg.Repo.AppendDecoded(resp.Sigs, resp.DecodedSigs(), resp.Next); err != nil {
			// A dropped page must not be silent: the server's push
			// cursor has already moved past it, so the only safe
			// recovery is killing the session — the reconnect
			// re-SUBSCRIBEs from the repository's true cursor and the
			// page is re-delivered.
			c.failCachedSession(fmt.Errorf("client: push append: %w", err))
			return
		}
		added = c.cfg.Repo.Len() - before
	}
	c.pushMu.Lock()
	c.pushAdded += added
	if resp.More {
		c.pushCatchup = true
	}
	c.pushMu.Unlock()
	if added > 0 || resp.More {
		select {
		case c.pushNotify <- struct{}{}:
		default:
		}
	}
}

// takePush drains the accumulated push state.
func (c *Client) takePush() (added int, catchup bool) {
	c.pushMu.Lock()
	added, catchup = c.pushAdded, c.pushCatchup
	c.pushAdded, c.pushCatchup = 0, false
	c.pushMu.Unlock()
	return added, catchup
}

func (c *Client) notifySync(added int, err error) {
	if c.cfg.OnSync != nil {
		c.cfg.OnSync(added, err)
	}
}

// nextDelay computes the wait before the next sync attempt: the sync
// interval in steady state, or an exponential backoff from RetryMin
// (doubling per consecutive failure, capped at the interval) after
// errors. Either way a ±10% jitter — driven by jit in [0,1) — keeps a
// fleet of clients that started in sync (say, after a server restart)
// from polling in lockstep.
func (c *Client) nextDelay(failures int, jit float64) time.Duration {
	d := c.cfg.SyncInterval
	if failures > 0 {
		d = c.cfg.RetryMin
		for i := 1; i < failures && d < c.cfg.SyncInterval; i++ {
			d *= 2
		}
		if d > c.cfg.SyncInterval {
			d = c.cfg.SyncInterval
		}
	}
	// Scale into [0.9, 1.1).
	d = time.Duration(float64(d) * (0.9 + 0.2*jit))
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Close stops the background loop, tears the managed session down
// (failing any round trips in flight on it immediately), and waits for
// everything to exit.
func (c *Client) Close() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.done)
	}
	c.mu.Unlock()
	c.closeSession()
	c.leaderMu.Lock()
	ls := c.leaderSess
	c.leaderSess = nil
	c.leaderMu.Unlock()
	if ls != nil {
		ls.close()
	}
	c.wg.Wait()
}
