// Package client implements the Communix client (§III-B): the component
// that keeps the local signature repository in sync with the Communix
// server, decoupled from applications so that application startup never
// waits on the network. It also provides the upload path the Communix
// plugin uses to publish freshly detected signatures.
//
// Traffic rides managed persistent sessions (re-dialed transparently
// when they die), each opened by HELLO with multiplexed request IDs: one
// rotated across the configured servers, and one to the primary a
// follower redirected an upload to. One background loop keeps the
// repository in sync: by default each cycle polls and sleeps the sync
// interval; in Subscribe mode each cycle SUBSCRIBEs and the server pushes
// signature deltas the moment other users contribute them, cutting
// time-to-protection from poll-interval scale to sub-second, with
// keepalive PINGs and jittered-backoff reconnects keeping the session
// standing.
package client

import (
	"errors"
	"fmt"
	"math/rand/v2"
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

// ErrRejected marks an upload the server refused outright (a rejected
// or error reply): retrying the same upload cannot succeed, unlike a
// dead peer or a busy server.
var ErrRejected = errors.New("client: upload rejected")

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
	// exponential backoff applied after consecutive failed polls or
	// subscription attempts; a subscription the server acknowledged is
	// re-established RetryMin after it drops. It is capped at
	// SyncInterval.
	RetryMin time.Duration
	// OnSync, if set, is called after every poll (and, in Subscribe
	// mode, after every subscription that ends in an error).
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

	// rotation is the read path's managed session, dialed across
	// dialers (Addr/Dial first, then Peers). dialIdx, guarded by
	// rotation's lock, is the rotation's sticky start — the last dialer
	// that produced a working session — advanced only when that peer
	// fails, so a healthy deployment keeps each client pinned to one
	// server.
	rotation managed
	dialers  []func() (net.Conn, error)
	dialIdx  int

	// primary is the managed session to the primary a follower's
	// StatusNotPrimary advertised (or a read-your-writes pin names),
	// re-dialed when the address changes or the session dies.
	primary managed

	// Push delivery state: the session reader accumulates under pushMu
	// and nudges pushNotify (cap 1); the background loop drains and runs
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

// dialRotation opens the read rotation's session: it tries each peer
// from the sticky index, so the peer that last worked is retried first,
// and a failure (dial error, a refused or busy HELLO, or a server fenced
// out as stale) moves on to the next. If no peer admits us, a busy
// refusal outranks other errors whatever the rotation order, so Upload
// backs off and retries instead of failing on a dead peer listed after
// a busy one. It runs under the rotation's lock (managed.get).
func (c *Client) dialRotation(string) (*session, error) {
	var lastErr error
	n := len(c.dialers)
	for i := 0; i < n; i++ {
		idx := (c.dialIdx + i) % n
		s, err := dialSession(c.dialers[idx], c.handlePush, c.cfg.Repo.Epoch())
		if err == nil {
			if err = c.adoptSession(s); err == nil {
				c.dialIdx = idx
				return s, nil
			}
			s.close()
		}
		if !errors.Is(lastErr, errServerBusy) {
			lastErr = err
		}
	}
	return nil, lastErr
}

// adoptSession runs the client side of epoch fencing on a fresh
// session (docs/PROTOCOL.md, "Epochs and fencing"). A server whose
// epoch is behind the repository's is a stale primary that came back
// after a failover — reading from it could serve a divergent tail, so
// it is refused and the rotation moves on. A server ahead of us means
// we missed promotions: the repository survives iff what it has read
// of the server's log — up to its cursor, Next()-1, which also counts
// entries it skipped as invalid — is at or below the fence (the minimum
// log length promoted over the missed epochs); past it, the repository
// resets and re-downloads from 1.
func (c *Client) adoptSession(s *session) error {
	repoEpoch := c.cfg.Repo.Epoch()
	switch {
	case s.epoch == repoEpoch:
		return nil
	case s.epoch < repoEpoch:
		return fmt.Errorf("client: server at stale epoch %d, repository already at %d", s.epoch, repoEpoch)
	}
	if c.cfg.Repo.Next()-1 > s.fence {
		return c.cfg.Repo.Reset(s.epoch)
	}
	return c.cfg.Repo.SetEpoch(s.epoch)
}

// dialPrimary opens a session to the primary a follower advertised (or
// a read pin names) at addr. A stale ex-primary still advertising itself
// is refused: uploads committed there would be fenced away.
func (c *Client) dialPrimary(addr string) (*session, error) {
	s, err := dialSession(func() (net.Conn, error) { return c.cfg.DialAddr(addr) }, nil, c.cfg.Repo.Epoch())
	if err != nil {
		return nil, err
	}
	if s.epoch < c.cfg.Repo.Epoch() {
		s.close()
		return nil, fmt.Errorf("client: advertised primary %s is at stale epoch %d", addr, s.epoch)
	}
	return s, nil
}

// A pick returns the session a round trip should run on and the
// managed session that discards it if the round trip fails on it.
type pick func() (*managed, *session, error)

// rotated picks the read rotation's session.
func (c *Client) rotated() (*managed, *session, error) {
	s, err := c.rotation.get("", c.dialRotation)
	return &c.rotation, s, err
}

// leader picks the session to the primary at addr.
func (c *Client) leader(addr string) pick {
	return func() (*managed, *session, error) {
		s, err := c.primary.get(addr, c.dialPrimary)
		return &c.primary, s, err
	}
}

// reader picks where reads go: the pinned primary while a
// read-your-writes pin is live, the rotation otherwise — and also when
// the pinned primary is unreachable, because availability beats the pin
// mid-failover.
func (c *Client) reader() (*managed, *session, error) {
	if pinned := c.readPin(); pinned != "" {
		if m, s, err := c.leader(pinned)(); err == nil {
			return m, s, nil
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
		m, s, err := p()
		if err != nil {
			return wire.Response{}, err
		}
		resp, err := s.roundTrip(req(), syncIOTimeout)
		if err == nil {
			return resp, nil
		}
		m.discard(s)
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
// returned: nil for accepted (or duplicate), an error wrapping
// ErrRejected for a refusal, another error otherwise. A busy server
// (quorum not yet reached) is retried a few times with short backoff on
// the same managed connection — an overloaded server is the one peer
// that must not be greeted with extra dial/teardown cycles per attempt.
// A server refusing the session itself as busy gets the same backoff
// and budget. Signatures are rare and small, so losing one to sustained
// overload only delays, and never prevents, collective immunity — some
// other user's upload will carry the same deadlock.
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
			return fmt.Errorf("%w: %s", ErrRejected, resp.Detail)
		}
	}
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

// loop is the background loop. Each cycle is one poll (SyncOnce, then
// the callbacks) or, in Subscribe mode, one subscription, followed by a
// jittered sleep: the sync interval after a successful poll, RetryMin
// after a subscription the server acknowledged and later dropped (the
// acknowledgement resets the failure count), and the doubling backoff
// after consecutive failures.
func (c *Client) loop() {
	defer c.wg.Done()
	failures := 0
	for {
		// A Close racing Start should not have to wait out a sync against
		// a slow server.
		select {
		case <-c.done:
			return
		default:
		}
		added, err := 0, error(nil)
		if c.cfg.Subscribe {
			var acked bool
			if acked, err = c.subscription(); err == nil {
				return // Close fired
			}
			if acked {
				failures = 0
			}
		} else {
			added, err = c.SyncOnce()
		}
		c.notifySync(added, err)
		c.landed(added)
		if err != nil {
			failures++
		} else {
			failures = 0
		}
		// The jitter comes from the shared generator: a client keeps no
		// source of its own.
		if !c.sleep(c.nextDelay(failures, rand.Float64())) {
			return
		}
	}
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

// subscription drives one subscription on the rotation's session:
// SUBSCRIBE from the repository's cursor, then service pushed deltas,
// catch-up markers and keepalives until Close (returns nil) or the
// session dies (returns why, after discarding it). acked reports whether
// the server accepted the SUBSCRIBE.
func (c *Client) subscription() (acked bool, err error) {
	m, s, err := c.rotated()
	if err != nil {
		return false, err
	}
	defer func() {
		if err != nil {
			m.discard(s)
		}
	}()
	// The token rides along for servers enforcing per-user subscription
	// quotas; servers without the quota ignore it.
	resp, err := s.roundTrip(wire.NewSubscribeUser(0, c.cfg.Repo.Next(), c.cfg.Token), syncIOTimeout)
	if err != nil {
		return false, err
	}
	if resp.Status != wire.StatusOK {
		return false, fmt.Errorf("client: subscribe: server said %s: %s", resp.Status, resp.Detail)
	}
	keepalive := time.NewTicker(c.cfg.Keepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-c.done:
			return true, nil
		case <-s.done:
			return true, s.failErr()
		case <-c.pushNotify:
			added, catchup := c.takePush()
			c.landed(added)
			if catchup {
				// The server downgraded us (we lagged past its push
				// threshold): drain via paginated GETs. A complete GET
				// reply re-arms pushing server-side.
				added, err := c.SyncOnce()
				c.landed(added)
				if err != nil {
					return true, err
				}
			}
		case <-keepalive.C:
			if _, err := s.roundTrip(wire.NewPing(0), pingTimeout); err != nil {
				return true, err
			}
		}
	}
}

// handlePush runs on the session reader goroutine for every
// server-initiated frame: append the delta to the repository (cheap,
// idempotent) and hand the user-visible work to the background loop.
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
			c.rotation.fail(fmt.Errorf("client: push append: %w", err))
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

// landed hands a batch the background loop landed in the repository to
// OnSignatures.
func (c *Client) landed(added int) {
	if added > 0 && c.cfg.OnSignatures != nil {
		c.cfg.OnSignatures(added)
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

// Close stops the background loop, tears both managed sessions down
// (failing any round trips in flight on them immediately), and waits for
// everything to exit.
func (c *Client) Close() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.done)
	}
	c.mu.Unlock()
	c.rotation.close()
	c.primary.close()
	c.wg.Wait()
}
