package server

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"communix/internal/client"
	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// Chaos harness: scripted kill/partition/restart schedules against
// replicated cells with the elector armed, asserting the failover
// contract end to end — acknowledged uploads survive any single-node
// failure exactly once, a minority partition never advances the epoch,
// and every displaced node heals back into the cell without operator
// action.

// startCellNode starts a server on a pre-reserved listener, so cell
// members can know each other's addresses before any of them exists.
func startCellNode(t *testing.T, cfg Config, l net.Listener) *node {
	t.Helper()
	cfg.Key = testKey
	if cfg.FollowPing == 0 {
		cfg.FollowPing = 25 * time.Millisecond
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return &node{srv: srv, addr: l.Addr().String(), stop: stop}
}

// cellListeners reserves n TCP listeners and returns them with their
// addresses.
func cellListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	ls := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	return ls, addrs
}

// chaosUpload uploads s through the real client until some cell member
// acknowledges it: the client rotates past dead members and chases
// NotPrimary redirects; transient failures (a dead peer, a busy or
// mid-election cell) are retried here until the deadline, and a
// rejection fails the test at once.
func chaosUpload(t *testing.T, c *client.Client, s *sig.Signature, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := c.Upload(s)
		switch {
		case err == nil:
			return
		case errors.Is(err, client.ErrRejected):
			t.Fatalf("upload rejected: %v", err)
		case time.Now().After(deadline):
			t.Fatalf("upload never acknowledged: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosProxy is a TCP forwarder with a cut switch: while cut, new
// connections are refused and live ones severed — a link partition,
// not a process death.
type chaosProxy struct {
	l      net.Listener
	target string
	mu     sync.Mutex
	cut    bool
	conns  map[net.Conn]struct{}
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{l: l, target: target, conns: map[net.Conn]struct{}{}}
	go p.accept()
	t.Cleanup(func() {
		l.Close()
		p.setCut(true)
	})
	return p
}

func (p *chaosProxy) addr() string { return p.l.Addr().String() }

func (p *chaosProxy) accept() {
	for {
		conn, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		cut := p.cut
		p.mu.Unlock()
		if cut {
			conn.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		p.conns[conn] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		go func() { _, _ = io.Copy(up, conn); up.Close(); conn.Close() }()
		go func() { _, _ = io.Copy(conn, up); conn.Close(); up.Close() }()
	}
}

func (p *chaosProxy) setCut(cut bool) {
	p.mu.Lock()
	p.cut = cut
	var victims []net.Conn
	if cut {
		for c := range p.conns {
			victims = append(victims, c)
		}
		p.conns = map[net.Conn]struct{}{}
	}
	p.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// waitRole polls until the server reports the wanted role.
func waitRole(t *testing.T, srv *Server, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for srv.Role() != want {
		if time.Now().After(deadline) {
			t.Fatalf("server never became %s (still %s, epoch %d)", want, srv.Role(), srv.Store().Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosAutoFailoverZeroLossZeroDup is the headline schedule: a
// 3-node quorum cell loses its primary mid-burst, a follower detects
// the silence, wins the election, and self-promotes; writers chase the
// redirects and every acknowledged upload — before and after the kill —
// lands exactly once. The dead primary then rejoins and demotes itself
// without operator action.
func TestChaosAutoFailoverZeroLossZeroDup(t *testing.T) {
	ls, addrs := cellListeners(t, 3)
	cellCfg := func(i int) Config {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		return Config{
			MaxPerDay:       10_000,
			AckMode:         AckQuorum,
			ElectionTimeout: 150 * time.Millisecond,
			Advertise:       addrs[i],
			NodeID:          addrs[i],
			Peers:           peers,
			Logf:            t.Logf,
		}
	}
	n1cfg := cellCfg(0)
	n2cfg, n3cfg := cellCfg(1), cellCfg(2)
	n2cfg.Follow, n3cfg.Follow = addrs[0], addrs[0]
	n1 := startCellNode(t, n1cfg, ls[0])
	n2 := startCellNode(t, n2cfg, ls[1])
	n3 := startCellNode(t, n3cfg, ls[2])

	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.Config{Addr: addrs[0], Peers: addrs[1:], Repo: rp, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total, killAt = 40, 20
	r := rand.New(rand.NewSource(42))
	sigs := make([]*sig.Signature, total)
	for i := range sigs {
		sigs[i] = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
	}

	for i := 0; i < killAt; i++ {
		chaosUpload(t, c, sigs[i], 20*time.Second)
	}
	n1.stop()
	for i := killAt; i < total; i++ {
		chaosUpload(t, c, sigs[i], 30*time.Second)
	}

	// Exactly one survivor is primary (the uploads prove at least one).
	var winner, loser *node
	for _, n := range []*node{n2, n3} {
		if n.srv.Role() == "primary" {
			if winner != nil {
				t.Fatal("two primaries after failover")
			}
			winner = n
		} else {
			loser = n
		}
	}
	if winner == nil || loser == nil {
		t.Fatalf("no single winner: n2=%s n3=%s", n2.srv.Role(), n3.srv.Role())
	}
	if epoch := winner.srv.Store().Epoch(); epoch < 2 {
		t.Fatalf("winner epoch = %d, want >= 2", epoch)
	}
	// Zero loss, zero duplication: the signatures are pairwise distinct,
	// so a lost acknowledged upload shrinks the count and a double commit
	// grows it.
	if got := winner.srv.Store().Len(); got != total {
		t.Fatalf("winner has %d signatures, want exactly %d", got, total)
	}
	waitReplicated(t, winner.srv, loser.srv)

	// The dead primary comes back (fresh process, fresh port, stale
	// epoch-1 view of the world) and must demote itself: its probes find
	// the cell at a newer epoch, it refollows the winner, and the fence
	// machinery syncs it to the exact surviving state.
	lr, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcfg := Config{
		MaxPerDay:       10_000,
		AckMode:         AckQuorum,
		ElectionTimeout: 150 * time.Millisecond,
		Advertise:       lr.Addr().String(),
		NodeID:          lr.Addr().String(),
		Peers:           []string{addrs[1], addrs[2]},
	}
	rejoined := startCellNode(t, rcfg, lr)
	waitRole(t, rejoined.srv, "follower")
	waitReplicated(t, winner.srv, rejoined.srv)
	if got, want := rejoined.srv.Store().Epoch(), winner.srv.Store().Epoch(); got != want {
		t.Fatalf("rejoined epoch = %d, want %d", got, want)
	}
}

// TestCellAtSessionCapKeepsControlTraffic: every node of a 3-node cell
// has its single client slot (MaxSessions 1) held by a client, yet the
// cell's own traffic gets through, because a HELLO naming a cell member
// is not counted: followers replicate from the saturated primary; a
// follower whose stream drops probes the live primary and refollows it
// instead of electing; when the primary dies a survivor collects votes
// and is elected; and the operator's promote still reaches the other.
func TestCellAtSessionCapKeepsControlTraffic(t *testing.T) {
	ls, addrs := cellListeners(t, 3)
	p21 := newChaosProxy(t, addrs[0]) // n2's cuttable replication link
	cellCfg := func(i int) Config {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		return Config{
			MaxPerDay:       10_000,
			MaxSessions:     1,
			ElectionTimeout: 150 * time.Millisecond,
			Advertise:       addrs[i],
			NodeID:          addrs[i],
			Peers:           peers,
			Logf:            t.Logf,
		}
	}
	n1cfg, n2cfg, n3cfg := cellCfg(0), cellCfg(1), cellCfg(2)
	n2cfg.Follow, n3cfg.Follow = p21.addr(), addrs[0]
	n1 := startCellNode(t, n1cfg, ls[0])
	dialV2(t, addrs[0]) // the primary is full before any follower dials
	n2 := startCellNode(t, n2cfg, ls[1])
	n3 := startCellNode(t, n3cfg, ls[2])
	dialV2(t, addrs[1])
	dialV2(t, addrs[2])
	for _, addr := range addrs {
		// A client is refused, but the busy reply still says who we are.
		_, c, resp := rawHello(t, addr, wire.NewHello(1))
		if resp.Status != wire.StatusBusy || resp.Role == "" || resp.Epoch != 1 {
			t.Fatalf("client HELLO to full node %s = %+v, want busy with role and epoch 1", addr, resp)
		}
		expectClosed(t, c)
	}

	auth, _ := ids.NewAuthority(testKey)
	seedServer(t, n1.srv, auth, 31, 10)
	waitReplicated(t, n1.srv, n2.srv)
	waitReplicated(t, n1.srv, n3.srv)

	// n2 loses its stream; its election probe must find the live primary
	// through the cap and refollow it directly.
	p21.setCut(true)
	seedServer(t, n1.srv, auth, 32, 5)
	waitReplicated(t, n1.srv, n2.srv)
	for _, n := range []*node{n1, n2, n3} {
		if epoch := n.srv.Store().Epoch(); epoch != 1 {
			t.Fatalf("%s at epoch %d after a dropped stream, want 1: a live primary was deposed", n.addr, epoch)
		}
	}
	if n1.srv.Role() != "primary" {
		t.Fatalf("primary became %s", n1.srv.Role())
	}

	// The primary dies: votes must reach the saturated survivors.
	n1.stop()
	var winner, other *node
	deadline := time.Now().Add(15 * time.Second)
	for winner == nil {
		switch {
		case n2.srv.Role() == "primary":
			winner, other = n2, n3
		case n3.srv.Role() == "primary":
			winner, other = n3, n2
		case time.Now().After(deadline):
			t.Fatal("no survivor was elected with every slot held")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Once the other survivor follows the winner, the operator promotes
	// it past the winner's epoch, its slot still held: communix-inspect
	// names the node it dials.
	seedServer(t, winner.srv, auth, 33, 3)
	waitReplicated(t, winner.srv, other.srv)
	epoch := winner.srv.Store().Epoch()
	if got := other.srv.Store().Epoch(); got != epoch {
		t.Fatalf("survivor at epoch %d, winner at %d", got, epoch)
	}
	conn, err := net.Dial("tcp", other.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	c := wire.NewConn(conn)
	if _, err := c.Hello(0, other.addr); err != nil {
		t.Fatalf("operator HELLO to a full node: %v", err)
	}
	if err := c.Send(wire.NewPromote(2)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.Role != "primary" || resp.Epoch != epoch+1 {
		t.Fatalf("PROMOTE on a full follower = %+v, want ok as primary at epoch %d", resp, epoch+1)
	}
}

// TestQuorumAckDegradesToBusyNeverSilentLoss pins the quorum ACK
// contract: with the majority reachable ADDs are acknowledged; with it
// gone they degrade to StatusBusy — the entry commits locally and the
// client's retry is absorbed as a duplicate once the cell heals, so
// degradation never loses or doubles a write. A cell of one (no peers)
// must never park.
func TestQuorumAckDegradesToBusyNeverSilentLoss(t *testing.T) {
	ls, addrs := cellListeners(t, 1)
	pcfg := Config{
		MaxPerDay:  10_000,
		AckMode:    AckQuorum,
		AckTimeout: 200 * time.Millisecond,
		Advertise:  addrs[0],
		NodeID:     addrs[0],
		Peers:      []string{"follower-1"}, // names the cell; majority = 2
	}
	p := startCellNode(t, pcfg, ls[0])
	fcfg := Config{Follow: addrs[0], NodeID: "follower-1", MaxPerDay: 10_000}
	f := startNode(t, fcfg)
	auth, _ := ids.NewAuthority(testKey)
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(7))
	req1 := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 1, 6, 9))
	req2 := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 2, 6, 9))
	req3 := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 3, 6, 9))

	if resp := p.srv.Process(req1); resp.Status != wire.StatusOK {
		t.Fatalf("ADD with majority alive = %+v", resp)
	}

	f.stop()
	resp := p.srv.Process(req2)
	if resp.Status != wire.StatusBusy || !strings.Contains(resp.Detail, "quorum") {
		t.Fatalf("ADD without majority = %+v, want StatusBusy mentioning quorum", resp)
	}
	if got := p.srv.Store().Len(); got != 2 {
		t.Fatalf("degraded ADD not committed locally: len=%d, want 2", got)
	}

	// The cell heals (a replacement follower with the same node name)
	// and the client's retry of the degraded upload is absorbed as a
	// duplicate — acknowledged this time, still exactly one copy.
	f2 := startNode(t, fcfg)
	waitReplicated(t, p.srv, f2.srv)
	if resp := p.srv.Process(req2); resp.Status != wire.StatusOK {
		t.Fatalf("retry after heal = %+v, want StatusOK", resp)
	}
	if got := p.srv.Store().Len(); got != 2 {
		t.Fatalf("retry duplicated the degraded upload: len=%d, want 2", got)
	}
	if resp := p.srv.Process(req3); resp.Status != wire.StatusOK {
		t.Fatalf("fresh ADD after heal = %+v", resp)
	}

	// A single-node cell has majority 1: quorum mode must answer at
	// local durability, never park.
	solo, _ := New(Config{Key: testKey, AckMode: AckQuorum, MaxPerDay: 10_000})
	defer solo.Close()
	req4 := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 4, 6, 9))
	done := make(chan wire.Response, 1)
	go func() { done <- solo.Process(req4) }()
	select {
	case resp := <-done:
		if resp.Status != wire.StatusOK {
			t.Fatalf("solo quorum ADD = %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solo quorum-mode ADD parked")
	}
}

// TestMinorityPartitionNeverElects: a follower cut off from the rest of
// the cell suspects the primary but must stand down at the reachability
// check — the epoch never advances on the minority side, the majority
// side never notices, and the healed follower rejoins at the old epoch.
func TestMinorityPartitionNeverElects(t *testing.T) {
	ls, addrs := cellListeners(t, 3)
	// n3 reaches the rest of the cell only through cuttable proxies.
	p31 := newChaosProxy(t, addrs[0])
	p32 := newChaosProxy(t, addrs[1])

	n1cfg := Config{
		MaxPerDay:       10_000,
		ElectionTimeout: 120 * time.Millisecond,
		Advertise:       addrs[0],
		NodeID:          addrs[0],
		Peers:           []string{addrs[1], addrs[2]},
	}
	n2cfg := Config{
		MaxPerDay:       10_000,
		ElectionTimeout: 120 * time.Millisecond,
		Advertise:       addrs[1],
		NodeID:          addrs[1],
		Peers:           []string{addrs[0], addrs[2]},
		Follow:          addrs[0],
	}
	var logMu sync.Mutex
	var logs []string
	n3cfg := Config{
		MaxPerDay:       10_000,
		ElectionTimeout: 120 * time.Millisecond,
		Advertise:       addrs[2],
		NodeID:          addrs[2],
		Peers:           []string{p31.addr(), p32.addr()},
		Follow:          p31.addr(),
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, format)
			logMu.Unlock()
		},
	}
	n1 := startCellNode(t, n1cfg, ls[0])
	n2 := startCellNode(t, n2cfg, ls[1])
	n3 := startCellNode(t, n3cfg, ls[2])

	auth, _ := ids.NewAuthority(testKey)
	seedServer(t, n1.srv, auth, 21, 10)
	waitReplicated(t, n1.srv, n2.srv)
	waitReplicated(t, n1.srv, n3.srv)

	// Partition n3 away and give it many detection windows to (fail to)
	// elect itself.
	p31.setCut(true)
	p32.setCut(true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		logMu.Lock()
		stoodDown := false
		for _, l := range logs {
			if strings.Contains(l, "below majority") {
				stoodDown = true
			}
		}
		logMu.Unlock()
		if stoodDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partitioned follower never attempted (and abandoned) an election")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // several more windows, same answer
	if epoch := n3.srv.Store().Epoch(); epoch != 1 {
		t.Fatalf("minority partition advanced the epoch to %d", epoch)
	}
	if role := n3.srv.Role(); role != "follower" {
		t.Fatalf("minority node promoted itself to %s", role)
	}

	// The majority side is undisturbed: still epoch 1, still accepting.
	if n1.srv.Role() != "primary" || n1.srv.Store().Epoch() != 1 {
		t.Fatalf("majority side disturbed: role=%s epoch=%d", n1.srv.Role(), n1.srv.Store().Epoch())
	}
	seedServer(t, n1.srv, auth, 22, 5)
	waitReplicated(t, n1.srv, n2.srv)

	// Heal: n3 reconnects through the proxies and catches up at epoch 1.
	p31.setCut(false)
	p32.setCut(false)
	waitReplicated(t, n1.srv, n3.srv)
	if epoch := n3.srv.Store().Epoch(); epoch != 1 {
		t.Fatalf("healed follower at epoch %d, want 1", epoch)
	}
}

// TestSplitBrainQuorumRefusalAndFencedRejoin: the split-brain satellite.
// An isolated quorum-mode primary cannot acknowledge writes (they
// degrade to Busy — committed locally, never promised), so when it later
// discovers the new epoch, steps down, and is fenced, the divergent
// suffix it discards contains nothing any client was told is safe.
func TestSplitBrainQuorumRefusalAndFencedRejoin(t *testing.T) {
	ls, addrs := cellListeners(t, 2)
	proxy := newChaosProxy(t, addrs[0]) // f2's replication path to p1
	var partitioned atomic.Bool
	p1cfg := Config{
		MaxPerDay:       10_000,
		AckMode:         AckQuorum,
		AckTimeout:      200 * time.Millisecond,
		ElectionTimeout: 150 * time.Millisecond,
		Advertise:       addrs[0],
		NodeID:          "p1",
		Peers:           []string{addrs[1]},
		PeerDial: func(addr string) (net.Conn, error) {
			if partitioned.Load() {
				return nil, net.ErrClosed
			}
			return net.DialTimeout("tcp", addr, time.Second)
		},
	}
	f2cfg := Config{
		MaxPerDay: 10_000,
		Advertise: addrs[1],
		// The NodeID must match p1's Peers entry: cursor reports under an
		// unconfigured name never count toward quorum.
		NodeID: addrs[1],
		Follow: proxy.addr(),
	}
	p1 := startCellNode(t, p1cfg, ls[0])
	f2 := startCellNode(t, f2cfg, ls[1])

	auth, _ := ids.NewAuthority(testKey)
	_, token := auth.Issue()
	seedServer(t, p1.srv, auth, 31, 5)
	waitReplicated(t, p1.srv, f2.srv)

	// Partition: sever replication and p1's outbound probes.
	partitioned.Store(true)
	proxy.setCut(true)

	// The isolated primary refuses to acknowledge: Busy, not OK.
	r := rand.New(rand.NewSource(32))
	divergent := addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 500, 6, 9))
	if resp := p1.srv.Process(divergent); resp.Status != wire.StatusBusy {
		t.Fatalf("isolated quorum ADD = %+v, want StatusBusy", resp)
	}
	if got := p1.srv.Store().Len(); got != 6 {
		t.Fatalf("isolated primary len = %d, want 6 (local commit, no ack)", got)
	}

	// Failover decision on the healthy side: f2 is promoted and serves.
	if epoch, err := f2.srv.Promote(); err != nil || epoch != 2 {
		t.Fatalf("Promote = (%d, %v)", epoch, err)
	}
	seedServer(t, f2.srv, auth, 33, 3)

	// Heal p1's view: it discovers the newer epoch, steps down, and the
	// fence discards its unacknowledged divergent suffix.
	partitioned.Store(false)
	waitRole(t, p1.srv, "follower")
	waitReplicated(t, f2.srv, p1.srv)
	if got := p1.srv.Store().Len(); got != 8 {
		t.Fatalf("rejoined old primary has %d entries, want 8 (divergent suffix discarded)", got)
	}
	if epoch := p1.srv.Store().Epoch(); epoch != 2 {
		t.Fatalf("rejoined old primary at epoch %d, want 2", epoch)
	}
}

// TestSubscribePerUserQuota: the read-side quota satellite. With
// MaxSubsPerUser set, SUBSCRIBE requires a valid token, enforces the
// per-user cap across sessions, and frees the slot when the session
// closes.
func TestSubscribePerUserQuota(t *testing.T) {
	_, addr, auth := v2TestServer(t, Config{MaxSubsPerUser: 1})
	_, token := auth.Issue()

	subscribe := func(c *wire.Conn, tok ids.Token) wire.Response {
		t.Helper()
		var req wire.Request
		if tok == "" {
			req = wire.NewSubscribe(2, 1)
		} else {
			req = wire.NewSubscribeUser(2, 1, tok)
		}
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	conn1, c1 := dialV2(t, addr)
	if resp := subscribe(c1, token); resp.Status != wire.StatusOK {
		t.Fatalf("first SUBSCRIBE = %+v", resp)
	}

	// Same user, second session: over quota.
	_, c2 := dialV2(t, addr)
	if resp := subscribe(c2, token); resp.Status != wire.StatusRejected ||
		!strings.Contains(resp.Detail, "limit") {
		t.Fatalf("over-quota SUBSCRIBE = %+v, want StatusRejected mentioning the limit", resp)
	}

	// Tokenless SUBSCRIBE: refused when quotas are on.
	_, c3 := dialV2(t, addr)
	if resp := subscribe(c3, ""); resp.Status != wire.StatusRejected {
		t.Fatalf("tokenless SUBSCRIBE = %+v, want StatusRejected", resp)
	}

	// A different user has their own budget.
	_, token2 := auth.Issue()
	_, c4 := dialV2(t, addr)
	if resp := subscribe(c4, token2); resp.Status != wire.StatusOK {
		t.Fatalf("second user's SUBSCRIBE = %+v", resp)
	}

	// Closing the first session frees the first user's slot.
	conn1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, c5 := dialV2(t, addr)
		resp := subscribe(c5, token)
		if resp.Status == wire.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after session close: %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubscribeQuotaTokenRotation: re-subscribing on one session under a
// different user token must run the NEW user's quota check and move the
// reservation — rotating tokens is neither a way to bypass a full
// user's limit nor a way to hold slots under two users at once.
func TestSubscribeQuotaTokenRotation(t *testing.T) {
	_, addr, auth := v2TestServer(t, Config{MaxSubsPerUser: 1})
	_, tokenA := auth.Issue()
	_, tokenB := auth.Issue()

	subscribe := func(c *wire.Conn, tok ids.Token) wire.Response {
		t.Helper()
		if err := c.Send(wire.NewSubscribeUser(2, 1, tok)); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	_, c1 := dialV2(t, addr)
	if resp := subscribe(c1, tokenA); resp.Status != wire.StatusOK {
		t.Fatalf("A's SUBSCRIBE = %+v", resp)
	}
	conn2, c2 := dialV2(t, addr)
	if resp := subscribe(c2, tokenB); resp.Status != wire.StatusOK {
		t.Fatalf("B's SUBSCRIBE = %+v", resp)
	}

	// B is at their limit: session 1 rotating its token to B must be
	// rejected — the old rule short-circuited on "already counted" and
	// let the rotation through without ever checking B's quota.
	if resp := subscribe(c1, tokenB); resp.Status != wire.StatusRejected ||
		!strings.Contains(resp.Detail, "limit") {
		t.Fatalf("rotation into full user = %+v, want StatusRejected mentioning the limit", resp)
	}
	// The failed rotation left A's reservation standing: A is still full.
	_, c3 := dialV2(t, addr)
	if resp := subscribe(c3, tokenA); resp.Status != wire.StatusRejected {
		t.Fatalf("A's second SUBSCRIBE after failed rotation = %+v, want StatusRejected", resp)
	}

	// Free B (close their session); now the rotation succeeds and MOVES
	// the reservation: session 1 counts under B, A's slot is released.
	conn2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := subscribe(c1, tokenB)
		if resp.Status == wire.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotation never succeeded after B freed: %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, c4 := dialV2(t, addr)
	if resp := subscribe(c4, tokenA); resp.Status != wire.StatusOK {
		t.Fatalf("A's SUBSCRIBE after rotation away = %+v, want StatusOK (slot released)", resp)
	}
	_, c5 := dialV2(t, addr)
	if resp := subscribe(c5, tokenB); resp.Status != wire.StatusRejected {
		t.Fatalf("B's second SUBSCRIBE = %+v, want StatusRejected (session 1 holds B's slot)", resp)
	}
}
