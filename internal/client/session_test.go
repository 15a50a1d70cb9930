package client

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// busyServer is a minimal session server: HELLO is answered ok at
// version 2, the first busyFirst ADDs busy and every later one ok, each
// reply echoing its request's ID; a SUBSCRIBE is answered ok and the
// connection hung up 5 ms later. It counts the connections it accepts
// and the subscriptions it acknowledges.
type busyServer struct {
	l         net.Listener
	dials     atomic.Int32
	subs      atomic.Int32
	busyFirst atomic.Int32
}

func newBusyServer(t *testing.T, busyFirst int32) (*busyServer, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &busyServer{l: l}
	b.busyFirst.Store(busyFirst)
	go b.serve()
	t.Cleanup(func() { l.Close() })
	return b, l.Addr().String()
}

func (b *busyServer) serve() {
	for {
		conn, err := b.l.Accept()
		if err != nil {
			return
		}
		b.dials.Add(1)
		go b.handle(conn)
	}
}

func (b *busyServer) handle(conn net.Conn) {
	defer conn.Close()
	c := wire.NewConn(conn)
	for {
		var req wire.Request
		if err := c.Recv(&req); err != nil {
			return
		}
		resp := wire.Response{Status: wire.StatusOK, ID: req.ID}
		switch {
		case req.Type == wire.MsgHello:
			resp.Version, resp.Epoch, resp.Role = wire.V2, 1, "primary"
		case req.Type == wire.MsgAdd && b.busyFirst.Add(-1) >= 0:
			resp.Status, resp.Detail = wire.StatusBusy, "quorum ack timeout"
		case req.Type == wire.MsgAdd:
			resp.Next = 1
		case req.Type == wire.MsgSubscribe:
			if err := c.Send(resp); err != nil {
				return
			}
			b.subs.Add(1)
			time.Sleep(5 * time.Millisecond)
			return
		default:
			resp.Status = wire.StatusError
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// Busy retries ride one connection instead of dialing per attempt.
func TestUploadBusyRetriesReuseConnection(t *testing.T) {
	b, addr := newBusyServer(t, 2)
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	rp, _ := repo.Open("")
	c := newClient(t, addr, token, rp)
	defer c.Close()

	r := rand.New(rand.NewSource(3))
	if err := c.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if d := b.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1 (busy retries must not re-dial)", d)
	}
}

// fullServer starts a real server with one session slot and takes it,
// so every further HELLO is refused busy.
func fullServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv, addr, _ := startServerCfg(t, server.Config{MaxSessions: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := wire.NewConn(conn).Hello(0, ""); err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// A busy HELLO moves the rotation on: reads and uploads land on the
// next peer, and the full server sees neither.
func TestRotationSkipsBusyPeer(t *testing.T) {
	full, fullAddr := fullServer(t)
	free, freeAddr, _ := startServerCfg(t, server.Config{})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	seedDirect(t, free, token, 21, 2)

	rp, _ := repo.Open("")
	c := newClient(t, fullAddr, token, rp, func(cfg *Config) { cfg.Peers = []string{freeAddr} })
	defer c.Close()
	if added, err := c.SyncOnce(); err != nil || added != 2 {
		t.Fatalf("SyncOnce past a busy peer = (%d, %v), want (2, nil)", added, err)
	}
	r := rand.New(rand.NewSource(22))
	if err := c.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 100, 6, 9)); err != nil {
		t.Fatalf("Upload past a busy peer: %v", err)
	}
	if full.Store().Len() != 0 || free.Store().Len() != 3 {
		t.Errorf("full server holds %d, free server %d; want 0 and 3", full.Store().Len(), free.Store().Len())
	}
}

// A server refusing the session busy is a busy upload: same backoff,
// same retry budget, same error.
func TestUploadAgainstFullServerReportsBusy(t *testing.T) {
	_, addr := fullServer(t)
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	rp, _ := repo.Open("")
	c := newClient(t, addr, token, rp)
	defer c.Close()

	r := rand.New(rand.NewSource(23))
	err = c.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9))
	want := fmt.Sprintf("server busy after %d retries", uploadBusyRetries)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Upload against a full server = %v, want %q", err, want)
	}
}

// A busy peer outranks a dead one in either rotation order: Upload
// backs off and spends its busy budget instead of failing on the dial
// error of whichever peer the rotation tried last.
func TestUploadBusyAndDeadPeersReportsBusy(t *testing.T) {
	_, fullAddr := fullServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	want := fmt.Sprintf("server busy after %d retries", uploadBusyRetries)
	for i, order := range [][2]string{{fullAddr, deadAddr}, {deadAddr, fullAddr}} {
		rp, _ := repo.Open("")
		c := newClient(t, order[0], token, rp, func(cfg *Config) { cfg.Peers = []string{order[1]} })
		r := rand.New(rand.NewSource(int64(24 + i)))
		err := c.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9))
		c.Close()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Upload with peers %v (busy %s) = %v, want %q", order, fullAddr, err, want)
		}
	}
}

// Subscribe mode receives deltas pushed by the server without polling.
func TestSubscribeReceivesPushedDeltas(t *testing.T) {
	_, addr, auth := testServer(t)
	_, token := auth.Issue()

	rp, _ := repo.Open("")
	var pushed atomic.Int32
	c := newClient(t, addr, token, rp, func(cfg *Config) {
		cfg.Subscribe = true
		// A poll cadence that cannot explain delivery: only pushes can
		// fill the repo within the deadline.
		cfg.SyncInterval = time.Hour
		cfg.RetryMin = 10 * time.Millisecond
		cfg.OnSignatures = func(added int) { pushed.Add(int32(added)) }
	})
	c.Start()
	defer c.Close()

	// Another user contributes after our subscription is (or is being)
	// established.
	uploaderRepo, _ := repo.Open("")
	uploader := newClient(t, addr, token, uploaderRepo)
	defer uploader.Close()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		if err := uploader.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && rp.Len() < 3 {
		time.Sleep(time.Millisecond)
	}
	if rp.Len() != 3 {
		t.Fatalf("repo len = %d, want 3 (pushed)", rp.Len())
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pushed.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	if got := pushed.Load(); got != 3 {
		t.Errorf("OnSignatures saw %d, want 3", got)
	}
}

// A subscribed client outlives its server: when the server comes back,
// the client reconnects, re-subscribes from its cursor, and receives
// what it missed.
func TestSubscribeReconnectsAfterServerRestart(t *testing.T) {
	srv1, err := server.New(server.Config{Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv1.Serve(l1) }()
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()

	// The dial target is switchable: "restart" = new server, new port.
	var target atomic.Value
	target.Store(l1.Addr().String())

	rp, _ := repo.Open("")
	c, err := New(Config{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", target.Load().(string), 5*time.Second)
		},
		Repo:      rp,
		Token:     token,
		Subscribe: true,
		RetryMin:  5 * time.Millisecond,
		Keepalive: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	// Let the first subscription establish, then kill the server.
	time.Sleep(50 * time.Millisecond)
	srv1.Close()

	// Second server with one signature the client must still learn.
	srv2, err := server.New(server.Config{Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(l2) }()
	t.Cleanup(func() {
		srv2.Close()
		<-done2
	})
	target.Store(l2.Addr().String())

	r := rand.New(rand.NewSource(5))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	up, _ := repo.Open("")
	uploader := newClient(t, l2.Addr().String(), token, up)
	if err := uploader.Upload(s); err != nil {
		t.Fatal(err)
	}
	uploader.Close()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && rp.Len() < 1 {
		time.Sleep(time.Millisecond)
	}
	if rp.Len() != 1 {
		t.Fatalf("repo len = %d after restart, want 1 (reconnect + re-subscribe)", rp.Len())
	}
}

// A subscription the server acknowledged and later dropped is
// re-established RetryMin after the drop, however many drops came
// before: the acknowledgement resets the failure count. Were every drop
// counted as a failure, the delays would double (1, 2, 4, … 1024 ms),
// allowing only about 12 subscriptions in 3 s, and with the defaults a
// long-lived subscriber would end up waiting the 24 h sync interval to
// reconnect.
func TestAckedSubscriptionReconnectsAtRetryMin(t *testing.T) {
	b, addr := newBusyServer(t, 0)
	rp, _ := repo.Open("")
	c := newClient(t, addr, "", rp, func(cfg *Config) {
		cfg.Subscribe = true
		cfg.RetryMin = time.Millisecond
		cfg.SyncInterval = time.Hour
	})
	c.Start()
	defer c.Close()
	const want = 60
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && b.subs.Load() < want {
		time.Sleep(time.Millisecond)
	}
	if got := b.subs.Load(); got < want {
		t.Fatalf("%d subscriptions stood within 3 s, want at least %d (drops of acknowledged subscriptions are backing off)", got, want)
	}
}

// SyncOnce pages through a capped server until drained — one call, the
// whole database, every frame within wire.MaxFrameSize.
func TestSyncOncePaginates(t *testing.T) {
	srv, err := server.New(server.Config{Key: testKey, GetBatch: 2})
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
		<-done
	})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()

	// Seed 7 signatures: 4 pages at GetBatch=2.
	up, _ := repo.Open("")
	uploader := newClient(t, l.Addr().String(), token, up)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 7; i++ {
		if err := uploader.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)); err != nil {
			t.Fatal(err)
		}
	}
	uploader.Close()

	rp, _ := repo.Open("")
	c := newClient(t, l.Addr().String(), token, rp)
	defer c.Close()
	added, err := c.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if added != 7 || rp.Len() != 7 {
		t.Errorf("added=%d repoLen=%d, want 7/7 in one SyncOnce", added, rp.Len())
	}
	if rp.Next() != 8 {
		t.Errorf("cursor = %d, want 8", rp.Next())
	}
}
