package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
	"communix/internal/wire"
)

// node is a restartable test server: unlike v2TestServer, stop() may be
// called mid-test (and is re-run harmlessly by cleanup) so failover and
// restart scenarios can kill servers at chosen moments.
type node struct {
	srv  *Server
	addr string
	stop func()
}

func startNode(t *testing.T, cfg Config) *node {
	t.Helper()
	cfg.Key = testKey
	if cfg.FollowPing == 0 {
		cfg.FollowPing = 50 * time.Millisecond
	}
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

// follow wires a follower config to a primary node over TCP.
func follow(primary *node) Config {
	return Config{Follow: primary.addr}
}

// waitReplicated blocks until the follower's store reaches the
// primary's length AND the state digests agree (length equality alone
// would accept a divergent tail).
func waitReplicated(t *testing.T, primary, follower *Server) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if follower.Store().Len() == primary.Store().Len() &&
			follower.Store().StateDigest() == primary.Store().StateDigest() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication did not converge: primary len=%d follower len=%d",
				primary.Store().Len(), follower.Store().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getSnapshot pages a server's full signature log over a v2 session and
// returns the raw signature bytes in log order — the client-observable
// snapshot, compared byte-for-byte across replicas.
func getSnapshot(t *testing.T, addr string) [][]byte {
	t.Helper()
	conn, c := dialV2(t, addr)
	defer conn.Close()
	var out [][]byte
	from, id := 1, uint64(100)
	for {
		id++
		if err := c.Send(wire.Request{Type: wire.MsgGet, ID: id, From: from}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || resp.ID != id {
			t.Fatalf("GET reply = %+v", resp)
		}
		for _, s := range resp.Sigs {
			out = append(out, []byte(s))
		}
		from = resp.Next
		if !resp.More {
			return out
		}
	}
}

// helloResp opens a raw connection, HELLOs at the given epoch, and
// returns the decorated reply plus the live session conn.
func helloResp(t *testing.T, addr string, epoch uint64) (*wire.Conn, wire.Response) {
	t.Helper()
	_, c, resp := rawHello(t, addr, wire.NewHelloAt(1, epoch))
	return c, resp
}

// rawHello sends hello as the first frame of a fresh connection and
// returns the connection with the reply.
func rawHello(t *testing.T, addr string, hello wire.Request) (net.Conn, *wire.Conn, wire.Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	c := wire.NewConn(conn)
	if err := c.Send(hello); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	return conn, c, resp
}

// TestFollowerServesReadsRedirectsWrites: the basic replica contract —
// a follower converges on the primary's exact state, serves GETs with a
// byte-identical snapshot, reports its role and primary in HELLO, and
// answers ADDs with StatusNotPrimary pointing at the primary.
func TestFollowerServesReadsRedirectsWrites(t *testing.T) {
	primary := startNode(t, Config{Advertise: "primary.example:9123", GetBatch: 7, MaxPerDay: 10_000})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	seedServer(t, primary.srv, auth, 1, 40)
	f := startNode(t, follow(primary))

	waitReplicated(t, primary.srv, f.srv)
	want, got := getSnapshot(t, primary.addr), getSnapshot(t, f.addr)
	if len(want) != len(got) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("snapshot byte difference at index %d", i)
		}
	}

	_, hello := helloResp(t, f.addr, 0)
	if hello.Role != "follower" || hello.Primary != primary.addr || hello.Epoch != 1 {
		t.Fatalf("follower HELLO = role=%q primary=%q epoch=%d", hello.Role, hello.Primary, hello.Epoch)
	}
	_, phello := helloResp(t, primary.addr, 0)
	if phello.Role != "primary" || phello.Primary != "primary.example:9123" {
		t.Fatalf("primary HELLO = role=%q primary=%q", phello.Role, phello.Primary)
	}

	_, token := auth.Issue()
	r := rand.New(rand.NewSource(2))
	resp := f.srv.Process(addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 999, 6, 9)))
	if resp.Status != wire.StatusNotPrimary || resp.Primary != primary.addr {
		t.Fatalf("ADD on follower = %+v, want StatusNotPrimary with primary addr", resp)
	}
}

// TestSubscribeOnFollowerReceivesPrimaryWrites: a follower is a full
// distribution node — its SUBSCRIBE clients receive deltas pushed at
// replication speed when the write lands on the primary.
func TestSubscribeOnFollowerReceivesPrimaryWrites(t *testing.T) {
	pooled(t, testSubscribeOnFollowerReceivesPrimaryWrites)
}

func testSubscribeOnFollowerReceivesPrimaryWrites(t *testing.T) {
	primary := startNode(t, Config{})
	f := startNode(t, follow(primary))
	auth, _ := ids.NewAuthority(testKey)
	waitReplicated(t, primary.srv, f.srv)

	conn, c := dialV2(t, f.addr)
	defer conn.Close()
	if err := c.Send(wire.NewSubscribe(2, 1)); err != nil {
		t.Fatal(err)
	}
	var ack wire.Response
	if err := c.Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusOK || ack.ID != 2 {
		t.Fatalf("SUBSCRIBE ack = %+v", ack)
	}

	seedServer(t, primary.srv, auth, 3, 3)
	received := 0
	deadline := time.Now().Add(10 * time.Second)
	for received < 3 {
		_ = conn.SetReadDeadline(deadline)
		var f wire.Response
		if err := c.Recv(&f); err != nil {
			t.Fatalf("waiting for pushed delta (got %d/3): %v", received, err)
		}
		if f.ID == 0 && f.Type == wire.MsgPush {
			received += len(f.Sigs)
		}
	}
}

// TestReplicationDifferentialChurn is the flagship differential: under
// concurrent ADD churn the follower is restarted mid-stream, resuming
// from its WAL-recovered cursor. A second, never-restarted follower
// replicates the same run. Afterwards every store must agree
// byte-for-byte: state digest (log, dup set, adjacency tops, budget)
// and client-visible GET snapshot.
func TestReplicationDifferentialChurn(t *testing.T) {
	pooled(t, testReplicationDifferentialChurn)
}

func testReplicationDifferentialChurn(t *testing.T) {
	pcfg := Config{
		DataDir:   t.TempDir(),
		Fsync:     store.FsyncOff,
		GetBatch:  7, // force multi-page shipping
		MaxPerDay: 10_000,
	}
	primary := startNode(t, pcfg)
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}

	fDir := t.TempDir()
	fcfg := follow(primary)
	fcfg.DataDir, fcfg.Fsync = fDir, store.FsyncOff
	restarted := startNode(t, fcfg)
	steady := startNode(t, follow(primary))

	const writers, perWriter = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		_, token := auth.Issue()
		wg.Add(1)
		go func(g int, token ids.Token) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perWriter; i++ {
				s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, g*1_000_000+i, 6, 9)
				if resp := primary.srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK {
					t.Errorf("writer %d ADD %d: %+v", g, i, resp)
					return
				}
				if i%16 == 15 {
					time.Sleep(time.Millisecond) // let replication interleave
				}
			}
		}(g, token)
	}

	// Mid-churn fault injection: kill the durable follower, then bring
	// it back on the same data directory. It resumes from its
	// WAL-recovered cursor like any restart and must converge.
	time.Sleep(30 * time.Millisecond)
	restarted.stop()
	time.Sleep(20 * time.Millisecond)
	restarted = startNode(t, fcfg)

	wg.Wait()
	if primary.srv.Store().Len() != writers*perWriter {
		t.Fatalf("primary has %d entries, want %d", primary.srv.Store().Len(), writers*perWriter)
	}
	waitReplicated(t, primary.srv, restarted.srv)
	waitReplicated(t, primary.srv, steady.srv)

	wantDigest := primary.srv.Store().StateDigest()
	for name, n := range map[string]*node{"restarted": restarted, "steady": steady} {
		if d := n.srv.Store().StateDigest(); d != wantDigest {
			t.Errorf("%s follower digest diverges:\n  primary %s\n  %s %s", name, wantDigest, name, d)
		}
	}
	want := getSnapshot(t, primary.addr)
	for name, n := range map[string]*node{"restarted": restarted, "steady": steady} {
		got := getSnapshot(t, n.addr)
		if len(got) != len(want) {
			t.Fatalf("%s snapshot has %d sigs, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("%s snapshot differs at index %d", name, i)
			}
		}
	}
}

// TestFailoverPromotionZeroLossZeroDup: the primary dies mid-burst, the
// follower is promoted over the wire (MsgPromote), and the writers
// re-upload everything they sent. Idempotent ADDs absorb the overlap
// between what replicated before the crash and the re-upload, so the
// promoted primary ends with every distinct signature exactly once.
func TestFailoverPromotionZeroLossZeroDup(t *testing.T) {
	primary := startNode(t, Config{DataDir: t.TempDir(), Fsync: store.FsyncOff, MaxPerDay: 10_000})
	fcfg := follow(primary)
	fcfg.DataDir, fcfg.Fsync, fcfg.MaxPerDay = t.TempDir(), store.FsyncOff, 10_000
	fcfg.Advertise = "replica.example:9124"
	f := startNode(t, fcfg)
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()

	// Burst uploads straight at the primary's processing path; kill it
	// partway. Everything before the kill is accepted; the follower has
	// replicated some unknown prefix of it.
	const total, killAt = 60, 23
	r := rand.New(rand.NewSource(5))
	sigs := make([]wire.Request, total)
	for i := range sigs {
		sigs[i] = addReq(t, token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9))
	}
	for i := 0; i < killAt; i++ {
		if resp := primary.srv.Process(sigs[i]); resp.Status != wire.StatusOK {
			t.Fatalf("pre-crash ADD %d: %+v", i, resp)
		}
	}
	primary.stop()

	// Operator failover: promote the follower over the wire.
	c, _ := helloResp(t, f.addr, 0)
	if err := c.Send(wire.NewPromote(3)); err != nil {
		t.Fatal(err)
	}
	var presp wire.Response
	if err := c.Recv(&presp); err != nil {
		t.Fatal(err)
	}
	if presp.Status != wire.StatusOK || presp.Epoch != 2 || presp.Role != "primary" {
		t.Fatalf("PROMOTE reply = %+v, want ok/epoch=2/role=primary", presp)
	}
	if _, hello := helloResp(t, f.addr, 0); hello.Role != "primary" || hello.Epoch != 2 ||
		hello.Primary != "replica.example:9124" {
		t.Fatalf("post-promotion HELLO = %+v", hello)
	}

	// Recovery protocol: re-upload EVERYTHING. Pre-crash signatures that
	// replicated in time are duplicates (absorbed); the rest — including
	// any lost tail — are fresh.
	for i, req := range sigs {
		if resp := f.srv.Process(req); resp.Status != wire.StatusOK {
			t.Fatalf("re-upload %d: %+v", i, resp)
		}
	}
	if got := f.srv.Store().Len(); got != total {
		t.Fatalf("promoted primary has %d signatures, want exactly %d (zero lost, zero duplicated)", got, total)
	}
	// And it accepts the promotion fence bookkeeping: one fence at the
	// promoted length.
	fences := f.srv.Store().Fences()
	if len(fences) != 1 || fences[0].E != 2 {
		t.Fatalf("fence history = %+v, want exactly one fence at epoch 2", fences)
	}
}

// TestStalePrimaryRejoinsAndIsFenced: classic split-brain aftermath.
// The old primary keeps accepting writes after the follower was
// promoted; when it finally rejoins as a follower its unreplicated tail
// exceeds the fence, so it discards everything and resynchronizes to
// the new primary's exact state — the divergent commits are gone.
func TestStalePrimaryRejoinsAndIsFenced(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := startNode(t, Config{DataDir: dirA, Fsync: store.FsyncOff, MaxPerDay: 10_000})
	bcfg := follow(a)
	bcfg.DataDir, bcfg.Fsync, bcfg.MaxPerDay = dirB, store.FsyncOff, 10_000
	b := startNode(t, bcfg)
	auth, _ := ids.NewAuthority(testKey)
	seedServer(t, a.srv, auth, 7, 10)
	waitReplicated(t, a.srv, b.srv)

	// Failover decision: B is promoted (fence freezes at 10)...
	if epoch, err := b.srv.Promote(); err != nil || epoch != 2 {
		t.Fatalf("Promote = (%d, %v)", epoch, err)
	}
	// ...but A, not knowing, accepts 5 more writes nothing will ever
	// replicate, while B moves on with 3 post-promotion writes.
	seedServer(t, a.srv, auth, 8, 5)
	seedServer(t, b.srv, auth, 9, 3)
	if a.srv.Store().Len() != 15 || b.srv.Store().Len() != 13 {
		t.Fatalf("setup: a=%d b=%d", a.srv.Store().Len(), b.srv.Store().Len())
	}
	a.stop()

	// A rejoins as a follower of B. Its 15 entries exceed SafeLen(1)=10,
	// so it must reset and bootstrap; the 5 divergent entries vanish.
	var logMu sync.Mutex
	var logs []string
	a2cfg := follow(b)
	a2cfg.DataDir, a2cfg.Fsync = dirA, store.FsyncOff
	a2cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	a2 := startNode(t, a2cfg)
	waitReplicated(t, b.srv, a2.srv)

	if got := a2.srv.Store().Len(); got != 13 {
		t.Fatalf("rejoined server has %d entries, want 13", got)
	}
	if a2.srv.Store().Epoch() != 2 {
		t.Fatalf("rejoined server at epoch %d, want 2", a2.srv.Store().Epoch())
	}
	logMu.Lock()
	defer logMu.Unlock()
	fenced := false
	for _, l := range logs {
		if strings.Contains(l, "fenced at epoch 2") {
			fenced = true
		}
	}
	if !fenced {
		t.Errorf("expected a fencing log line, got %q", logs)
	}
}

// TestFollowerRefusesStalePrimary: the other half of fencing — a
// follower already at a newer epoch must never replicate from a
// primary that came back at an older one (its tail may be the
// divergent one). The session is refused and retried, and no entries
// are ever applied.
func TestFollowerRefusesStalePrimary(t *testing.T) {
	// A primary at epoch 1 with data.
	p := startNode(t, Config{MaxPerDay: 10_000})
	auth, _ := ids.NewAuthority(testKey)
	seedServer(t, p.srv, auth, 11, 5)

	// A follower whose store was promoted to epoch 3 in a past life.
	dir := t.TempDir()
	st, err := store.Open(store.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AdoptEpoch(3, []store.Fence{{E: 2, N: 0}, {E: 3, N: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var logMu sync.Mutex
	var logs []string
	fcfg := follow(p)
	fcfg.DataDir = dir
	fcfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	f := startNode(t, fcfg)

	deadline := time.Now().Add(10 * time.Second)
	for {
		logMu.Lock()
		refused := false
		for _, l := range logs {
			if strings.Contains(l, "older epoch") {
				refused = true
			}
		}
		logMu.Unlock()
		if refused {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never refused the stale primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.srv.Store().Len(); got != 0 {
		t.Fatalf("follower applied %d entries from a stale primary", got)
	}
	if got := f.srv.Store().Epoch(); got != 3 {
		t.Fatalf("follower epoch regressed to %d", got)
	}
}

// TestFollowerCatchUpFromAnyCursor: a fresh follower joining a durable
// primary streams the log from index 1, and a durable follower
// restarted with its cursor below the primary's end resumes from that
// cursor: no reset, no bootstrap, and its store never reads empty on
// the way.
func TestFollowerCatchUpFromAnyCursor(t *testing.T) {
	primary := startNode(t, Config{DataDir: t.TempDir(), Fsync: store.FsyncOff, MaxPerDay: 10_000, GetBatch: 7})
	auth, _ := ids.NewAuthority(testKey)
	seedServer(t, primary.srv, auth, 13, 30)

	// The follower dials only once release is closed, so the restarted
	// store is watched from its recovered cursor on.
	var logMu sync.Mutex
	var logs []string
	var release chan struct{}
	fcfg := follow(primary)
	fcfg.DataDir, fcfg.Fsync = t.TempDir(), store.FsyncOff
	fcfg.PeerDial = func(addr string) (net.Conn, error) {
		<-release
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
	fcfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}

	// Fresh follower: cursor 1.
	release = make(chan struct{})
	close(release)
	f := startNode(t, fcfg)
	waitReplicated(t, primary.srv, f.srv)

	// Stop the follower at cursor 30 and grow the primary to 50, so the
	// recovered cursor is below the primary's end.
	f.stop()
	seedServer(t, primary.srv, auth, 14, 20)

	release = make(chan struct{})
	f2 := startNode(t, fcfg)
	if got := f2.srv.Store().Len(); got != 30 {
		close(release)
		t.Fatalf("restarted follower recovered %d entries, want 30", got)
	}
	close(release)
	deadline := time.Now().Add(15 * time.Second)
	for n := f2.srv.Store().Len(); n != 50; n = f2.srv.Store().Len() {
		if n == 0 {
			t.Fatal("restarted follower's store read empty: it reset instead of resuming")
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted follower stuck at %d entries, want 50", n)
		}
		runtime.Gosched()
	}
	waitReplicated(t, primary.srv, f2.srv)
	logMu.Lock()
	defer logMu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "bootstrap") || strings.Contains(l, "reset") || strings.Contains(l, "resynchroniz") {
			t.Errorf("follower log shows a reset: %q", l)
		}
	}
}

// TestReplicateAdmissionRules: wire-level REPLICATE contract — session
// required, negotiated epoch must match, and any cursor streams.
func TestReplicateAdmissionRules(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{DataDir: t.TempDir(), Fsync: store.FsyncOff, MaxPerDay: 10_000})
	seedServer(t, srv, auth, 17, 10)

	// Direct REPLICATE: no session to stream into.
	if resp := srv.Process(wire.NewReplicate(1, 1, 1)); resp.Status != wire.StatusError {
		t.Fatalf("sessionless REPLICATE = %+v, want StatusError", resp)
	}

	// Epoch mismatch: the server is at epoch 1, the request claims 9.
	c, hello := helloResp(t, addr, 1)
	if hello.Epoch != 1 || hello.Fence != 0 {
		t.Fatalf("HELLO at matching epoch = %+v", hello)
	}
	if err := c.Send(wire.NewReplicate(2, 1, 9)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusRejected || resp.Epoch != 1 {
		t.Fatalf("mismatched REPLICATE = %+v, want StatusRejected at epoch 1", resp)
	}

	// REPLICATE(1) streams all 10 entries, carrying full user/unix/sig
	// triples.
	c, _ = helloResp(t, addr, 1)
	if err := c.Send(wire.NewReplicate(3, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var ack wire.Response
	if err := c.Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusOK || ack.ID != 3 {
		t.Fatalf("REPLICATE(1) ack = %+v, want ok", ack)
	}
	got := 0
	for got < 10 {
		var page wire.Response
		if err := c.Recv(&page); err != nil {
			t.Fatal(err)
		}
		if page.ID != 0 || page.Type != wire.MsgPush {
			continue
		}
		for _, e := range page.Entries {
			if e.User == 0 || e.Unix == 0 || len(e.Sig) == 0 {
				t.Fatalf("replication entry missing metadata: %+v", e)
			}
		}
		got += len(page.Entries)
	}
	if got != 10 {
		t.Fatalf("streamed %d entries, want 10", got)
	}
}

// TestPromoteIdempotentOnPrimary: promoting a primary is a retryable
// no-op at the current epoch — operators can fire the failover command
// twice without double-bumping.
func TestPromoteIdempotentOnPrimary(t *testing.T) {
	srv, _, _ := v2TestServer(t, Config{})
	if epoch, err := srv.Promote(); err != nil || epoch != 1 {
		t.Fatalf("Promote on primary = (%d, %v), want (1, nil)", epoch, err)
	}
	if resp := srv.Process(wire.NewPromote(1)); resp.Status != wire.StatusOK || resp.Epoch != 1 {
		t.Fatalf("wire PROMOTE on primary = %+v", resp)
	}
}
