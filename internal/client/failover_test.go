package client

import (
	"encoding/json"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
	"communix/internal/wire"
)

// startServerCfg runs a server with a custom config; stop() may be
// called mid-test (failover scenarios) and is safe to call again from
// cleanup.
func startServerCfg(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	cfg.Key = testKey
	if cfg.FollowPing == 0 {
		cfg.FollowPing = 50 * time.Millisecond
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
	t.Cleanup(stop)
	return srv, l.Addr().String(), stop
}

// deadAddr returns an address that refuses connections immediately.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func seedDirect(t *testing.T, srv *server.Server, token ids.Token, seed int64, n int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		req, err := wire.NewAdd(token, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9))
		if err != nil {
			t.Fatal(err)
		}
		if resp := srv.Process(req); resp.Status != wire.StatusOK {
			t.Fatalf("seed ADD %d: %+v", i, resp)
		}
	}
}

// TestSyncRotatesToLivePeer: the configured address is down; the peer
// list keeps reads available. The client pays one failed dial and
// syncs from the live peer.
func TestSyncRotatesToLivePeer(t *testing.T) {
	srv, live, _ := startServerCfg(t, server.Config{MaxPerDay: 10_000})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	seedDirect(t, srv, token, 41, 12)

	rp, err := repo.Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, deadAddr(t), token, rp, func(cfg *Config) {
		cfg.Peers = []string{live}
	})
	defer c.Close()

	added, err := c.SyncOnce()
	if err != nil {
		t.Fatalf("SyncOnce via peer: %v", err)
	}
	if added != 12 || rp.Len() != 12 {
		t.Fatalf("synced %d (repo %d), want 12", added, rp.Len())
	}
	// The rotation is sticky: the next sync reuses the live peer's
	// session instead of re-dialing the dead address.
	if _, err := c.SyncOnce(); err != nil {
		t.Fatalf("second SyncOnce: %v", err)
	}
}

// TestUploadRedirectsToFollowedPrimary: an upload landing on a follower
// is forwarded to the primary the follower advertises, transparently to
// the caller; the signature then replicates back to the follower the
// client reads from.
func TestUploadRedirectsToFollowedPrimary(t *testing.T) {
	// The primary must advertise its real TCP address, which is only
	// known after listen — so listen first, then build the server.
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pcfg := server.Config{Key: testKey, MaxPerDay: 10_000, Advertise: pl.Addr().String()}
	primary, err := server.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pdone := make(chan error, 1)
	go func() { pdone <- primary.Serve(pl) }()
	t.Cleanup(func() {
		primary.Close()
		if err := <-pdone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	follower, faddr, _ := startServerCfg(t, server.Config{Follow: pl.Addr().String()})

	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	rp, err := repo.Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, faddr, token, rp) // reads from the follower
	defer c.Close()

	r := rand.New(rand.NewSource(43))
	if err := c.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)); err != nil {
		t.Fatalf("Upload via follower: %v", err)
	}
	if got := primary.Store().Len(); got != 1 {
		t.Fatalf("primary has %d signatures after redirected upload, want 1", got)
	}

	// The redirected upload comes back around: replication delivers it to
	// the follower, where this client's reads find it.
	deadline := time.Now().Add(10 * time.Second)
	for follower.Store().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never replicated the redirected upload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if added, err := c.SyncOnce(); err != nil || added != 1 {
		t.Fatalf("SyncOnce from follower = (%d, %v), want (1, nil)", added, err)
	}
}

// TestFailoverFenceResetsRepo: the repository synced past what the
// promoted replica replicated before the old primary died. On first
// contact with the new primary the client detects the newer epoch,
// finds its length above the fence, resets the repository, and
// re-downloads the surviving prefix — positions realign, the divergent
// tail is gone.
func TestFailoverFenceResetsRepo(t *testing.T) {
	a, aAddr, stopA := startServerCfg(t, server.Config{MaxPerDay: 10_000})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	seedDirect(t, a, token, 47, 15)

	rp, err := repo.Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	// B's store holds only the first 10 entries A shipped before dying,
	// and was promoted: epoch 2, fence at 10.
	bDir := t.TempDir()
	bst, err := store.Open(store.Config{DataDir: bDir})
	if err != nil {
		t.Fatal(err)
	}
	entries, next, _ := a.Store().EntryPage(1, 10, 0)
	if _, err := bst.ApplyReplicated(next-len(entries), entries); err != nil {
		t.Fatal(err)
	}
	if epoch, err := bst.Promote(); err != nil || epoch != 2 {
		t.Fatalf("Promote = (%d, %v)", epoch, err)
	}
	if err := bst.Close(); err != nil {
		t.Fatal(err)
	}
	_, bAddr, _ := startServerCfg(t, server.Config{DataDir: bDir, MaxPerDay: 10_000})

	c := newClient(t, aAddr, token, rp, func(cfg *Config) {
		cfg.Peers = []string{bAddr}
	})
	defer c.Close()

	// Before the failover the client syncs all 15 from A and adopts
	// epoch 1.
	if added, err := c.SyncOnce(); err != nil || added != 15 {
		t.Fatalf("pre-failover sync = (%d, %v), want (15, nil)", added, err)
	}
	if rp.Epoch() != 1 {
		t.Fatalf("repo epoch = %d, want 1", rp.Epoch())
	}

	// A dies; the next sync rotates to B, is fenced (15 > 10), resets,
	// and re-downloads B's 10.
	stopA()
	if _, err := c.SyncOnce(); err != nil {
		t.Fatalf("post-failover sync: %v", err)
	}
	if rp.Len() != 10 || rp.Next() != 11 || rp.Epoch() != 2 {
		t.Fatalf("post-failover repo: len=%d next=%d epoch=%d, want 10/11/2", rp.Len(), rp.Next(), rp.Epoch())
	}
}

// TestFenceCountsSkippedEntries: a repository that skipped an invalid
// page entry holds fewer signatures than it has read of the server's
// log. A promotion whose fence lies between the two resets it, since
// its last entry may be past the fence; one whose fence covers the
// cursor keeps it.
func TestFenceCountsSkippedEntries(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var page []json.RawMessage
	for i := 0; i < 2; i++ {
		data, err := sig.Encode(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9))
		if err != nil {
			t.Fatal(err)
		}
		page = append(page, data)
	}
	page = slices.Insert(page, 1, json.RawMessage(`{"threads":[]}`))
	for _, tc := range []struct {
		fence int
		reset bool
	}{{2, true}, {3, false}} {
		rp, err := repo.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Append(page, 4); err != nil || rp.Len() != 2 || rp.Next() != 4 {
			t.Fatalf("Append: %v; len %d, next %d; want 2, 4", err, rp.Len(), rp.Next())
		}
		c := &Client{cfg: Config{Repo: rp}}
		if err := c.adoptSession(&session{epoch: 2, fence: tc.fence}); err != nil {
			t.Fatal(err)
		}
		if reset := rp.Next() == 1; reset != tc.reset || rp.Epoch() != 2 {
			t.Fatalf("fence %d: len %d, next %d, epoch %d; want reset %v at epoch 2", tc.fence, rp.Len(), rp.Next(), rp.Epoch(), tc.reset)
		}
	}
}

// TestClientRefusesStaleEpochServer: a repository that adopted epoch 2
// must never read from a server still at epoch 1 (the failed primary's
// divergent tail could reappear). The rotation reports the stale server
// when it is the only candidate.
func TestClientRefusesStaleEpochServer(t *testing.T) {
	srv, addr, _ := startServerCfg(t, server.Config{MaxPerDay: 10_000})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	seedDirect(t, srv, token, 53, 3)

	rp, err := repo.Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.SetEpoch(2); err != nil {
		t.Fatal(err)
	}
	c := newClient(t, addr, token, rp)
	defer c.Close()
	_, err = c.SyncOnce()
	if err == nil || !strings.Contains(err.Error(), "stale epoch") {
		t.Fatalf("sync from stale server = %v, want stale-epoch refusal", err)
	}
	if rp.Len() != 0 {
		t.Fatalf("repo took %d entries from a stale server", rp.Len())
	}
}
