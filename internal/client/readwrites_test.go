package client

import (
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig/sigtest"
)

// TestReadYourWritesPin: a client that reads from a follower and just
// had an upload accepted by the primary must see that upload on its
// next read even when replication to its follower is stalled — the
// committed index in the upload's OK pins reads to the primary until
// the rotated replica catches up.
func TestReadYourWritesPin(t *testing.T) {
	primary, pAddr, _ := startServerCfg(t, server.Config{MaxPerDay: 10_000, Advertise: "rw-primary"})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	_, token := auth.Issue()
	seedDirect(t, primary, token, 61, 5)

	// The follower replicates through a gateable dialer: cutting it (and
	// severing the live stream) freezes the follower at whatever it
	// holds, simulating replication lag at the worst possible moment.
	var cut atomic.Bool
	var connMu sync.Mutex
	var conns []net.Conn
	followDial := func(string) (net.Conn, error) {
		if cut.Load() {
			return nil, errors.New("replication link cut")
		}
		conn, err := net.Dial("tcp", pAddr)
		if err != nil {
			return nil, err
		}
		connMu.Lock()
		conns = append(conns, conn)
		connMu.Unlock()
		return conn, nil
	}
	follower, fAddr, _ := startServerCfg(t, server.Config{
		Follow:   "rw-primary",
		PeerDial: followDial,
	})
	deadline := time.Now().Add(10 * time.Second)
	for follower.Store().Len() != 5 {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rp, err := repo.Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The client reads from the follower; "rw-primary" (what the
	// follower's redirects advertise) maps onto the primary's real
	// address.
	c := newClient(t, fAddr, token, rp, func(cfg *Config) {
		cfg.DialAddr = func(addr string) (net.Conn, error) {
			if addr != "rw-primary" {
				return nil, errors.New("unexpected advertised address " + addr)
			}
			return net.DialTimeout("tcp", pAddr, 5*time.Second)
		}
	})
	defer c.Close()
	if added, err := c.SyncOnce(); err != nil || added != 5 {
		t.Fatalf("initial sync = (%d, %v), want (5, nil)", added, err)
	}

	// Freeze replication, then upload: the follower redirects to the
	// primary, which commits at index 6 — an index the frozen follower
	// will not serve.
	cut.Store(true)
	connMu.Lock()
	for _, conn := range conns {
		conn.Close()
	}
	connMu.Unlock()
	r := rand.New(rand.NewSource(62))
	mine := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 777, 6, 9)
	if err := c.Upload(mine); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if got := follower.Store().Len(); got != 5 {
		t.Fatalf("follower advanced to %d with replication cut", got)
	}

	// Read-your-writes: the next sync must deliver the upload even
	// though the rotated follower is stalled — the pin routes the GET to
	// the primary.
	if added, err := c.SyncOnce(); err != nil || added != 1 {
		t.Fatalf("pinned sync = (%d, %v), want (1, nil)", added, err)
	}
	if rp.Len() != 6 {
		t.Fatalf("repo has %d entries after pinned sync, want 6", rp.Len())
	}

	// The repository's cursor passed the pinned index, so the pin has
	// cleared: reads go back to the rotation. Heal replication and prove
	// the follower-based path still works.
	if pinned := c.readPin(); pinned != "" {
		t.Fatalf("pin still set to %q after catching up", pinned)
	}
	cut.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for follower.Store().Len() != 6 {
		if time.Now().After(deadline) {
			t.Fatal("healed follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if added, err := c.SyncOnce(); err != nil || added != 0 {
		t.Fatalf("post-heal sync = (%d, %v), want (0, nil)", added, err)
	}
}
