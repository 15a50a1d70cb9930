package client

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/repo"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

var testKey = bytes.Repeat([]byte{0x21}, ids.KeySize)

// testServer spins up a TCP server; cleanup stops it.
func testServer(t *testing.T) (*server.Server, string, *ids.Authority) {
	t.Helper()
	srv, err := server.New(server.Config{Key: testKey})
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
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return srv, l.Addr().String(), auth
}

func newClient(t *testing.T, addr string, token ids.Token, r *repo.Repo, opts ...func(*Config)) *Client {
	t.Helper()
	cfg := Config{Addr: addr, Repo: r, Token: token}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUploadThenSyncRoundTrip(t *testing.T) {
	_, addr, auth := testServer(t)
	_, token := auth.Issue()

	rp, err := repo.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, addr, token, rp)

	r := rand.New(rand.NewSource(1))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	if err := c.Upload(s); err != nil {
		t.Fatalf("Upload: %v", err)
	}

	added, err := c.SyncOnce()
	if err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if added != 1 || rp.Len() != 1 {
		t.Errorf("added=%d repoLen=%d, want 1/1", added, rp.Len())
	}

	// Incremental: second sync fetches nothing.
	added, err = c.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("second sync added %d, want 0 (incremental)", added)
	}
	if rp.Next() != 2 {
		t.Errorf("cursor = %d, want 2", rp.Next())
	}
}

func TestUploadRejectedSurfacesDetail(t *testing.T) {
	_, addr, _ := testServer(t)
	rp, _ := repo.Open("")
	c := newClient(t, addr, "forged-token", rp)
	r := rand.New(rand.NewSource(2))
	err := c.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("forged upload error = %v, want rejection", err)
	}
}

func TestSyncDialFailure(t *testing.T) {
	rp, _ := repo.Open("")
	c := newClient(t, "127.0.0.1:1", "tok", rp) // nothing listens on port 1
	if _, err := c.SyncOnce(); err == nil {
		t.Error("sync against dead server should fail")
	}
}

func TestBackgroundSyncLoop(t *testing.T) {
	_, addr, auth := testServer(t)
	_, token := auth.Issue()

	rp, _ := repo.Open("")
	var syncs atomic.Int32
	c := newClient(t, addr, token, rp, func(cfg *Config) {
		cfg.SyncInterval = 5 * time.Millisecond
		cfg.OnSync = func(added int, err error) {
			if err != nil {
				t.Errorf("background sync: %v", err)
			}
			syncs.Add(1)
		}
	})

	// Seed the server.
	r := rand.New(rand.NewSource(3))
	uploader := newClient(t, addr, token, rp)
	for i := 0; i < 3; i++ {
		if err := uploader.Upload(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)); err != nil {
			t.Fatal(err)
		}
	}

	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (syncs.Load() < 2 || rp.Len() < 3) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if syncs.Load() < 2 {
		t.Errorf("background syncs = %d, want >= 2", syncs.Load())
	}
	if rp.Len() != 3 {
		t.Errorf("repo len = %d, want 3", rp.Len())
	}
	// Close is idempotent and Start-after-Close is a no-op.
	c.Close()
	c.Start()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing repo should fail")
	}
	rp, _ := repo.Open("")
	if _, err := New(Config{Repo: rp}); err == nil {
		t.Error("missing addr/dial should fail")
	}
	if _, err := New(Config{Repo: rp, Dial: func() (net.Conn, error) { return nil, nil }}); err != nil {
		t.Errorf("dial-only config should work: %v", err)
	}
}

func TestUploadInvalidSignature(t *testing.T) {
	rp, _ := repo.Open("")
	c := newClient(t, "127.0.0.1:1", "tok", rp)
	if err := c.Upload(&sig.Signature{}); err == nil {
		t.Error("invalid signature should fail before dialing")
	}
}

func TestSyncsImmediatelyOnStart(t *testing.T) {
	_, addr, auth := testServer(t)
	_, token := auth.Issue()
	rp, _ := repo.Open("")

	synced := make(chan struct{}, 16)
	c := newClient(t, addr, token, rp, func(cfg *Config) {
		// A deliberately huge interval: only an immediate first sync can
		// make this test pass.
		cfg.SyncInterval = 24 * time.Hour
		cfg.OnSync = func(added int, err error) {
			if err != nil {
				t.Errorf("sync: %v", err)
			}
			select {
			case synced <- struct{}{}:
			default:
			}
		}
	})
	c.Start()
	defer c.Close()
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("no sync within 5s of Start; first sync must not wait for SyncInterval")
	}
}

// Failed dials back off from RetryMin, doubling per consecutive
// failure, in both modes; the loop keeps retrying until it recovers.
func TestSyncBackoffRecovers(t *testing.T) {
	for _, mode := range []string{"poll", "subscribe"} {
		t.Run(mode, func(t *testing.T) {
			srv, addr, auth := testServer(t)
			_, token := auth.Issue()
			seedDirect(t, srv, token, 9, 1)
			rp, _ := repo.Open("")

			// Fail the first few dials, then let traffic through: the
			// loop must keep retrying (backing off) and eventually land
			// the seeded signature.
			const retryMin = 20 * time.Millisecond
			var mu sync.Mutex
			var dialTimes []time.Time
			var landed atomic.Int32
			errSyncs := int32(0)
			c, err := New(Config{
				Dial: func() (net.Conn, error) {
					mu.Lock()
					dialTimes = append(dialTimes, time.Now())
					n := len(dialTimes)
					mu.Unlock()
					if n <= 3 {
						return nil, errMock
					}
					return net.Dial("tcp", addr)
				},
				Repo:         rp,
				Token:        token,
				Subscribe:    mode == "subscribe",
				SyncInterval: time.Hour,
				RetryMin:     retryMin,
				OnSync: func(added int, err error) {
					if err != nil {
						atomic.AddInt32(&errSyncs, 1)
					}
				},
				OnSignatures: func(added int) { landed.Add(int32(added)) },
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Close()
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) && landed.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			if landed.Load() == 0 {
				t.Fatal("sync never recovered after transient dial failures")
			}
			if got := atomic.LoadInt32(&errSyncs); got != 3 {
				t.Errorf("failed syncs = %d, want 3 (one per failed dial)", got)
			}
			// Timers never fire early, so each gap is at least the
			// jittered delay's floor: 0.9 × RetryMin × 2^(failures-1).
			mu.Lock()
			defer mu.Unlock()
			for i := 1; i < 4; i++ {
				gap := dialTimes[i].Sub(dialTimes[i-1])
				floor := time.Duration(float64(retryMin<<(i-1)) * 0.9)
				if gap < floor {
					t.Errorf("gap after failed dial %d = %v, want >= %v (doubling backoff)", i, gap, floor)
				}
			}
		})
	}
}

var errMock = errors.New("mock dial failure")

func TestNextDelayBackoffAndJitter(t *testing.T) {
	rp, _ := repo.Open("")
	c, err := New(Config{
		Addr:         "unused:1",
		Repo:         rp,
		SyncInterval: 16 * time.Second,
		RetryMin:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Steady state: the interval, jittered ±10%.
	for _, jit := range []float64{0, 0.5, 0.999} {
		d := c.nextDelay(0, jit)
		if d < 14*time.Second || d > 18*time.Second {
			t.Errorf("steady delay(jit=%v) = %v, outside ±10%% of 16s", jit, d)
		}
	}
	// Backoff doubles per consecutive failure from RetryMin…
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second}
	for failures, base := range want {
		d := c.nextDelay(failures+1, 0.5)
		lo := time.Duration(float64(base) * 0.9)
		hi := time.Duration(float64(base) * 1.1)
		if d < lo || d > hi {
			t.Errorf("delay after %d failures = %v, want ~%v", failures+1, d, base)
		}
	}
	// …and caps at the sync interval, however many failures pile up.
	for _, failures := range []int{6, 20, 63, 1000} {
		d := c.nextDelay(failures, 1)
		if d > time.Duration(float64(16*time.Second)*1.1) {
			t.Errorf("delay after %d failures = %v, exceeds the interval cap", failures, d)
		}
		if d <= 0 {
			t.Errorf("delay after %d failures = %v, must be positive", failures, d)
		}
	}
	// Jitter spread genuinely varies with the jitter input.
	if c.nextDelay(0, 0) == c.nextDelay(0, 0.99) {
		t.Error("jitter has no effect")
	}
}

func TestRetryMinCappedAtInterval(t *testing.T) {
	rp, _ := repo.Open("")
	c, err := New(Config{
		Addr:         "unused:1",
		Repo:         rp,
		SyncInterval: time.Second,
		RetryMin:     time.Minute, // larger than the interval
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := c.nextDelay(1, 0.5); d > time.Duration(float64(time.Second)*1.1) {
		t.Errorf("first retry delay = %v, want <= jittered interval", d)
	}
}
