package bench

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"communix/internal/client"
	"communix/internal/ids"
	"communix/internal/server"
)

// serveCell starts a server for cfg on loopback and returns it with its
// address; cleanup stops it.
func serveCell(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.Key = DefaultKey
	cfg.MaxPerDay = 1000
	cfg.FollowPing = 20 * time.Millisecond
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
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// The burst rides the client's redirect path: with the follower listed
// first every upload is answered NotPrimary and forwarded to the primary
// the follower advertises — also when a dead member is listed before it.
func TestUploadBurstFollowsRedirects(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	for _, tc := range []struct {
		name string
		lead []string
	}{{"follower-first", nil}, {"dead-first", []string{dead}}} {
		t.Run(tc.name, func(t *testing.T) {
			primary, pAddr := serveCell(t, server.Config{})
			_, fAddr := serveCell(t, server.Config{Follow: pAddr})
			auth, err := ids.NewAuthority(DefaultKey)
			if err != nil {
				t.Fatal(err)
			}
			_, token := auth.Issue()
			const n = 12
			var out bytes.Buffer
			acked, err := UploadBurst(UploadBurstConfig{
				Addrs:      append(tc.lead, fAddr),
				Token:      string(token),
				N:          n,
				Seed:       5,
				TimeoutSec: 10,
			}, &out)
			if err != nil || acked != n {
				t.Fatalf("UploadBurst = %d, %v; want %d acknowledged", acked, err, n)
			}
			if got := primary.Store().Len(); got != n {
				t.Errorf("primary holds %d signatures, want %d", got, n)
			}
			if want := "upload burst: 12/12 signatures acknowledged (seed 5)"; !strings.Contains(out.String(), want) {
				t.Errorf("output %q, want %q", out.String(), want)
			}
		})
	}
}

// A rejected upload ends the burst at once: retrying a refusal (here a
// token the server cannot decrypt) cannot succeed, so the burst must
// not wait out its timeout.
func TestUploadBurstFailsFastOnRejection(t *testing.T) {
	_, addr := serveCell(t, server.Config{})
	start := time.Now()
	acked, err := UploadBurst(UploadBurstConfig{
		Addrs:      []string{addr},
		Token:      "bogus-token",
		N:          3,
		TimeoutSec: 10,
	}, io.Discard)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("rejected burst took %v, want well under 1s", elapsed)
	}
	if acked != 0 || !errors.Is(err, client.ErrRejected) {
		t.Fatalf("UploadBurst = %d, %v; want 0 and a rejection", acked, err)
	}
}
