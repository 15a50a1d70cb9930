package server

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"communix/internal/wire"
)

// parkingConfig is a quorum-mode primary whose one peer never reports a
// cursor: every accepted ADD parks in awaitQuorum until AckTimeout (a
// minute here) or Close.
func parkingConfig() Config {
	return Config{
		AckMode:         AckQuorum,
		AckTimeout:      time.Minute,
		ElectionTimeout: time.Hour,
		Peers:           []string{"follower-1"},
		PeerDial:        func(string) (net.Conn, error) { return nil, errors.New("unreachable") },
	}
}

// parkedAdds is how many ADDs wait in awaitQuorum.
func parkedAdds(srv *Server) int {
	srv.quorum.mu.Lock()
	defer srv.quorum.mu.Unlock()
	return len(srv.quorum.waiters)
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// roundTrip answers one PING on the session, so every goroutine the
// session starts on its own is running by the time it returns.
func roundTrip(t *testing.T, c *wire.Conn, id uint64) {
	t.Helper()
	if err := c.Send(wire.Request{Type: wire.MsgPing, ID: id}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil || resp.ID != id || resp.Status != wire.StatusOK {
		t.Fatalf("PING %d = %+v, %v", id, resp, err)
	}
}

// TestSessionPipelinedAddsAnsweredByID: 200 ADDs written back to back on
// one v2 session are all answered OK, each under its own request ID, and
// the session never runs more than sessionMaxInflightAdds workers.
func TestSessionPipelinedAddsAnsweredByID(t *testing.T) {
	srv, addr, auth := v2TestServer(t, Config{})
	_, c := dialV2(t, addr)
	roundTrip(t, c, 1)
	base := runtime.NumGoroutine()

	const n = 200
	reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(11)), 0, n)
	sent := make(chan error, 1)
	go func() {
		for i := range reqs {
			reqs[i].ID = uint64(1000 + i)
			if err := c.Send(reqs[i]); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	seen := make(map[uint64]bool, n)
	most := 0
	for len(seen) < n {
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatalf("after %d replies: %v", len(seen), err)
		}
		if resp.Status != wire.StatusOK || resp.ID < 1000 || resp.ID >= 1000+n || seen[resp.ID] {
			t.Fatalf("reply %+v: want a fresh OK for IDs 1000..%d", resp, 1000+n-1)
		}
		seen[resp.ID] = true
		most = max(most, runtime.NumGoroutine()-base)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	// The sender goroutine above is the one goroutine beyond the workers.
	if most > sessionMaxInflightAdds+1 {
		t.Errorf("goroutines rose by %d during the ADDs, want at most %d workers + the sender", most, sessionMaxInflightAdds)
	}
	if got := srv.Store().Len(); got != n {
		t.Errorf("store len = %d, want %d", got, n)
	}
}

// addWorkers counts the goroutines running (*Server).addWorker in the
// goroutine profile. Unlike a NumGoroutine delta, the count ignores
// goroutines the runtime and the rest of the process start and stop
// meanwhile.
func addWorkers(t *testing.T) int {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, g := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(g, ".(*Server).addWorker(") {
			n++
		}
	}
	return n
}

// TestSessionWorkersParkedStillAnswerGetAndPing: with every worker held
// by a quorum-parked ADD, the session still answers GET and PING, a
// further ADD waits instead of starting a 33rd worker, and the session
// runs exactly that many workers.
func TestSessionWorkersParkedStillAnswerGetAndPing(t *testing.T) {
	srv, addr, auth := v2TestServer(t, parkingConfig())
	_, c := dialV2(t, addr)
	roundTrip(t, c, 1)
	base := runtime.NumGoroutine()

	reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(12)), 0, sessionMaxInflightAdds+1)
	for i, req := range reqs[:sessionMaxInflightAdds] {
		req.ID = uint64(100 + i)
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every worker to park", func() bool { return parkedAdds(srv) == sessionMaxInflightAdds })

	if err := c.Send(wire.Request{Type: wire.MsgGet, ID: 2, From: 1}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil || resp.ID != 2 || resp.Status != wire.StatusOK || len(resp.Sigs) != sessionMaxInflightAdds {
		t.Fatalf("GET while parked = %+v (%d sigs), %v", resp, len(resp.Sigs), err)
	}
	roundTrip(t, c, 3)
	if got := addWorkers(t); got != sessionMaxInflightAdds {
		t.Errorf("%d ADD workers with every worker parked, want %d", got, sessionMaxInflightAdds)
	}

	// One more ADD: the reader holds it until a worker frees up.
	extra := reqs[sessionMaxInflightAdds]
	extra.ID = 200
	if err := c.Send(extra); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if got := parkedAdds(srv); got != sessionMaxInflightAdds {
		t.Errorf("%d ADDs parked, want the %d workers' only", got, sessionMaxInflightAdds)
	}
	if grew := runtime.NumGoroutine() - base; grew > sessionMaxInflightAdds {
		t.Errorf("goroutines grew by %d past the worker bound %d", grew, sessionMaxInflightAdds)
	}
}

// TestSessionCloseLeaksNoWorker: Close tears down a session whose
// workers are idle, or parked on a quorum, without leaving a goroutine
// behind.
func TestSessionCloseLeaksNoWorker(t *testing.T) {
	for name, cfg := range map[string]Config{"idle": {}, "parked": parkingConfig()} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			srv, auth := newIngestServer(t, cfg)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(l) }()
			_, c := dialV2(t, l.Addr().String())

			reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(13)), 0, sessionMaxInflightAdds)
			for i, req := range reqs {
				req.ID = uint64(100 + i)
				if err := c.Send(req); err != nil {
					t.Fatal(err)
				}
			}
			if name == "parked" {
				waitFor(t, "every worker to park", func() bool { return parkedAdds(srv) == sessionMaxInflightAdds })
			} else {
				for range reqs {
					var resp wire.Response
					if err := c.Recv(&resp); err != nil || resp.Status != wire.StatusOK {
						t.Fatalf("ADD reply %+v, %v", resp, err)
					}
				}
			}
			srv.Close()
			if err := <-served; err != nil {
				t.Fatalf("Serve: %v", err)
			}
			waitFor(t, "the session's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}
