package server

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

var testKey = bytes.Repeat([]byte{0x11}, ids.KeySize)

func newTestServer(t *testing.T) (*Server, *ids.Authority) {
	t.Helper()
	srv, err := New(Config{Key: testKey})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return srv, auth
}

func addReq(t *testing.T, token ids.Token, s *sig.Signature) wire.Request {
	t.Helper()
	req, err := wire.NewAdd(token, s)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestProcessAddThenGet(t *testing.T) {
	srv, auth := newTestServer(t)
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(1))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)

	resp := srv.Process(addReq(t, token, s))
	if resp.Status != wire.StatusOK {
		t.Fatalf("ADD: %+v", resp)
	}

	resp = srv.Process(wire.NewGet(1))
	if resp.Status != wire.StatusOK || len(resp.Sigs) != 1 || resp.Next != 2 {
		t.Fatalf("GET: %+v", resp)
	}
	got, err := sig.Decode(resp.Sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Error("GET returned a different signature")
	}
}

func TestProcessRejectsBadToken(t *testing.T) {
	srv, _ := newTestServer(t)
	r := rand.New(rand.NewSource(2))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)

	for _, token := range []ids.Token{"", "junk", "00112233445566778899aabbccddeeff"} {
		resp := srv.Process(addReq(t, token, s))
		if resp.Status != wire.StatusRejected {
			t.Errorf("token %q: status = %v, want rejected", token, resp.Status)
		}
	}
	if srv.Store().Len() != 0 {
		t.Error("nothing should be stored")
	}
}

func TestProcessRejectsForeignKeyToken(t *testing.T) {
	srv, _ := newTestServer(t)
	foreign, err := ids.NewAuthority(bytes.Repeat([]byte{0x99}, ids.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	_, token := foreign.Issue()
	r := rand.New(rand.NewSource(3))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	resp := srv.Process(addReq(t, token, s))
	if resp.Status != wire.StatusRejected {
		t.Errorf("foreign token accepted: %+v", resp)
	}
}

func TestProcessMalformedSignature(t *testing.T) {
	srv, auth := newTestServer(t)
	_, token := auth.Issue()
	for _, raw := range []string{"{bad", "", `{"threads":[]}`} {
		resp := srv.Process(wire.Request{Type: wire.MsgAdd, Token: token, Sig: []byte(raw)})
		if resp.Status != wire.StatusError || !strings.HasPrefix(resp.Detail, "malformed signature: decode signature: ") {
			t.Errorf("malformed signature %q: %+v", raw, resp)
		}
	}
	if srv.Store().Len() != 0 {
		t.Error("a malformed signature was stored")
	}
	resp := srv.Process(wire.Request{Type: wire.MsgAdd, Token: token})
	if resp.Status != wire.StatusError {
		t.Errorf("missing signature: %+v", resp)
	}
	resp = srv.Process(wire.Request{Type: wire.MsgType(42)})
	if resp.Status != wire.StatusError {
		t.Errorf("unknown type: %+v", resp)
	}
}

// TestProcessAddStoresEqualIDSignatures: two distinct signatures with
// equal IDs (sigtest.IDTwins) are both accepted, whichever comes first,
// GET serves both, and an upload of either is answered a duplicate at
// its own index.
func TestProcessAddStoresEqualIDSignatures(t *testing.T) {
	srv, auth := newTestServer(t)
	a, b := sigtest.IDTwins()
	for i, s := range []*sig.Signature{a, b} {
		_, token := auth.Issue()
		if resp := srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK || resp.Next != i+1 || resp.Detail != "" {
			t.Fatalf("ADD of signature %d: %+v, want accepted at %d", i+1, resp, i+1)
		}
	}
	resp := srv.Process(wire.NewGet(1))
	if resp.Status != wire.StatusOK || len(resp.Sigs) != 2 {
		t.Fatalf("GET: %+v", resp)
	}
	for i, want := range []*sig.Signature{a, b} {
		if got, err := sig.Decode(resp.Sigs[i]); err != nil || !got.Equal(want) {
			t.Fatalf("GET signature %d = %v, %v; want %v", i+1, got, err, want)
		}
	}
	_, token := auth.Issue()
	for i, s := range []*sig.Signature{b, a} {
		want := 2 - i
		if resp := srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK || resp.Next != want || resp.Detail != "duplicate" {
			t.Fatalf("repeat ADD: %+v, want a duplicate at %d", resp, want)
		}
	}
}

func TestProcessDuplicateIsIdempotent(t *testing.T) {
	srv, auth := newTestServer(t)
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(4))
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	if resp := srv.Process(addReq(t, token, s)); resp.Status != wire.StatusOK {
		t.Fatal(resp)
	}
	resp := srv.Process(addReq(t, token, s))
	if resp.Status != wire.StatusOK || resp.Detail != "duplicate" {
		t.Errorf("duplicate add: %+v", resp)
	}
	if srv.Store().Len() != 1 {
		t.Errorf("store len = %d, want 1", srv.Store().Len())
	}
}

// TestProcessDuplicateCarriesOriginalIndex: a duplicate's reply names
// its original's index in Next, not the database size, so the quorum
// gate holds it on the original's watermark.
func TestProcessDuplicateCarriesOriginalIndex(t *testing.T) {
	srv, auth := newTestServer(t)
	_, token := auth.Issue()
	r := rand.New(rand.NewSource(5))
	a := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 9)
	b := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 1, 6, 9)
	first := srv.Process(addReq(t, token, a))
	if first.Status != wire.StatusOK || first.Next != 1 {
		t.Fatalf("A: %+v, want ok at index 1", first)
	}
	if resp := srv.Process(addReq(t, token, b)); resp.Status != wire.StatusOK || resp.Next != 2 {
		t.Fatalf("B: %+v, want ok at index 2", resp)
	}
	resp := srv.Process(addReq(t, token, a))
	if resp.Status != wire.StatusOK || resp.Detail != "duplicate" || resp.Next != first.Next {
		t.Errorf("A again: %+v, want ok duplicate with Next %d", resp, first.Next)
	}
}

func TestServeOverTCP(t *testing.T) {
	srv, auth := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	_, c := dialV2(t, l.Addr().String())

	_, token := auth.Issue()
	r := rand.New(rand.NewSource(5))

	// The paper's request sequence: ADD(sig) then GET(0).
	for i := 0; i < 3; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
		req, err := wire.NewAdd(token, s)
		if err != nil {
			t.Fatal(err)
		}
		req.ID = uint64(2*i + 2)
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("ADD %d: %+v", i, resp)
		}

		get := wire.NewGet(0)
		get.ID = uint64(2*i + 3)
		if err := c.Send(get); err != nil {
			t.Fatal(err)
		}
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Sigs) != i+1 {
			t.Fatalf("GET(0) after %d adds returned %d sigs", i+1, len(resp.Sigs))
		}
	}
}

func TestServeManyConcurrentClients(t *testing.T) {
	srv, auth := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			c := wire.NewConn(conn)
			if _, err := c.Hello(0, ""); err != nil {
				t.Errorf("hello: %v", err)
				return
			}
			_, token := auth.Issue()
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 5; j++ {
				s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i*100+j, 6, 9)
				req, err := wire.NewAdd(token, s)
				if err != nil {
					t.Error(err)
					return
				}
				req.ID = uint64(2*j + 2)
				var resp wire.Response
				if err := c.Send(req); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if err := c.Recv(&resp); err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				get := wire.NewGet(0)
				get.ID = req.ID + 1
				if err := c.Send(get); err != nil {
					t.Errorf("send get: %v", err)
					return
				}
				if err := c.Recv(&resp); err != nil {
					t.Errorf("recv get: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := srv.Store().Len(); got != clients*5 {
		t.Errorf("store len = %d, want %d", got, clients*5)
	}
	srv.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	srv, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve after Close: %v", err)
	}
	// Double close is safe.
	srv.Close()
}

func TestNewRequiresValidKey(t *testing.T) {
	if _, err := New(Config{Key: []byte("short")}); err == nil {
		t.Error("bad key should fail")
	}
}
