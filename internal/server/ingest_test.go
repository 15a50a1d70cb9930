package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// newIngestServer builds a server over cfg with the test key.
func newIngestServer(t *testing.T, cfg Config) (*Server, *ids.Authority) {
	t.Helper()
	cfg.Key = testKey
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	auth, err := ids.NewAuthority(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return srv, auth
}

// distinctAdds builds n ADDs, each from a fresh user, of distinct
// signatures.
func distinctAdds(t *testing.T, auth *ids.Authority, r *rand.Rand, base, n int) ([]wire.Request, []*sig.Signature) {
	t.Helper()
	reqs := make([]wire.Request, n)
	sigs := make([]*sig.Signature, n)
	for i := range reqs {
		_, token := auth.Issue()
		sigs[i] = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, base+i, 6, 8)
		reqs[i] = addReq(t, token, sigs[i])
	}
	return reqs, sigs
}

// processAll runs every request on its own goroutine and returns the
// replies, failing the test if any Process call is still blocked after
// a generous deadline.
func processAll(t *testing.T, srv *Server, reqs []wire.Request, during func()) []wire.Response {
	t.Helper()
	resps := make([]wire.Response, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = srv.Process(req)
		}()
	}
	if during != nil {
		during()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an ADD never answered")
	}
	return resps
}

// TestConcurrentAddsAllCommit: concurrent ADDs all commit on their
// request goroutines (the store groups them), every one is answered OK,
// and GET serves all of them.
func TestConcurrentAddsAllCommit(t *testing.T) {
	srv, auth := newIngestServer(t, Config{DataDir: t.TempDir()})
	defer srv.Close()

	const n = 60
	reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(1)), 0, n)
	for i, resp := range processAll(t, srv, reqs, nil) {
		if resp.Status != wire.StatusOK {
			t.Errorf("add %d: %s (%s)", i, resp.Status, resp.Detail)
		}
	}
	if got := srv.Store().Len(); got != n {
		t.Errorf("store len = %d, want %d", got, n)
	}
	resp := srv.Process(wire.NewGet(1))
	if resp.Status != wire.StatusOK || len(resp.Sigs) != n || resp.Next != n+1 {
		t.Errorf("GET after ingest: status=%s sigs=%d next=%d", resp.Status, len(resp.Sigs), resp.Next)
	}
}

// TestAddsInFlightAtCloseSettle: ADDs racing Close are either answered
// OK — and then recovered by a server reopened on the directory — or
// answered with a terminal error; none hang.
func TestAddsInFlightAtCloseSettle(t *testing.T) {
	dir := t.TempDir()
	srv, auth := newIngestServer(t, Config{DataDir: dir})

	const n = 40
	reqs, sigs := distinctAdds(t, auth, rand.New(rand.NewSource(3)), 0, n)
	resps := processAll(t, srv, reqs, srv.Close)

	var acked []string
	for i, resp := range resps {
		switch resp.Status {
		case wire.StatusOK:
			data, err := sig.Encode(sigs[i])
			if err != nil {
				t.Fatal(err)
			}
			acked = append(acked, string(data))
		case wire.StatusError:
			// Terminal: reached the store after Close.
		default:
			t.Errorf("add %d: unexpected status %s (%s)", i, resp.Status, resp.Detail)
		}
	}
	if got := srv.Store().Len(); got != len(acked) {
		t.Errorf("store len = %d but %d adds were acknowledged OK", got, len(acked))
	}

	re, _ := newIngestServer(t, Config{DataDir: dir})
	defer re.Close()
	raw, _ := re.Store().Get(1)
	recovered := make(map[string]bool, len(raw))
	for _, s := range raw {
		recovered[string(s)] = true
	}
	for _, s := range acked {
		if !recovered[s] {
			t.Fatalf("an acknowledged ADD is missing after reopen (%d acked, %d recovered)", len(acked), len(raw))
		}
	}
}

// TestAddAfterCloseWritesNothing: once Close has released the data
// directory, an ADD is refused with StatusError and neither the store
// nor the directory changes — a reopened server may own it by now.
func TestAddAfterCloseWritesNothing(t *testing.T) {
	dir := t.TempDir()
	srv, auth := newIngestServer(t, Config{DataDir: dir})
	reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(5)), 0, 2)
	if resp := srv.Process(reqs[0]); resp.Status != wire.StatusOK {
		t.Fatalf("add before Close = %s (%s)", resp.Status, resp.Detail)
	}
	srv.Close()
	before := dirNames(t, dir)

	if resp := srv.Process(reqs[1]); resp.Status != wire.StatusError {
		t.Errorf("add after Close = %s next=%d (%s), want error", resp.Status, resp.Next, resp.Detail)
	}
	if got := srv.Store().Len(); got != 1 {
		t.Errorf("store len after refused add = %d, want 1", got)
	}
	if after := dirNames(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("add after Close changed the data dir: %v -> %v", before, after)
	}
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	sort.Strings(names)
	return names
}

// TestIngestOverTCP runs ADD then GET under the real wire layer.
func TestIngestOverTCP(t *testing.T) {
	srv, auth := newIngestServer(t, Config{})
	bound := make(chan net.Addr, 1)
	go func() { _ = srv.ListenAndServe("127.0.0.1:0", bound) }()
	addr := (<-bound).String()
	defer srv.Close()

	_, wc := dialV2(t, addr)

	reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(4)), 0, 1)
	reqs[0].ID = 2
	if err := wc.Send(reqs[0]); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wc.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("ADD over TCP = %s (%s)", resp.Status, resp.Detail)
	}
	if err := wc.Send(wire.Request{Type: wire.MsgGet, ID: 3, From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || len(resp.Sigs) != 1 {
		t.Fatalf("GET over TCP = %s, %d sigs", resp.Status, len(resp.Sigs))
	}
}

// TestExactAddStoresItsOwnCopy: an exact ADD read off the wire from a
// frame padded with a large field ADD never reads is stored as a copy,
// so the entry neither keeps the frame's payload alive nor changes when
// the request's bytes do.
func TestExactAddStoresItsOwnCopy(t *testing.T) {
	srv, auth := newIngestServer(t, Config{})
	defer srv.Close()
	reqs, _ := distinctAdds(t, auth, rand.New(rand.NewSource(14)), 0, 1)
	padded := reqs[0]
	padded.Node = string(bytes.Repeat([]byte("n"), 1<<20))
	frame, err := wire.EncodeFrame(padded)
	if err != nil {
		t.Fatal(err)
	}
	var req wire.Request
	if err := wire.ReadMessage(bytes.NewReader(frame), &req); err != nil {
		t.Fatal(err)
	}
	if _, exact, err := sig.DecodeVerbatim(req.Sig); err != nil || !exact {
		t.Fatalf("DecodeVerbatim = exact %v, %v; want an exact upload", exact, err)
	}
	sent := bytes.Clone(req.Sig)
	if resp := srv.Process(req); resp.Status != wire.StatusOK {
		t.Fatalf("ADD = %+v", resp)
	}
	for i := range req.Sig {
		req.Sig[i] = 'x'
	}
	entries, _, _ := srv.Store().EntryPage(1, 0, 0)
	if len(entries) != 1 {
		t.Fatalf("stored %d entries, want 1", len(entries))
	}
	if !bytes.Equal(entries[0].Data, sent) {
		t.Fatalf("stored entry %.40q… changed with the request frame; want the sent %.40q…", entries[0].Data, sent)
	}
}
