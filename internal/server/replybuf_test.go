package server

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// TestReplyBuffersAcrossMixedReplies: one session's writer encodes
// every reply into a pooled buffer, so consecutive GET replies of very
// different sizes — a full page, a one- or two-signature tail, an empty
// size probe — must each arrive intact, while PINGs from another
// goroutine and a live PUSH interleave with them on the same session.
func TestReplyBuffersAcrossMixedReplies(t *testing.T) {
	const n = 300
	srv, addr, auth := v2TestServer(t, Config{MaxPerDay: 10_000})
	seedServer(t, srv, auth, 11, n)
	_, c := dialV2(t, addr)
	var sendMu sync.Mutex
	send := func(req wire.Request) {
		sendMu.Lock()
		defer sendMu.Unlock()
		if err := c.Send(req); err != nil {
			t.Error(err)
		}
	}

	// Subscribe at the end, so the one PUSH is the live commit below.
	send(wire.NewSubscribe(2, n+1))
	var ack wire.Response
	if err := c.Recv(&ack); err != nil || ack.ID != 2 || ack.Status != wire.StatusOK {
		t.Fatalf("SUBSCRIBE ack = %+v, %v", ack, err)
	}

	froms := []int{1, n, 1 << 30, 45, n - 1, 1, 150, 2, n}
	gets := map[uint64]int{} // request ID → From
	for round := 0; round < 4; round++ {
		for _, from := range froms {
			gets[uint64(100+len(gets))] = from
		}
	}
	const pings = 60
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < pings; i++ {
			send(wire.NewPing(uint64(1000 + i)))
		}
	}()
	go func() {
		defer wg.Done()
		_, token := auth.Issue()
		live := sigtest.DistinctTops(rand.New(rand.NewSource(12)), sigtest.DefaultVocabulary, 10_000, 6, 9)
		req, err := wire.NewAdd(token, live)
		if err != nil {
			t.Error(err)
			return
		}
		if resp := srv.Process(req); resp.Status != wire.StatusOK || resp.Detail != "" {
			t.Errorf("live ADD: %+v", resp)
		}
	}()
	for id := uint64(100); id < uint64(100+len(gets)); id++ {
		send(wire.Request{Type: wire.MsgGet, ID: id, From: gets[id]})
	}

	// Every request is answered exactly once: a reply buffer reused
	// without being emptied would resend earlier frames.
	replies := map[uint64]wire.Response{}
	pongs := map[uint64]bool{}
	pushes := 0
	for len(replies) < len(gets) || len(pongs) < pings || pushes < 1 {
		var resp wire.Response
		if err := c.Recv(&resp); err != nil {
			t.Fatalf("after %d replies, %d pongs, %d pushes: %v", len(replies), len(pongs), pushes, err)
		}
		_, replied := replies[resp.ID]
		switch {
		case resp.Type == wire.MsgPush:
			pushes++
			if pushes > 1 || len(resp.Sigs) != 1 || resp.Next != n+2 {
				t.Fatalf("PUSH %d = %d signatures, next %d; want one, of 1 signature, next %d", pushes, len(resp.Sigs), resp.Next, n+2)
			}
		case resp.ID >= 1000 && !pongs[resp.ID]:
			pongs[resp.ID] = true
		case gets[resp.ID] != 0 && !replied:
			replies[resp.ID] = resp
		default:
			t.Fatalf("unexpected reply %d (a repeat, or to no request)", resp.ID)
		}
	}
	wg.Wait()
	// Nothing else is queued: a last PING's answer is the next frame.
	send(wire.NewPing(2000))
	var last wire.Response
	if err := c.Recv(&last); err != nil || last.ID != 2000 {
		t.Fatalf("after every reply, read %+v, %v; want the answer to PING 2000", last, err)
	}

	// The database only grows at its end, so each reply is a prefix of
	// the page a GET from the same index returns now.
	for id, resp := range replies {
		from := gets[id]
		ref := srv.Process(wire.Request{Type: wire.MsgGet, From: from})
		want := min(max(n+1-from, 0), len(ref.Sigs))
		if resp.Status != wire.StatusOK || len(resp.Sigs) < want || len(resp.Sigs) > len(ref.Sigs) {
			t.Fatalf("GET(%d) reply: status %s, %d signatures; want %d to %d", from, resp.Status, len(resp.Sigs), want, len(ref.Sigs))
		}
		for i, raw := range resp.Sigs {
			if !bytes.Equal(raw, ref.Sigs[i]) {
				t.Fatalf("GET(%d) reply, signature %d: %.80q, stored %.80q", from, i, raw, ref.Sigs[i])
			}
			if _, err := sig.Decode(raw); err != nil {
				t.Fatalf("GET(%d) reply, signature %d: %v", from, i, err)
			}
		}
	}
}

// TestReplyBufferOverCapNotPooled: storage past the largest frame the
// protocol allows never goes back to the pool; storage within it does.
func TestReplyBufferOverCapNotPooled(t *testing.T) {
	var p replyBuffers
	big := p.get()
	*big = make([]byte, 0, maxPooledReply+1)
	if p.put(big, nil) {
		t.Error("a buffer over the cap went back to the pool")
	}
	grown := p.get()
	frame := append((*grown)[:0], make([]byte, maxPooledReply+1)...)
	if p.put(grown, frame) {
		t.Error("a frame grown over the cap went back to the pool")
	}
	if !p.put(p.get(), make([]byte, 10, 4096)) {
		t.Error("a frame within the cap was dropped")
	}
	for i := 0; i < 64; i++ {
		if b := p.get(); cap(*b) > maxPooledReply {
			t.Fatalf("the pool handed out %d bytes of storage, over the cap %d", cap(*b), maxPooledReply)
		}
	}
}
