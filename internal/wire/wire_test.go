package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

func TestRequestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := sigtest.Signature(r, sigtest.DefaultVocabulary, 5, 9)
	req, err := NewAdd("token123", s)
	if err != nil {
		t.Fatalf("NewAdd: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteMessage(&buf, req); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	var got Request
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if got.Type != MsgAdd || got.Token != "token123" {
		t.Errorf("round trip: %+v", got)
	}
	decoded, err := sig.Decode(got.Sig)
	if err != nil {
		t.Fatalf("decode embedded signature: %v", err)
	}
	if !decoded.Equal(s) {
		t.Error("embedded signature mutated in transit")
	}
}

func TestNewAddRejectsInvalidSignature(t *testing.T) {
	if _, err := NewAdd("t", &sig.Signature{}); err == nil {
		t.Error("invalid signature should fail")
	}
}

func TestNewGetClampsIndex(t *testing.T) {
	if got := NewGet(0); got.From != 1 {
		t.Errorf("NewGet(0).From = %d, want 1", got.From)
	}
	if got := NewGet(-5); got.From != 1 {
		t.Errorf("NewGet(-5).From = %d, want 1", got.From)
	}
	if got := NewGet(42); got.From != 42 {
		t.Errorf("NewGet(42).From = %d, want 42", got.From)
	}
}

func TestReadMessageRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	err := ReadMessage(bytes.NewReader(hdr[:]), &Request{})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame error = %v", err)
	}
}

// Reads and writes share one bound: a complete, well-formed frame one
// byte over MaxFrameSize is refused on read.
func TestReadRefusesFrameOverMaxFrameSize(t *testing.T) {
	payload, err := json.Marshal(Request{Type: MsgGet, From: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pad the payload with JSON whitespace to one byte past the bound.
	padded := append(make([]byte, 0, MaxFrameSize+1), payload...)
	for len(padded) <= MaxFrameSize {
		padded = append(padded, ' ')
	}
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(padded)))
	buf.Write(hdr[:])
	buf.Write(padded)
	var got Request
	err = ReadMessage(&buf, &got)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("read of a %d-byte frame = %v, want the size refusal", len(padded), err)
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, NewGet(1)); err != nil {
		t.Fatal(err)
	}
	// Chop the last byte off.
	data := buf.Bytes()[:buf.Len()-1]
	var got Request
	if err := ReadMessage(bytes.NewReader(data), &got); err == nil {
		t.Error("truncated payload should error")
	}
}

func TestReadMessageEOFOnEmptyStream(t *testing.T) {
	var got Request
	if err := ReadMessage(bytes.NewReader(nil), &got); err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

func TestReadMessageGarbagePayload(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("this is not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var got Request
	if err := ReadMessage(&buf, &got); err == nil {
		t.Error("garbage payload should error")
	}
}

func TestConnOverPipe(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		c := NewConn(srv)
		var req Request
		if err := c.Recv(&req); err != nil {
			done <- err
			return
		}
		done <- c.Send(Response{Status: StatusOK, Next: req.From + 1})
	}()

	c := NewConn(client)
	if err := c.Send(NewGet(7)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	var resp Response
	if err := c.Recv(&resp); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if resp.Status != StatusOK || resp.Next != 8 {
		t.Errorf("response = %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatalf("server side: %v", err)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 1; i <= 5; i++ {
		if err := WriteMessage(&buf, NewGet(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		var got Request
		if err := ReadMessage(&buf, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != i {
			t.Errorf("frame %d: From = %d", i, got.From)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if MsgAdd.String() != "ADD" || MsgGet.String() != "GET" {
		t.Error("unexpected MsgType strings")
	}
	if StatusOK.String() != "ok" || StatusRejected.String() != "rejected" || StatusError.String() != "error" {
		t.Error("unexpected Status strings")
	}
	if !strings.Contains(MsgType(99).String(), "99") || !strings.Contains(Status(99).String(), "99") {
		t.Error("unknown values should render numerically")
	}
}
