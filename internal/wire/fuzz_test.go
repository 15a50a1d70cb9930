package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadRequest: the server reads frames from untrusted connections;
// arbitrary bytes must never panic, and whatever parses must survive a
// round trip unless its signature is not JSON — the frame decoder only
// delimits it, processAdd rejects it, and EncodeFrame refuses it.
func FuzzReadRequest(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, NewGet(7)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte(`garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := ReadMessage(bytes.NewReader(data), &req); err != nil || req.Sig != nil && !json.Valid(req.Sig) {
			return
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, req); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		var back Request
		if err := ReadMessage(&out, &back); err != nil {
			t.Fatalf("reread: %v", err)
		}
		if back.Type != req.Type || back.From != req.From || back.Token != req.Token ||
			back.ID != req.ID || back.Version != req.Version {
			t.Fatal("round trip changed the request")
		}
	})
}

// FuzzReadResponse: a v2 client's session reader decodes every inbound
// frame — HELLO acks, multiplexed responses, server-initiated PUSHes —
// from a peer it does not control; arbitrary bytes must never panic, and
// whatever parses with every signature JSON must survive a round trip
// (the server's writer uses the same encoder). A page with a signature
// that is not JSON is the repository's to reject.
func FuzzReadResponse(f *testing.F) {
	seed := func(v any) {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(Response{Status: StatusOK, ID: 1, Version: V2})                                   // HELLO ack
	seed(Response{Status: StatusOK, Type: MsgPush, Sigs: nil, Next: 4, More: true})        // catch-up marker
	seed(Response{Status: StatusOK, Type: MsgPush, Sigs: []json.RawMessage{[]byte(`{}`)}}) // push delta
	seed(Response{Status: StatusBusy, ID: 9, Detail: "ingestion queue full, retry"})       // busy verdict
	seed(Response{Status: StatusOK, ID: 3, Sigs: []json.RawMessage{[]byte(`{"x":1}`)}, Next: 2})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := ReadMessage(bytes.NewReader(data), &resp); err != nil {
			return
		}
		for _, raw := range resp.Sigs {
			if raw != nil && !json.Valid(raw) {
				return
			}
		}
		for _, en := range resp.Entries {
			if en.Sig != nil && !json.Valid(en.Sig) {
				return
			}
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, resp); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		var back Response
		if err := ReadMessage(&out, &back); err != nil {
			t.Fatalf("reread: %v", err)
		}
		if back.Status != resp.Status || back.ID != resp.ID || back.Type != resp.Type ||
			back.Next != resp.Next || back.More != resp.More || back.Version != resp.Version ||
			len(back.Sigs) != len(resp.Sigs) {
			t.Fatal("round trip changed the response")
		}
	})
}
