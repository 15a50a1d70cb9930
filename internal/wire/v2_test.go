package wire

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	req := NewHello(1)
	if req.Type != MsgHello || req.ID != 1 || req.Version != MaxVersion {
		t.Fatalf("NewHello = %+v", req)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Type != req.Type || got.ID != req.ID || got.Version != req.Version {
		t.Errorf("round trip changed HELLO: %+v != %+v", got, req)
	}
}

func TestSubscribeClampsIndex(t *testing.T) {
	if got := NewSubscribe(7, 0); got.From != 1 || got.ID != 7 || got.Type != MsgSubscribe {
		t.Errorf("NewSubscribe(7,0) = %+v", got)
	}
	if got := NewSubscribe(1, 42); got.From != 42 {
		t.Errorf("NewSubscribe(1,42).From = %d", got.From)
	}
}

func TestResponseV2FieldsRoundTrip(t *testing.T) {
	resp := Response{
		Status: StatusOK,
		ID:     99,
		Type:   MsgPush,
		Next:   17,
		More:   true,
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, resp); err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 99 || got.Type != MsgPush || got.Next != 17 || !got.More {
		t.Errorf("round trip: %+v", got)
	}
}

func TestV2TypeStrings(t *testing.T) {
	for want, m := range map[string]MsgType{
		"HELLO":     MsgHello,
		"SUBSCRIBE": MsgSubscribe,
		"PING":      MsgPing,
		"PUSH":      MsgPush,
	} {
		if m.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestPingHasNoPayload(t *testing.T) {
	req := NewPing(3)
	if req.Type != MsgPing || req.ID != 3 || req.From != 0 || req.Sig != nil {
		t.Errorf("NewPing = %+v", req)
	}
}

// Conn.Hello accepts only an ok at version 2 or later, and hands a
// refusal's reply back with the error so callers can tell busy apart.
func TestConnHelloAcceptsOnlyV2(t *testing.T) {
	for _, tc := range []struct {
		reply Response
		ok    bool
	}{
		{Response{Status: StatusOK, ID: 1, Version: V2, Epoch: 3}, true},
		{Response{Status: StatusOK, ID: 1, Version: 1}, false},
		{Response{Status: StatusBusy, ID: 1, Detail: "session limit reached"}, false},
		{Response{Status: StatusError, ID: 1, Detail: "unsupported protocol version 1"}, false},
	} {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			c := NewConn(server)
			var req Request
			if c.Recv(&req) != nil || req.Type != MsgHello || req.ID != 1 || req.Epoch != 7 || req.Node != "n1" {
				return
			}
			_ = c.Send(tc.reply)
		}()
		resp, err := NewConn(client).Hello(7, "n1")
		client.Close()
		if (err == nil) != tc.ok {
			t.Errorf("Hello against %+v: err = %v, want ok=%v", tc.reply, err, tc.ok)
		}
		if resp.Status != tc.reply.Status || resp.Detail != tc.reply.Detail {
			t.Errorf("Hello returned %+v, want the reply %+v", resp, tc.reply)
		}
		if !tc.ok && err != nil && !strings.Contains(err.Error(), tc.reply.Status.String()) {
			t.Errorf("refusal error %q does not name the status %s", err, tc.reply.Status)
		}
	}
}
