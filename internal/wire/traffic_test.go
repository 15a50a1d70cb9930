package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"communix/benchmark/gen"
	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/wire"
)

// TestFastPathCoversTraffic: every frame kind the program exchanges, built
// from the signatures the test generators and the benchmark's workloads
// produce, takes the frame codec both ways — the encoder writes
// json.Marshal's bytes and the decoder returns json.Unmarshal's value.
func TestFastPathCoversTraffic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	codec, err := ids.NewCodec(gen.Key)
	if err != nil {
		t.Fatal(err)
	}

	// Uploads in the form clients send them, and the store's re-encoding
	// of each accepted one: sigtest signatures, the catchup workload's
	// (application manifestations, depth-1 attacks, foreign builds) and the
	// ingest workload's.
	var uploads []json.RawMessage
	for i := 0; i < 64; i++ {
		for _, s := range []*sig.Signature{
			sigtest.Signature(r, sigtest.DefaultVocabulary, 5, 30),
			sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 5, 8),
		} {
			raw, err := sig.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			uploads = append(uploads, raw)
		}
	}
	app, err := gen.NewApp(1, 24)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := app.Catchup(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	uploads = append(uploads, cat.Sigs...)
	ing, err := gen.Ingest(1, 0, 2, 20, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ing.Preload {
		uploads = append(uploads, up.Sig)
	}
	var stored []json.RawMessage
	for _, raw := range uploads {
		s, err := sig.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, enc)
	}

	frames := map[string]any{}
	add := func(name string, v any) { frames[fmt.Sprintf("%s#%d", name, len(frames))] = v }

	// Requests.
	for i, raw := range uploads {
		tok := codec.Mint(ids.UserID(i))
		add("raw ADD", wire.Request{Type: wire.MsgAdd, ID: uint64(i + 1), Token: tok, Sig: raw})
		s, _ := sig.Decode(raw)
		req, err := wire.NewAdd(tok, s)
		if err != nil {
			t.Fatal(err)
		}
		add("ADD", req)
	}
	tok := codec.Mint(7)
	for _, req := range []wire.Request{
		wire.NewGet(1), wire.NewGet(2049), wire.NewHello(1), wire.NewHelloAt(1, 3), wire.NewPing(9),
		wire.NewSubscribe(2, 1), wire.NewSubscribeUser(2, 40, tok), wire.NewReplicate(3, 1, 2),
		wire.NewReplicate(3, 77, 2), wire.NewPromote(0), wire.NewVote(1, 4, 120, 3, "127.0.0.1:19201"),
		wire.NewCursorReport(12, 300, 3),
	} {
		add(req.Type.String(), req)
	}

	// GET replies and PUSH pages of stored signatures, and the same as
	// replication entry pages.
	for from := 0; from < len(stored); from += wire.MaxGetBatch {
		page := stored[from:min(from+wire.MaxGetBatch, len(stored))]
		next := from + len(page) + 1
		add("GET reply", wire.Response{Status: wire.StatusOK, ID: 4, Sigs: page, Next: next, More: next <= len(stored)})
		add("PUSH", wire.Response{Status: wire.StatusOK, Type: wire.MsgPush, Sigs: page, Next: next})
		entries := make([]wire.Entry, len(page))
		for i, raw := range page {
			entries[i] = wire.Entry{User: ids.UserID(from + i), Unix: 1760000000 + int64(i), Sig: raw}
		}
		add("entries PUSH", wire.Response{Status: wire.StatusOK, Type: wire.MsgPush, Entries: entries, Next: next})
	}

	// Every shape of HELLO reply decorateHello stamps: both roles, with
	// and without a primary address and a fence.
	histories := [][]wire.EpochFence{nil, {{E: 1, N: 0}}, {{E: 1, N: 0}, {E: 2, N: 40}, {E: 3, N: 41}}}
	for _, role := range []string{"primary", "follower"} {
		for _, primary := range []string{"", "127.0.0.1:19200", "replica.example:9124"} {
			for _, fence := range []int{0, 40} {
				for _, fences := range histories {
					add("HELLO reply", wire.Response{Status: wire.StatusOK, ID: 1, Version: wire.V2,
						Epoch: uint64(len(fences)), Role: role, Primary: primary, Fence: fence, Fences: fences})
				}
			}
		}
	}

	// The other replies.
	for _, resp := range []wire.Response{
		{Status: wire.StatusOK, ID: 3, Next: 812},
		{Status: wire.StatusOK, Next: 811, Detail: "duplicate"},
		{Status: wire.StatusRejected, ID: 3, Detail: "adjacent to a signature you already sent"},
		{Status: wire.StatusRejected, Detail: "daily signature limit reached"},
		{Status: wire.StatusBusy, ID: 8, Detail: "ingestion queue full, retry"},
		{Status: wire.StatusBusy, Detail: "quorum ack timeout; committed locally, retry"},
		{Status: wire.StatusNotPrimary, Primary: "127.0.0.1:19200", Detail: "follower replica: uploads go to the primary"},
		{Status: wire.StatusOK, Type: wire.MsgPush, Next: 300, More: true},
		{Status: wire.StatusOK, ID: 2},
		{Status: wire.StatusOK, ID: 2, Epoch: 3, Fences: histories[2]},
		{Status: wire.StatusRejected, Epoch: 4, Cursor: 120, Detail: "already voted in epoch 4"},
	} {
		add("reply", resp)
	}

	for name, v := range frames {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		frame, ok := wire.CanonicalFrame(v)
		if !ok {
			t.Errorf("%s takes the encoding/json fallback: %.200s", name, want)
			continue
		}
		if !bytes.Equal(frame[4:], want) {
			t.Fatalf("%s: frame encoder wrote %.200q\njson.Marshal: %.200q", name, frame[4:], want)
		}
		got := reflect.New(reflect.TypeOf(v)).Interface()
		if !wire.DecodeCanonical(want, got) {
			t.Errorf("%s: the frame decoder declines %.200s", name, want)
			continue
		}
		if resp, ok := got.(*wire.Response); ok {
			checkStoredSigsDecoded(t, name, resp)
			wire.ClearDecoded(resp)
		}
		ref := reflect.New(reflect.TypeOf(v)).Interface()
		if err := json.Unmarshal(want, ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: frame decoder value differs from json.Unmarshal's", name)
		}
	}
}

// checkStoredSigsDecoded: the frame decoder decodes every page
// signature the store serves on read, except one holding an escape
// (the store spells '<', '>' and '&' as escapes), which is outside the
// signature codec's canonical subset and left to the consumer; what it
// decodes is DecodeShared's value.
func checkStoredSigsDecoded(t *testing.T, name string, resp *wire.Response) {
	t.Helper()
	decoded := resp.DecodedSigs()
	for i, raw := range resp.Sigs {
		var s *sig.Signature
		if decoded != nil {
			s = decoded[i]
		}
		if s == nil {
			if bytes.IndexByte(raw, '\\') < 0 {
				t.Fatalf("%s: sigs[%d] was not decoded on read: %.200s", name, i, raw)
			}
			continue
		}
		want, err := sig.DecodeShared(raw)
		if err != nil || !reflect.DeepEqual(s, want) {
			t.Fatalf("%s: sigs[%d] decoded on read as %v; DecodeShared %v, %v", name, i, s, want, err)
		}
	}
}
