package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"

	"communix/benchmark/gen"
	"communix/internal/ids"
	"communix/internal/server"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
	"communix/internal/wire"
)

// goldenDigest is the StateDigest of a store fed goldenUploads by the
// server from before uploads were stored as sent, when every accepted
// signature was re-encoded.
const goldenDigest = "2a580ffe86dc534b100942746b4e62ee2e582b1709a2fd71b9d8ae95c4f03ba9"

// goldenUploads returns upload bytes by source: every sigtest
// generator's output as Encode writes it; "other" forms of further
// sigtest signatures that decode but are not Encode's bytes (indented,
// threads out of order, '<' unescaped), plus malformed uploads; and the
// benchmark's ingest and catchup signatures as its clients send them.
func goldenUploads(t *testing.T) map[string][]json.RawMessage {
	t.Helper()
	out := make(map[string][]json.RawMessage)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		base := sigtest.Signature(r, sigtest.DefaultVocabulary, 1, 30)
		for _, s := range []*sig.Signature{
			base,
			sigtest.SignatureN(r, sigtest.DefaultVocabulary, 3, 5, 10),
			sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 5, 8),
			sigtest.Manifestation(r, sigtest.DefaultVocabulary, base, 4),
		} {
			data, err := sig.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			out["sigtest"] = append(out["sigtest"], data)
		}
	}
	for i := 0; i < 30; i++ {
		s := sigtest.SignatureN(r, sigtest.DefaultVocabulary, 3, 5, 10)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		switch i % 3 {
		case 0:
			enc.SetIndent("", " ")
		case 1:
			slices.Reverse(s.Threads)
		case 2:
			enc.SetEscapeHTML(false)
			s.Threads[0].Outer[0].Class += "<T>"
		}
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		out["other"] = append(out["other"], bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	for _, bad := range []string{`{}`, `{"threads":[]}`, `{"threads":[{"outer":[]}]`, `{"threads":null,"extra":1}`, `not json`} {
		out["other"] = append(out["other"], json.RawMessage(bad))
	}
	ing, err := gen.Ingest(1, 0, 2, 20, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range [][][]gen.Upload{{ing.Preload}, ing.Paced, ing.Single, ing.Saturate} {
		for _, sched := range phase {
			for _, up := range sched {
				out["gen"] = append(out["gen"], up.Sig)
			}
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
	out["gen"] = append(out["gen"], cat.Sigs...)
	return out
}

// TestGoldenSameDatabaseSameBytes: a server fed uploads through Process,
// which stores exact upload bytes as sent, holds the same entries and
// StateDigest as a store that encodes every signature itself — and as
// the server before the change (goldenDigest). The benchmark's traffic
// is exact throughout, so the measured ADDs take the stored-as-sent path.
func TestGoldenSameDatabaseSameBytes(t *testing.T) {
	uploads := goldenUploads(t)
	for _, src := range []string{"sigtest", "other", "gen"} {
		valid, exact := 0, 0
		for _, data := range uploads[src] {
			if _, ok, err := sig.DecodeVerbatim(data); err == nil {
				valid++
				if ok {
					exact++
				}
			}
		}
		t.Logf("%s: %d of %d valid uploads decode exact (%.1f %%)", src, exact, valid, 100*float64(exact)/float64(valid))
		if src != "other" && exact != valid {
			t.Errorf("%s: %d of %d valid uploads decode exact, want all", src, exact, valid)
		}
	}

	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	srv, err := server.New(server.Config{Key: gen.Key, Clock: clock, MaxPerDay: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := store.New(store.Config{Clock: clock, MaxPerDay: 1 << 20})
	codec, err := ids.NewCodec(gen.Key)
	if err != nil {
		t.Fatal(err)
	}
	user := ids.UserID(0)
	for _, src := range []string{"sigtest", "other", "gen"} {
		for _, data := range uploads[src] {
			user++
			resp := srv.Process(wire.Request{Type: wire.MsgAdd, Token: codec.Mint(user), Sig: data})
			s, err := sig.Decode(data)
			if err != nil {
				if resp.Status != wire.StatusError {
					t.Fatalf("undecodable upload %q answered %s", data, resp.Status)
				}
				continue
			}
			res := ref.AddBatch([]store.Upload{{User: user, Sig: s}})[0]
			if res.Added != (resp.Status == wire.StatusOK && resp.Detail == "") {
				t.Fatalf("upload %q: reference added %v, server answered %+v", data, res.Added, resp)
			}
		}
	}

	got, _, _ := srv.Store().EntryPage(1, 0, 0)
	want, _, _ := ref.EntryPage(1, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("server holds %d entries, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].User != want[i].User || got[i].Unix != want[i].Unix || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("entry %d: server %d/%d/%s, reference %d/%d/%s", i+1,
				got[i].User, got[i].Unix, got[i].Data, want[i].User, want[i].Unix, want[i].Data)
		}
	}
	digest := srv.Store().StateDigest()
	if ref := ref.StateDigest(); digest != ref {
		t.Errorf("server digest %s, reference %s", digest, ref)
	}
	if digest != goldenDigest {
		t.Errorf("digest %s over %d entries, want the pinned %s", digest, len(got), goldenDigest)
	}
}
