package repo

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

func encodeSig(t *testing.T, s *sig.Signature) json.RawMessage {
	t.Helper()
	data, err := sig.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func someSigs(t *testing.T, n int, seed int64) []json.RawMessage {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]json.RawMessage, n)
	for i := range out {
		out[i] = encodeSig(t, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9))
	}
	return out
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	r, err := Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.Next() != 1 {
		t.Errorf("fresh repo: len=%d next=%d", r.Len(), r.Next())
	}
}

func TestAppendAndCursor(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	sigs := someSigs(t, 3, 1)
	if err := r.Append(sigs, 4); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Next() != 4 {
		t.Errorf("len=%d next=%d, want 3/4", r.Len(), r.Next())
	}
	// Stale next must not move the cursor backwards.
	if err := r.Append(nil, 2); err != nil {
		t.Fatal(err)
	}
	if r.Next() != 4 {
		t.Errorf("cursor moved backwards to %d", r.Next())
	}
}

// TestAppendOverlapIsIdempotent: two syncs can fetch overlapping server
// ranges (the background client's immediate first sync racing an
// explicit SyncNow); re-appending an already-covered range must not
// duplicate entries.
func TestAppendOverlapIsIdempotent(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	batch := someSigs(t, 3, 1)
	if err := r.Append(batch, 4); err != nil {
		t.Fatal(err)
	}
	// The identical batch again: fully covered, nothing appended.
	if err := r.Append(batch, 4); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Next() != 4 {
		t.Errorf("after duplicate append: len=%d next=%d, want 3/4", r.Len(), r.Next())
	}
	// A batch overlapping the covered prefix: only the new suffix lands.
	wider := append(append([]json.RawMessage{}, batch[1:]...), someSigs(t, 2, 10)...)
	if err := r.Append(wider, 6); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 || r.Next() != 6 {
		t.Errorf("after overlapping append: len=%d next=%d, want 5/6", r.Len(), r.Next())
	}
}

func TestAppendSkipsUndecodable(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	sigs := someSigs(t, 2, 2)
	mixed := []json.RawMessage{sigs[0], json.RawMessage(`{"bogus":1}`), sigs[1]}
	if err := r.Append(mixed, 4); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("len = %d, want 2 (bogus skipped)", r.Len())
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(someSigs(t, 4, 3), 5); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkInspected("appA", 2, []int{1}); err != nil {
		t.Fatal(err)
	}

	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 || got.Next() != 5 {
		t.Errorf("reloaded: len=%d next=%d", got.Len(), got.Next())
	}
	if n := len(got.NewSince("appA")); n != 2 {
		t.Errorf("NewSince(appA) = %d, want 2", n)
	}
	if n := len(got.NewSince("appB")); n != 4 {
		t.Errorf("NewSince(appB) = %d, want 4 (cursors are per app)", n)
	}
	pend := got.PendingNesting("appA")
	if len(pend) != 1 || pend[0].Index != 1 {
		t.Errorf("PendingNesting = %+v", pend)
	}
	// Loaded signatures are remote-origin.
	if pend[0].Sig.Origin != sig.OriginRemote {
		t.Error("repository signatures must be remote-origin")
	}
}

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := os.WriteFile(path, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt repo should fail to open")
	}
	// Invalid embedded signature is also a corruption error.
	if err := os.WriteFile(path, []byte(`{"next":2,"sigs":[{"threads":[]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("invalid embedded signature should fail to open")
	}
}

// TestNewSinceSharesDecodedSignatures pins the read-only contract: every
// listing hands out the signature Append decoded, not a copy, and that
// signature still encodes to the bytes it was appended as.
func TestNewSinceSharesDecodedSignatures(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	raw := someSigs(t, 4, 4)
	if err := r.Append(raw[:2], 3); err != nil {
		t.Fatal(err)
	}
	first := r.NewSince("app")
	if err := r.Append(raw[2:], 5); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkInspected("app", 0, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	all := r.NewSince("app")
	if len(first) != 2 || len(all) != 4 {
		t.Fatalf("NewSince listed %d then %d entries, want 2 then 4", len(first), len(all))
	}
	for i, e := range first {
		if all[i].Sig != e.Sig {
			t.Errorf("entry %d: a later Append or listing replaced its signature", i)
		}
	}
	for _, e := range r.PendingNesting("app") {
		if e.Sig != all[e.Index].Sig {
			t.Errorf("PendingNesting entry %d is not NewSince's signature", e.Index)
		}
	}
	for i, e := range all {
		if got := encodeSig(t, e.Sig); string(got) != string(raw[i]) {
			t.Errorf("entry %d encodes to %s, appended as %s", i, got, raw[i])
		}
		if e.Sig.Origin != sig.OriginRemote {
			t.Errorf("entry %d has origin %s, want remote", i, e.Sig.Origin)
		}
	}
}

func TestMarkInspectedMonotonic(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(someSigs(t, 5, 5), 6); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkInspected("app", 4, nil); err != nil {
		t.Fatal(err)
	}
	// A smaller "through" must not rewind.
	if err := r.MarkInspected("app", 2, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(r.NewSince("app")); n != 1 {
		t.Errorf("NewSince = %d, want 1", n)
	}
}

func TestResolvePending(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(someSigs(t, 4, 6), 5); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkInspected("app", 4, []int{0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.ResolvePending("app", []int{2}); err != nil {
		t.Fatal(err)
	}
	pend := r.PendingNesting("app")
	if len(pend) != 2 || pend[0].Index != 0 || pend[1].Index != 3 {
		t.Errorf("pending after resolve = %+v", pend)
	}
	if err := r.ResolvePending("app", []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	if len(r.PendingNesting("app")) != 0 {
		t.Error("pending should be empty")
	}
	// Resolving nothing is a no-op.
	if err := r.ResolvePending("app", nil); err != nil {
		t.Fatal(err)
	}
}

func TestPendingDeduplicated(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(someSigs(t, 3, 7), 4); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkInspected("app", 3, []int{1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkInspected("app", 3, []int{2}); err != nil {
		t.Fatal(err)
	}
	if n := len(r.PendingNesting("app")); n != 2 {
		t.Errorf("pending = %d entries, want 2 (deduplicated)", n)
	}
}

func TestConcurrentAppendAndInspect(t *testing.T) {
	r, err := Open(filepath.Join(t.TempDir(), "repo.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = r.Append(someSigs(t, 1, int64(100+i)), r.Next()+1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			entries := r.NewSince("app")
			if len(entries) > 0 {
				_ = r.MarkInspected("app", entries[len(entries)-1].Index+1, nil)
			}
		}
	}()
	wg.Wait()
	if r.Len() != 20 {
		t.Errorf("len = %d, want 20", r.Len())
	}
}

func TestEpochAdoptionAndReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0 (pre-epoch)", r.Epoch())
	}
	if err := r.Append(someSigs(t, 5, 31), 6); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEpoch(2); err != nil {
		t.Fatal(err)
	}
	// Epochs only move forward: a stale SetEpoch is a silent no-op.
	if err := r.SetEpoch(1); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 2 || r.Len() != 5 {
		t.Fatalf("after SetEpoch: epoch=%d len=%d", r.Epoch(), r.Len())
	}

	// Reset: the fenced repository discards everything, rewinds the
	// cursor, adopts the new epoch — and the wipe is durable.
	if err := r.MarkInspected("app", 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Reset(3); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.Next() != 1 || r.Epoch() != 3 {
		t.Fatalf("after Reset: len=%d next=%d epoch=%d", r.Len(), r.Next(), r.Epoch())
	}
	if got := r.NewSince("app"); len(got) != 0 {
		t.Fatalf("inspection state survived Reset: %d entries", len(got))
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || re.Epoch() != 3 {
		t.Fatalf("reopened: len=%d epoch=%d", re.Len(), re.Epoch())
	}
}

// TestAppendRejectsPageWithNonJSON: the repository is the one validator
// of downloaded signatures, and a value that is not JSON rejects the
// whole page — below the cursor too — with nothing kept and the cursor
// unmoved, while a JSON value that is not a signature is still skipped.
func TestAppendRejectsPageWithNonJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sigs := someSigs(t, 4, 4)
	if err := r.Append(sigs[:1], 2); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	notJSON := json.RawMessage(`{"threads":[1}]`)
	for name, page := range map[string][]json.RawMessage{
		"new":     {sigs[1], notJSON, sigs[2]},
		"covered": {notJSON, sigs[1], sigs[2]},
	} {
		if err := r.Append(page, 4); err == nil {
			t.Errorf("%s: Append accepted a page with a value that is not JSON", name)
		}
		if r.Len() != 1 || r.Next() != 2 {
			t.Errorf("%s: after a rejected page len=%d next=%d, want 1/2", name, r.Len(), r.Next())
		}
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("a rejected page rewrote the file: %v", err)
	}
	if err := r.Append([]json.RawMessage{sigs[1], json.RawMessage(`{"threads":[]}`), sigs[3]}, 5); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Next() != 5 {
		t.Errorf("after a page with an invalid signature len=%d next=%d, want 3/5", r.Len(), r.Next())
	}
}

// TestAppendNothingNewWritesNothing: a repeated page, or a stale empty
// one, changes nothing and must not rewrite the file.
func TestAppendNothingNewWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sigs := someSigs(t, 3, 5)
	if err := r.Append(sigs, 4); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []struct {
		raw  []json.RawMessage
		next int
	}{{sigs, 4}, {sigs[1:], 4}, {nil, 2}, {nil, 4}} {
		if err := r.Append(page.raw, page.next); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("an Append that changed nothing rewrote the file")
	}
	if r.Len() != 3 || r.Next() != 4 {
		t.Errorf("len=%d next=%d, want 3/4", r.Len(), r.Next())
	}
}

// BenchmarkRepoAppend: one full page of signatures into an in-memory
// repository — the client's share of catch-up, decode included.
func BenchmarkRepoAppend(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	page := make([]json.RawMessage, 256)
	for i := range page {
		data, err := sig.Encode(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9))
		if err != nil {
			b.Fatal(err)
		}
		page[i] = data
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rp, err := Open("")
		if err != nil {
			b.Fatal(err)
		}
		if err := rp.Append(page, len(page)+1); err != nil || rp.Len() != len(page) {
			b.Fatalf("Append: %v, len %d", err, rp.Len())
		}
	}
}

// TestAppendDecodedTakesDecodedSlots: AppendDecoded keeps the
// signatures it is handed instead of decoding their bytes again, decodes
// and judges the nil slots and those past the end of decoded as Append
// does, and so ends in Append's state.
func TestAppendDecodedTakesDecodedSlots(t *testing.T) {
	sigs := someSigs(t, 5, 7)
	page := []json.RawMessage{sigs[0], sigs[1], json.RawMessage(`{"threads":[]}`), sigs[2], sigs[3], sigs[4]}
	decoded := make([]*sig.Signature, 4) // the last two slots are past its end
	for _, i := range []int{0, 3} {
		s, err := sig.DecodeShared(page[i])
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = s
	}
	ref, _ := Open("")
	if err := ref.Append(page[:1], 2); err != nil {
		t.Fatal(err)
	}
	got, _ := Open("")
	if err := got.Append(page[:1], 2); err != nil {
		t.Fatal(err)
	}
	// The first slot is below the cursor: covered, not kept twice.
	if err := ref.Append(page, 7); err != nil {
		t.Fatal(err)
	}
	if err := got.AppendDecoded(page, decoded, 7); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 || got.Next() != 7 || ref.Len() != got.Len() || ref.Next() != got.Next() {
		t.Fatalf("len=%d next=%d; Append gives %d/%d, want 5/7", got.Len(), got.Next(), ref.Len(), ref.Next())
	}
	gotEntries, refEntries := got.NewSince("app"), ref.NewSince("app")
	if !reflect.DeepEqual(gotEntries, refEntries) {
		t.Fatalf("decoded signatures differ from Append's:\n%v\n%v", gotEntries, refEntries)
	}
	if gotEntries[2].Sig != decoded[3] {
		t.Error("AppendDecoded decoded a signature it was handed again")
	}
	if decoded[3].Origin != sig.OriginRemote {
		t.Errorf("a handed-in signature kept origin %v", decoded[3].Origin)
	}
	// A decoded slot stands for valid JSON, below the cursor too; a nil
	// slot holding a value that is not JSON still rejects the page.
	notJSON := json.RawMessage(`{"threads":[1}]`)
	last, err := sig.DecodeShared(sigs[4])
	if err != nil {
		t.Fatal(err)
	}
	if err := got.AppendDecoded([]json.RawMessage{sigs[4], notJSON}, []*sig.Signature{last, nil}, 8); err == nil {
		t.Error("AppendDecoded accepted a page with a value that is not JSON")
	}
	if got.Len() != 5 || got.Next() != 7 {
		t.Errorf("after a rejected page len=%d next=%d, want 5/7", got.Len(), got.Next())
	}
}
