package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
)

// applyAll pages src's full log into dst through the replication
// interface, exactly as a follower would.
func applyAll(t *testing.T, src, dst *Store) {
	t.Helper()
	for {
		entries, next, more := src.EntryPage(dst.Len()+1, 64, 0)
		if len(entries) > 0 {
			if _, err := dst.ApplyReplicated(next-len(entries), entries); err != nil {
				t.Fatalf("ApplyReplicated: %v", err)
			}
		}
		if !more && dst.Len() >= src.Len() {
			return
		}
		if len(entries) == 0 && !more {
			return
		}
	}
}

// TestApplyReplicatedRebuildsIdenticalState ships a primary's log into
// a follower page by page and demands the full observable state —
// digest, GET sequence, duplicate set, per-user budget — comes out
// byte-identical. Overlapping re-application must be a no-op
// (idempotency is what makes at-least-once shipping safe), and a gap
// must be refused.
func TestApplyReplicatedRebuildsIdenticalState(t *testing.T) {
	clockA, clockB := newTestClock(), newTestClock()
	primary := New(Config{MaxPerDay: 5, Clock: clockA.Now})
	follower := New(Config{MaxPerDay: 5, Clock: clockB.Now})

	r := rand.New(rand.NewSource(21))
	for i := 0; i < 120; i++ {
		if i == 40 || i == 80 {
			clockA.Advance(25 * time.Hour)
			clockB.Advance(25 * time.Hour)
		}
		// The final day sees ~6 attempts per user against a budget of 5,
		// so some users end the run at quota — rejected uploads never
		// enter the log and must not count on the follower either.
		_, _ = primary.Add(ids.UserID(i%7+1), distinctSig(r, i))
	}
	applyAll(t, primary, follower)

	if primary.Len() != follower.Len() {
		t.Fatalf("Len: primary=%d follower=%d", primary.Len(), follower.Len())
	}
	if dp, df := primary.StateDigest(), follower.StateDigest(); dp != df {
		t.Fatalf("state digests diverge:\n  primary  %s\n  follower %s", dp, df)
	}
	wantSeq, gotSeq := getAll(t, primary), getAll(t, follower)
	for i := range wantSeq {
		if wantSeq[i] != gotSeq[i] {
			t.Fatalf("GET sequence differs at %d", i)
		}
	}

	// The follower's rebuilt budget matches: the primary's last accepted
	// uploads today count against the same per-user windows, so a user
	// over quota on the primary is over quota on a promoted follower.
	limited := 0
	for user := ids.UserID(1); user <= 7; user++ {
		okP, errP := primary.Add(user, distinctSig(r, 10_000+int(user)))
		okF, errF := follower.Add(user, distinctSig(r, 20_000+int(user)))
		if okP != okF || errors.Is(errP, ErrRateLimited) != errors.Is(errF, ErrRateLimited) {
			t.Fatalf("user %d post-replication verdicts diverge: primary=(%v,%v) follower=(%v,%v)",
				user, okP, errP, okF, errF)
		}
		if errors.Is(errP, ErrRateLimited) {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("no user ended the run at quota; the budget comparison proved nothing")
	}

	// Idempotent overlap: re-shipping an already-applied page changes
	// nothing (the divergent Adds above are local; rebuild a fresh pair).
	entries, next, _ := primary.EntryPage(1, 50, 0)
	before := follower.Len()
	n, err := follower.ApplyReplicated(next-len(entries), entries)
	if err != nil || n != 0 {
		t.Fatalf("overlap apply = (%d,%v), want (0,nil)", n, err)
	}
	if follower.Len() != before {
		t.Fatalf("overlap apply grew the log: %d -> %d", before, follower.Len())
	}

	// A gap is refused: page starting past len+1 means lost frames.
	if _, err := follower.ApplyReplicated(follower.Len()+2, entries[:1]); err == nil {
		t.Fatal("gap apply succeeded, want error")
	}
}

// TestApplyReplicatedRejectsForeignDuplicate: an entry whose signature
// is already present at a different index is divergence, not overlap —
// it must fail loudly instead of silently corrupting the dup set.
func TestApplyReplicatedRejectsForeignDuplicate(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	primary := New(Config{MaxPerDay: 100})
	mustAdd(t, primary, 1, distinctSig(r, 0))
	mustAdd(t, primary, 1, distinctSig(r, 1))

	follower := New(Config{MaxPerDay: 100})
	entries, _, _ := primary.EntryPage(1, 0, 0)
	// Ship entry 2 as if it were index 1: content duplicate at the wrong
	// position once the real stream arrives.
	if _, err := follower.ApplyReplicated(1, entries[1:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyReplicated(2, entries[1:2]); err == nil {
		t.Fatal("replicated duplicate accepted, want error")
	}
}

// TestApplyReplicatedRejectsPageWithBadSignature: the frame decoder
// only delimits replicated signatures, so ApplyReplicated validates the
// whole page before applying any of it. A page with one value that is
// not JSON, or one that is not a signature, applies nothing and leaves
// no trace: the same page without it then applies in full.
func TestApplyReplicatedRejectsPageWithBadSignature(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	primary := New(Config{MaxPerDay: 100})
	for i := 0; i < 4; i++ {
		mustAdd(t, primary, 1, distinctSig(r, i))
	}
	entries, _, _ := primary.EntryPage(1, 0, 0)
	follower := New(Config{MaxPerDay: 100})
	if _, err := follower.ApplyReplicated(1, entries[:1]); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{"not JSON": `{"threads":[1}]`, "not a signature": `{"threads":[]}`} {
		for _, at := range []int{0, 2} { // below the cursor, and new
			if at == 0 && name == "not a signature" {
				continue // a skipped entry is only checked for JSON
			}
			page := append([]Entry(nil), entries...)
			page[at].Data = []byte(bad)
			if n, err := follower.ApplyReplicated(1, page); err == nil || n != 0 {
				t.Errorf("%s at %d: applied %d, err %v; want an error and nothing applied", name, at, n, err)
			}
			if follower.Len() != 1 {
				t.Errorf("%s at %d: follower holds %d entries, want 1", name, at, follower.Len())
			}
		}
	}
	if n, err := follower.ApplyReplicated(1, entries); err != nil || n != 3 {
		t.Fatalf("the good page after the refused ones: applied %d, %v; want 3", n, err)
	}
	if got, want := follower.StateDigest(), primary.StateDigest(); got != want {
		t.Errorf("follower digest %s, primary %s", got, want)
	}
}

// TestApplyReplicatedRejectedPageLeavesNoTrace: a page that repeats a
// signature, [A, B, A], is refused before any of it is recorded. Had A
// and B entered the duplicate set, every later re-ship of [A, B] would
// fail as a duplicate and wedge the follower.
func TestApplyReplicatedRejectedPageLeavesNoTrace(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	primary := New(Config{MaxPerDay: 100})
	mustAdd(t, primary, 1, distinctSig(r, 0))
	mustAdd(t, primary, 2, distinctSig(r, 1))
	entries, _, _ := primary.EntryPage(1, 0, 0)

	follower := New(Config{MaxPerDay: 100})
	page := []Entry{entries[0], entries[1], entries[0]}
	if n, err := follower.ApplyReplicated(1, page); err == nil || n != 0 {
		t.Fatalf("[A, B, A] applied %d, err %v; want an error and nothing applied", n, err)
	}
	if n, err := follower.ApplyReplicated(1, entries); err != nil || n != 2 {
		t.Fatalf("[A, B] after the refused page: applied %d, %v; want 2", n, err)
	}
	if got, want := follower.StateDigest(), primary.StateDigest(); got != want {
		t.Errorf("follower digest %s, primary %s", got, want)
	}
}

// TestEpochMetaPersistsAcrossReopen: promotions bump a durable epoch
// with a fence at the promoted length, and a reopen recovers both.
func TestEpochMetaPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(23))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", st.Epoch())
	}
	for i := 0; i < 5; i++ {
		mustAdd(t, st, 1, distinctSig(r, i))
	}
	epoch, err := st.Promote()
	if err != nil || epoch != 2 {
		t.Fatalf("Promote = (%d,%v), want (2,nil)", epoch, err)
	}
	fences := st.Fences()
	if len(fences) != 1 || fences[0] != (Fence{E: 2, N: 5}) {
		t.Fatalf("fences = %+v, want [{2 5}]", fences)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 2 {
		t.Fatalf("reopened epoch = %d, want 2", re.Epoch())
	}
	if f := re.Fences(); len(f) != 1 || f[0] != (Fence{E: 2, N: 5}) {
		t.Fatalf("reopened fences = %+v", f)
	}
}

// TestSafeLenFencingRules pins the fencing math: the safe prefix for a
// peer at an older epoch is the minimum fence over every promotion it
// missed, and a gap in fence coverage (an epoch with no recorded
// promotion) yields 0 — full resync, never a guess.
func TestSafeLenFencingRules(t *testing.T) {
	st := New(Config{})
	if err := st.AdoptEpoch(4, []Fence{{E: 2, N: 5}, {E: 3, N: 3}, {E: 4, N: 7}}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 9; i++ {
		mustAdd(t, st, 1, distinctSig(r, i))
	}
	cases := []struct {
		peer uint64
		want int
	}{
		{4, 9}, // same epoch: the whole log is safe
		{5, 9}, // newer peer: it fences itself, not us
		{3, 7}, // missed epoch 4 only
		{2, 3}, // missed 3 and 4: min(3,7)
		{1, 3}, // missed 2,3,4: min(5,3,7)
		{0, 0}, // pre-epoch peer: no fence covers epoch 1 -> full resync
	}
	for _, c := range cases {
		if got := st.SafeLen(c.peer); got != c.want {
			t.Errorf("SafeLen(%d) = %d, want %d", c.peer, got, c.want)
		}
	}

	// Stale adoption is refused; equal-epoch adoption merges fences.
	if err := st.AdoptEpoch(3, nil); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("AdoptEpoch(3) = %v, want ErrStaleEpoch", err)
	}
}

// TestEntryPageBelowTheTailAcrossRestart: entries in sealed segments
// stay in the log. Every cursor — in a sealed segment, in the active
// tail, and past the end — is served from memory, before and after a
// reopen replays every segment, so a follower can resume from wherever
// it stopped.
func TestEntryPageBelowTheTailAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(25))
	cfg := persistCfg(dir, clock)
	cfg.segmentMaxBytes = 2048 // ~1 signature per segment
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustAdd(t, st, ids.UserID(i+1), distinctSig(r, i))
	}
	if got := st.PersistStats().Segments; got < 3 {
		t.Fatalf("%d segments, want most entries below the tail", got)
	}
	want, _, _ := st.EntryPage(1, 0, 0)
	check := func(st *Store, when string) {
		t.Helper()
		for from := 1; from <= 7; from++ {
			entries, next, more := st.EntryPage(from, 0, 0)
			if len(entries) != 7-from || next != 7 || more {
				t.Fatalf("%s: EntryPage(%d) = (%d entries, next %d, more %v), want %d entries to 7",
					when, from, len(entries), next, more, 7-from)
			}
			for i, e := range entries {
				w := want[from-1+i]
				if e.User != w.User || e.Unix != w.Unix || !bytes.Equal(e.Data, w.Data) {
					t.Fatalf("%s: EntryPage(%d) entry %d differs", when, from, i)
				}
			}
		}
	}
	if len(want) != 6 {
		t.Fatalf("EntryPage(1) = %d entries, want 6", len(want))
	}
	check(st, "before the restart")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after reopen")
}

// TestResetReplicaWipesDiskState: a reset follower is empty in memory
// AND on disk (no WAL segment or legacy snapshot resurrects old entries
// on reopen), while the epoch survives — identity is not state.
func TestResetReplicaWipesDiskState(t *testing.T) {
	dir, _ := legacyDir(t)
	clock := newTestClock()
	r := rand.New(rand.NewSource(26))
	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AdoptEpoch(3, []Fence{{E: 2, N: 1}, {E: 3, N: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := st.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	if ps := st.PersistStats(); st.Len() != 0 || ps.Entries != 0 || ps.Segments != 1 {
		t.Fatalf("after reset: Len=%d stats %+v", st.Len(), ps)
	}
	// The store is immediately usable: replicate fresh entries in.
	// (Same clock: StateDigest normalizes budget to the current day.)
	src := New(Config{Clock: clock.Now})
	for i := 100; i < 103; i++ {
		mustAdd(t, src, 2, distinctSig(r, i))
	}
	applyAll(t, src, st)
	if st.Len() != 3 {
		t.Fatalf("post-reset replication Len = %d, want 3", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: only the post-reset entries exist; epoch survived.
	re, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", re.Len())
	}
	if re.Epoch() != 3 {
		t.Fatalf("reopened epoch = %d, want 3", re.Epoch())
	}
	if re.StateDigest() != src.StateDigest() {
		t.Fatal("reopened reset follower diverges from source")
	}
	// No stray pre-reset files linger.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if isSnapshot(f.Name()) || strings.HasSuffix(f.Name(), ".tmp") {
			t.Errorf("leftover file %s", f.Name())
		}
	}
}

// TestFollowerDurableReplicationSurvivesRestart: a follower persisting
// replicated entries through its own WAL resumes from its recovered
// cursor after a restart and converges to the primary's exact state —
// the crash-consistency half of the log-shipping design.
func TestFollowerDurableReplicationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(27))

	primary := New(Config{MaxPerDay: 1 << 30, Clock: clock.Now})
	for i := 0; i < 50; i++ {
		mustAdd(t, primary, ids.UserID(i%3+1), distinctSig(r, i))
	}

	follower, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	// Ship half, then "crash" (close flushes; torn-tail variants are
	// covered by TestReplicaTornWALRestart below).
	entries, next, _ := primary.EntryPage(1, 25, 0)
	if _, err := follower.ApplyReplicated(next-len(entries), entries); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 25 {
		t.Fatalf("recovered cursor = %d, want 25", re.Len())
	}
	applyAll(t, primary, re)
	if re.StateDigest() != primary.StateDigest() {
		t.Fatal("restarted follower diverges from primary")
	}
}

// TestReplicaTornWALRestart reuses the kill-mid-write machinery: the
// follower's WAL segment is truncated at EVERY byte offset, and from
// each torn prefix the follower must recover a clean prefix, resume
// replication from its recovered cursor, and converge to the primary's
// exact digest. This is the fault-injection proof that replication
// composes with the WAL's torn-tail recovery.
func TestReplicaTornWALRestart(t *testing.T) {
	clock := newTestClock()
	r := rand.New(rand.NewSource(28))
	primary := New(Config{MaxPerDay: 1 << 30, Clock: clock.Now})
	const records = 4
	for i := 0; i < records; i++ {
		mustAdd(t, primary, ids.UserID(i+1), distinctSig(r, i))
	}
	wantDigest := primary.StateDigest()

	// Build one fully-replicated follower directory to tear copies of.
	seedDir := t.TempDir()
	follower, err := Open(persistCfg(seedDir, clock))
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, primary, follower)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(seedDir, segmentName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := segmentRecordBoundaries(t, full)

	crash := t.TempDir()
	for off := 0; off < len(full); off += 7 { // every offset is slow under -race; stride covers every boundary class
		expect := 0
		for _, b := range bounds {
			if b <= off {
				expect++
			}
		}
		expect--
		if expect < 0 {
			expect = 0
		}

		cdir := filepath.Join(crash, "d")
		if err := os.RemoveAll(cdir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, segmentName(1)), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(persistCfg(cdir, clock))
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if re.Len() != expect {
			t.Fatalf("offset %d: recovered %d entries, want %d", off, re.Len(), expect)
		}
		// Resume replication from the recovered cursor; the overlap page
		// the primary re-ships is skipped idempotently.
		applyAll(t, primary, re)
		if got := re.StateDigest(); got != wantDigest {
			t.Fatalf("offset %d: digest diverges after resumed replication", off)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
}

// TestPrimaryRestartDuringCatchUp: a primary that restarts while a
// reader is mid-stream serves the rest from the reader's cursor, which
// sits below the tail — the reopened log replays every segment and
// nothing trims it.
func TestPrimaryRestartDuringCatchUp(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(29))
	cfg := persistCfg(dir, clock)
	cfg.segmentMaxBytes = 4096
	primary, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { primary.Close() }() // the reopened store
	for i := 0; i < 30; i++ {
		mustAdd(t, primary, ids.UserID(i%4+1), distinctSig(r, i))
	}
	follower := New(Config{MaxPerDay: 1 << 30, Clock: clock.Now})

	for page := 0; ; page++ {
		entries, next, more := primary.EntryPage(follower.Len()+1, 10, 0)
		if len(entries) > 0 {
			if _, err := follower.ApplyReplicated(next-len(entries), entries); err != nil {
				t.Fatalf("page %d: %v", page, err)
			}
		}
		if page == 1 {
			// The primary restarts with the reader's cursor in a sealed
			// segment. The stream must continue regardless.
			if err := primary.Close(); err != nil {
				t.Fatal(err)
			}
			if primary, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if !more {
			break
		}
	}
	if follower.StateDigest() != primary.StateDigest() {
		t.Fatal("follower diverges after a primary restart during catch-up")
	}
}

// TestNonExactEntriesServedAsEncoded: a WAL record and a replicated
// entry whose bytes are a valid signature but not what sig.Encode writes
// (whitespace between tokens, threads out of canonical order) are both
// served as sig.Encode's bytes — after Open's replay, after
// ApplyReplicated, and after a reopen of the follower's own WAL.
func TestNonExactEntriesServedAsEncoded(t *testing.T) {
	clock := newTestClock()
	r := rand.New(rand.NewSource(30))
	s1, s2 := distinctSig(r, 0), distinctSig(r, 1)
	spaced, err := json.MarshalIndent(s1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	swapped := &sig.Signature{Threads: []sig.ThreadSpec{s2.Threads[1], s2.Threads[0]}}
	reordered, err := json.Marshal(swapped)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 2)
	for i, s := range []*sig.Signature{s1, s2} {
		enc, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(enc)
	}
	for _, raw := range [][]byte{spaced, reordered} {
		if _, exact, err := sig.DecodeVerbatim(raw); err != nil || exact {
			t.Fatalf("DecodeVerbatim(%s) = exact %v, %v; the test needs valid non-exact bytes", raw, exact, err)
		}
	}

	dir := t.TempDir()
	writeSegmentFile(t, dir, 1, []walEntry{{user: 1, unix: clock.Now().Unix(), data: spaced}})
	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := getAll(t, st); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("replayed WAL record served as %q, want %q", got, want[:1])
	}
	if _, err := st.ApplyReplicated(2, []Entry{{User: 2, Unix: clock.Now().Unix(), Data: reordered}}); err != nil {
		t.Fatal(err)
	}
	if got := getAll(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("after ApplyReplicated served %q, want %q", got, want)
	}
	if entries, _, _ := st.EntryPage(1, 0, 0); string(entries[1].Data) != want[1] {
		t.Fatalf("EntryPage served %s, want %s", entries[1].Data, want[1])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := getAll(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen served %q, want %q", got, want)
	}
}
