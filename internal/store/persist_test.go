package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
)

// persistCfg returns a durable config over dir with a test clock and
// room for overrides.
func persistCfg(dir string, clock *testClock) Config {
	return Config{DataDir: dir, Clock: clock.Now}
}

// mustAdd adds a signature that must be accepted.
func mustAdd(t *testing.T, st *Store, user ids.UserID, s *sig.Signature) {
	t.Helper()
	ok, err := st.Add(user, s)
	if !ok || err != nil {
		t.Fatalf("Add: ok=%v err=%v", ok, err)
	}
}

// getAll returns the full encoded sequence.
func getAll(t *testing.T, st *Store) []string {
	t.Helper()
	sigs, _ := st.Get(1)
	out := make([]string, len(sigs))
	for i, raw := range sigs {
		out[i] = string(raw)
	}
	return out
}

func TestPersistReopenServesIdenticalSequence(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(10))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 3; i++ {
		mustAdd(t, st, ids.UserID(i+1), distinctSig(r, i))
	}
	// A batched commit too.
	batch := make([]Upload, 4)
	for i := range batch {
		batch[i] = Upload{User: ids.UserID(i + 1), Sig: distinctSig(r, 100+i)}
	}
	for i, res := range st.AddBatch(batch) {
		if !res.Added || res.Err != nil {
			t.Fatalf("AddBatch[%d]: %+v", i, res)
		}
	}
	want = getAll(t, st)
	users := st.Users()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := getAll(t, re); len(got) != len(want) {
		t.Fatalf("reopen: %d signatures, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("reopen: signature %d differs:\n%s\n%s", i+1, got[i], want[i])
			}
		}
	}
	if re.Users() != users {
		t.Errorf("reopen: %d users, want %d", re.Users(), users)
	}

	// The duplicate set survived: re-uploading signature 1 is a dup.
	first, err := sig.Decode([]byte(want[0]))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := re.Add(99, first); ok || err != nil {
		t.Fatalf("duplicate after reopen: ok=%v err=%v", ok, err)
	}
	// Indexes continue where they left off.
	mustAdd(t, re, 50, distinctSig(r, 200))
	if _, next := re.Get(1); next != len(want)+2 {
		t.Errorf("next after post-reopen add = %d, want %d", next, len(want)+2)
	}
}

func TestPersistRecoversUserValidationState(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(11))
	cfg := persistCfg(dir, clock)
	cfg.MaxPerDay = 3

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := distinctSig(r, 0)
	mustAdd(t, st, 1, base)
	mustAdd(t, st, 1, distinctSig(r, 1))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The adjacency state survived the restart: a signature sharing some
	// (but not all) tops with the pre-restart base is rejected even
	// though budget remains (adjacency is checked after the rate limit).
	adj := base.Clone()
	adj.Threads[0].Outer[adj.Threads[0].Outer.Depth()-1] = sig.Frame{
		Class: "com/app/Other", Method: "m", Line: 1, Hash: "h",
	}
	adj.Normalize()
	if _, err := re.Add(1, adj); !errors.Is(err, ErrAdjacent) {
		t.Fatalf("post-restart adjacent add = %v, want ErrAdjacent", err)
	}
	// The daily budget survived too: the third accept of the day lands,
	// the fourth is over quota.
	mustAdd(t, re, 1, distinctSig(r, 2))
	if _, err := re.Add(1, distinctSig(r, 3)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-restart over-quota add = %v, want ErrRateLimited", err)
	}
	// A new day refills the budget.
	clock.Advance(24 * time.Hour)
	mustAdd(t, re, 1, distinctSig(r, 4))
}

// segmentRecordBoundaries scans one segment file and returns every byte
// offset at which a record ends (including segHeaderSize for "zero
// records").
func segmentRecordBoundaries(t *testing.T, b []byte) []int {
	t.Helper()
	bounds := []int{segHeaderSize}
	rest := b[segHeaderSize:]
	off := segHeaderSize
	for len(rest) > 0 {
		_, n, err := decodeRecord(rest)
		if err != nil {
			t.Fatalf("scan at %d: %v", off, err)
		}
		off += n
		bounds = append(bounds, off)
		rest = rest[n:]
	}
	return bounds
}

func TestTruncationRecoversLongestValidPrefix(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(12))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	const records = 4
	for i := 0; i < records; i++ {
		mustAdd(t, st, ids.UserID(i+1), distinctSig(r, i))
	}
	want := getAll(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := segmentRecordBoundaries(t, full)
	if len(bounds) != records+1 {
		t.Fatalf("%d boundaries, want %d", len(bounds), records+1)
	}

	// Kill-mid-write simulation: truncate the file at EVERY byte offset
	// and assert recovery keeps exactly the longest prefix of complete
	// records — and that the store stays writable afterwards.
	crash := t.TempDir()
	for off := 0; off < len(full); off++ {
		expect := 0
		for _, b := range bounds {
			if b <= off {
				expect++
			}
		}
		expect-- // the header boundary is not a record
		if expect < 0 {
			expect = 0 // torn inside the header: no record was ever acked
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
		got := getAll(t, re)
		if len(got) != expect {
			t.Fatalf("offset %d: recovered %d records, want %d", off, len(got), expect)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("offset %d: record %d differs", off, i+1)
			}
		}
		// The torn tail was truncated away; the store accepts new
		// signatures and a clean reopen sees them.
		mustAdd(t, re, 99, distinctSig(r, 1000))
		if err := re.Close(); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		re2, err := Open(persistCfg(cdir, clock))
		if err != nil {
			t.Fatalf("offset %d reopen: %v", off, err)
		}
		if re2.Len() != expect+1 {
			t.Fatalf("offset %d reopen: Len=%d, want %d", off, re2.Len(), expect+1)
		}
		re2.Close()
	}
}

func TestSegmentRollAndSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(13))
	cfg := persistCfg(dir, clock)
	cfg.SegmentMaxBytes = 2048 // ~1 signature per segment
	cfg.CompactSegments = 2
	cfg.MaxPerDay = 1 << 30

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAdd(t, st, ids.UserID(i%3+1), distinctSig(r, i))
	}
	want := getAll(t, st)
	ps := st.PersistStats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if ps.SnapshotVersion == 0 {
		t.Fatalf("no compaction ran: %+v", ps)
	}
	if ps.SnapshotEntries == 0 || ps.SnapshotEntries >= uint64(n) {
		t.Fatalf("snapshot folds %d entries, want within (0, %d)", ps.SnapshotEntries, n)
	}
	if ps.Entries != uint64(n) {
		t.Fatalf("stats report %d entries, want %d", ps.Entries, n)
	}
	// Compaction deleted the folded inputs: only the live snapshot plus
	// the unfolded segments remain.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := 0, 0
	for _, de := range des {
		switch filepath.Ext(de.Name()) {
		case ".snap":
			snaps++
		case ".seg":
			segs++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files on disk, want 1", snaps)
	}
	if segs != ps.Segments {
		t.Errorf("%d segment files on disk, stats say %d", segs, ps.Segments)
	}
	if segs >= n {
		t.Errorf("%d segment files for %d records; compaction should have folded most", segs, n)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := getAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("reopen after compaction: %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reopen after compaction: record %d differs", i+1)
		}
	}
}

// writeSegmentFile synthesizes a segment file holding the given records
// starting at global index first.
func writeSegmentFile(t *testing.T, dir string, first uint64, entries []walEntry) string {
	t.Helper()
	b := make([]byte, 0, segHeaderSize)
	b = append(b, segMagic...)
	var idx [8]byte
	for i := uint64(0); i < 8; i++ {
		idx[i] = byte(first >> (56 - 8*i))
	}
	b = append(b, idx[:]...)
	for _, e := range entries {
		b = appendRecord(b, e)
	}
	path := filepath.Join(dir, segmentName(first))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compactedDir builds a data directory in which compaction has run at
// least once and returns it together with the snapshot's records.
func compactedDir(t *testing.T, clock *testClock, seedBase int) (string, Config, []walEntry, int) {
	t.Helper()
	dir := t.TempDir()
	cfg := persistCfg(dir, clock)
	cfg.SegmentMaxBytes = 2048
	cfg.CompactSegments = 2
	cfg.MaxPerDay = 1 << 30

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(int64(seedBase)))
	const n = 12
	for i := 0; i < n; i++ {
		mustAdd(t, st, ids.UserID(i%3+1), distinctSig(r, seedBase*10000+i))
	}
	ps := st.PersistStats()
	if ps.SnapshotVersion == 0 {
		t.Fatalf("setup: compaction never ran: %+v", ps)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, snapEntries, err := readSnapshot(filepath.Join(dir, snapshotName(ps.SnapshotVersion)))
	if err != nil {
		t.Fatal(err)
	}
	return dir, cfg, snapEntries, n
}

// TestInterruptedCompactionLeftoverSegmentIgnored reproduces the crash
// window compaction's comment promises to survive: the new snapshot was
// renamed into place but the folded segment files were not yet deleted.
// Recovery must discard such a segment — wherever it sorts, including
// as the LAST segment — and never re-fold its records into the next
// snapshot (which would brick the store on the Open after that).
func TestInterruptedCompactionLeftoverSegmentIgnored(t *testing.T) {
	clock := newTestClock()

	t.Run("not-last", func(t *testing.T) {
		dir, cfg, snapEntries, n := compactedDir(t, clock, 31)
		// Resurrect a folded segment below the live ones. Its final
		// record index equals the snapshot count exactly — the boundary
		// case.
		leftover := writeSegmentFile(t, dir, 1, snapEntries)

		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != n {
			t.Fatalf("recovered %d records, want %d", st.Len(), n)
		}
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("folded leftover segment not deleted: %v", err)
		}
		// Push through another compaction and reopen: the store must not
		// have folded anything twice.
		r := rand.New(rand.NewSource(99))
		v0 := st.PersistStats().SnapshotVersion
		for i := 0; st.PersistStats().SnapshotVersion == v0; i++ {
			mustAdd(t, st, 1, distinctSig(r, 5000+i))
		}
		total := st.Len()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen after re-compaction: %v", err)
		}
		defer re.Close()
		if re.Len() != total {
			t.Fatalf("reopen: %d records, want %d", re.Len(), total)
		}
	})

	t.Run("last", func(t *testing.T) {
		// The folded leftover is the ONLY (hence last) segment: it must
		// not become the active tail, or the next roll re-seals and
		// re-folds it.
		_, _, snapEntries, _ := compactedDir(t, clock, 32)
		dir2 := t.TempDir()
		cfg2 := persistCfg(dir2, clock)
		cfg2.SegmentMaxBytes = 2048
		cfg2.CompactSegments = 2
		cfg2.MaxPerDay = 1 << 30
		// Rebuild dir2 as: snapshot v1 covering 1..S + leftover segment
		// with the same records 1..S.
		snapBytes := make([]byte, 0, snapHeaderSize)
		snapBytes = append(snapBytes, snapMagic...)
		var u [8]byte
		for i := range u {
			u[i] = 0
		}
		u[7] = 1 // version 1
		snapBytes = append(snapBytes, u[:]...)
		cnt := uint64(len(snapEntries))
		for i := uint64(0); i < 8; i++ {
			snapBytes = append(snapBytes, byte(cnt>>(56-8*i)))
		}
		for _, e := range snapEntries {
			snapBytes = appendRecord(snapBytes, e)
		}
		if err := os.WriteFile(filepath.Join(dir2, snapshotName(1)), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		leftover := writeSegmentFile(t, dir2, 1, snapEntries)

		st, err := Open(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != len(snapEntries) {
			t.Fatalf("recovered %d records, want %d", st.Len(), len(snapEntries))
		}
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("folded last segment not deleted: %v", err)
		}
		// Drive rolls + a compaction, then reopen cleanly.
		r := rand.New(rand.NewSource(98))
		v0 := st.PersistStats().SnapshotVersion
		for i := 0; st.PersistStats().SnapshotVersion == v0; i++ {
			mustAdd(t, st, 1, distinctSig(r, 6000+i))
		}
		total := st.Len()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cfg2)
		if err != nil {
			t.Fatalf("reopen after re-compaction: %v", err)
		}
		defer re.Close()
		if re.Len() != total {
			t.Fatalf("reopen: %d records, want %d", re.Len(), total)
		}
	})
}

// TestWALWriteFailureIsStickyAndServesFromMemory pins the degraded-disk
// contract: a failed WAL write surfaces an error on the accepted upload,
// the in-memory database keeps serving, and the poisoned log refuses
// further appends instead of writing acknowledged records after torn
// bytes.
func TestWALWriteFailureIsStickyAndServesFromMemory(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(33))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, st, 1, distinctSig(r, 0))
	// Yank the disk out: close the active segment under the persister.
	if err := st.wal.f.Close(); err != nil {
		t.Fatal(err)
	}

	ok, err := st.Add(2, distinctSig(r, 1))
	if !ok || err == nil {
		t.Fatalf("Add on dead WAL: ok=%v err=%v; want accepted-with-error", ok, err)
	}
	if st.Len() != 2 {
		t.Fatalf("in-memory Len = %d, want 2 (memory keeps serving)", st.Len())
	}
	// The log is poisoned: the next append fails too (sticky), it does
	// not get a chance to write past torn bytes.
	if _, err := st.Add(3, distinctSig(r, 2)); err == nil {
		t.Fatal("poisoned WAL accepted another append")
	}
}

// TestDataDirSingleWriter pins the exclusion lock: a second read-write
// open of a live data directory must fail fast instead of interleaving
// appends, while read-only opens coexist with the writer, and the lock
// dies with the store.
func TestDataDirSingleWriter(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(35))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, st, 1, distinctSig(r, 0))

	if _, err := Open(persistCfg(dir, clock)); err == nil {
		t.Fatal("second writer opened a locked data dir")
	}
	roCfg := persistCfg(dir, clock)
	roCfg.ReadOnly = true
	ro, err := Open(roCfg)
	if err != nil {
		t.Fatalf("read-only open alongside the writer: %v", err)
	}
	if ro.Len() != 1 {
		t.Fatalf("read-only Len = %d, want 1", ro.Len())
	}
	ro.Close()

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatalf("reopen after Close released the lock: %v", err)
	}
	re.Close()
}

// TestCorruptSnapshotCountFallsBack pins that a snapshot whose count
// field is garbage (huge) is treated as invalid — no makeslice panic —
// and recovery falls back instead of crashing Open.
func TestCorruptSnapshotCountFallsBack(t *testing.T) {
	clock := newTestClock()
	dir, cfg, _, _ := compactedDir(t, clock, 36)
	ps := func() PersistStats {
		ro := cfg
		ro.ReadOnly = true
		st, err := Open(ro)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.PersistStats()
	}()
	snapPath := filepath.Join(dir, snapshotName(ps.SnapshotVersion))
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b[len(snapMagic)+8+i] = 0xff // count = 2^64-1
	}
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// The snapshot is now invalid and its records unreachable (the
	// folded segments were deleted), so Open must fail cleanly with the
	// missing-segment error — not panic.
	if _, err := Open(cfg); err == nil {
		t.Fatal("open succeeded over a snapshot with a corrupt count")
	}
}

// TestStaleSnapshotSwept pins the rename-but-no-delete crash window:
// an older superseded snapshot left on disk is removed by the next
// read-write open.
func TestStaleSnapshotSwept(t *testing.T) {
	clock := newTestClock()
	dir, cfg, snapEntries, n := compactedDir(t, clock, 37)
	live, err := func() (uint64, error) {
		ro := cfg
		ro.ReadOnly = true
		st, err := Open(ro)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		return st.PersistStats().SnapshotVersion, nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate the superseded older snapshot the crash would have left
	// behind: a lower version holding a prefix of the records.
	staleVersion := live - 1
	stale := filepath.Join(dir, snapshotName(staleVersion))
	var b []byte
	b = append(b, snapMagic...)
	b = binaryAppendUint64(b, staleVersion)
	b = binaryAppendUint64(b, 1)
	b = appendRecord(b, snapEntries[0])
	if err := os.WriteFile(stale, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale snapshot not swept: %v", err)
	}
}

// binaryAppendUint64 is a tiny big-endian append helper for test file
// fabrication.
func binaryAppendUint64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(56-8*i)))
	}
	return b
}

// TestOrphanSnapshotTempSwept pins the cleanup of compactions that
// crashed before their rename: the leftover snap-*.tmp must be deleted
// by the next read-write open (and left alone by a read-only one).
func TestOrphanSnapshotTempSwept(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(34))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, st, 1, distinctSig(r, 0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "snap-1234567.tmp")
	if err := os.WriteFile(orphan, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	roCfg := persistCfg(dir, clock)
	roCfg.ReadOnly = true
	ro, err := Open(roCfg)
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("read-only open touched the orphan: %v", err)
	}

	rw, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if rw.Len() != 1 {
		t.Fatalf("Len = %d, want 1", rw.Len())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan snapshot temp not swept: %v", err)
	}
}

func TestCorruptTailRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(14))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAdd(t, st, ids.UserID(i+1), distinctSig(r, i))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of record 2: recovery keeps record 1 only —
	// the first invalid record ends the last segment's valid prefix.
	segPath := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := segmentRecordBoundaries(t, b)
	b[bounds[1]+recordHeaderSize+recordMetaSize+1] ^= 0xff
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("recovered %d records past corruption, want 1", re.Len())
	}
}

func TestCorruptEarlierSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(15))
	cfg := persistCfg(dir, clock)
	cfg.SegmentMaxBytes = 2048
	cfg.CompactSegments = 1 << 30 // never compact: keep all segments

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustAdd(t, st, ids.UserID(i+1), distinctSig(r, i))
	}
	if st.PersistStats().Segments < 2 {
		t.Fatalf("need multiple segments, got %+v", st.PersistStats())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the FIRST segment: that is not a torn tail, it is data
	// loss in the middle of the durable sequence — refuse to open.
	segPath := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderSize+recordHeaderSize+3] ^= 0xff
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("open succeeded over mid-sequence corruption")
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(16))

	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, st, 1, distinctSig(r, 0))
	mustAdd(t, st, 2, distinctSig(r, 1))
	want := getAll(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	cfg := persistCfg(dir, clock)
	cfg.ReadOnly = true
	ro, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	got := getAll(t, ro)
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("read-only open: %d records, want %d", len(got), len(want))
	}
	if !ro.PersistStats().Enabled {
		t.Error("read-only store should report persistence enabled")
	}
	if _, err := ro.Add(3, distinctSig(r, 2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Add = %v, want ErrReadOnly", err)
	}
	res := ro.AddBatch([]Upload{{User: 3, Sig: distinctSig(r, 3)}})
	if !errors.Is(res[0].Err, ErrReadOnly) {
		t.Fatalf("read-only AddBatch = %+v, want ErrReadOnly", res[0])
	}
	// Nothing on disk moved.
	if after := dirContents(t, dir); !bytes.Equal(before, after) {
		t.Errorf("read-only open modified the directory:\n%s\n%s", before, after)
	}
}

// dirContents fingerprints a directory's file names and sizes.
func dirContents(t *testing.T, dir string) []byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s %d\n", de.Name(), info.ModTime(), info.Size())
	}
	return buf.Bytes()
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			clock := newTestClock()
			r := rand.New(rand.NewSource(17))
			cfg := persistCfg(dir, clock)
			cfg.Fsync = policy

			st, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				mustAdd(t, st, ids.UserID(i+1), distinctSig(r, i))
			}
			want := getAll(t, st)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got := getAll(t, re)
			if len(got) != len(want) {
				t.Fatalf("%s: reopen has %d records, want %d", policy, len(got), len(want))
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{
		"always": FsyncAlways, "batch": FsyncBatch, "off": FsyncOff, "": FsyncBatch,
	}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("nope"); err == nil {
		t.Error("ParseFsyncPolicy accepted junk")
	}
}

func TestConcurrentDurableAddsRecoverCompletely(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	cfg := persistCfg(dir, clock)
	cfg.MaxPerDay = 1 << 30
	cfg.SegmentMaxBytes = 8 << 10
	cfg.CompactSegments = 2

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < per; i++ {
				s := distinctSig(r, w*1000+i)
				if ok, err := st.Add(ids.UserID(w+1), s); !ok || err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := getAll(t, st)
	if len(want) != workers*per {
		t.Fatalf("%d records in memory, want %d", len(want), workers*per)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := getAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after concurrent durable adds", i+1)
		}
	}
}
