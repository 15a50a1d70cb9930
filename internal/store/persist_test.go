package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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
	// records — and that the store stays writable afterwards. Each check
	// mostly waits on the disk, so a small pool of workers spreads the
	// offsets, each in its own crash directory.
	extra := distinctSig(r, 1000)
	check := func(cdir string, off int) error {
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

		if err := os.RemoveAll(cdir); err != nil {
			return err
		}
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cdir, segmentName(1)), full[:off], 0o644); err != nil {
			return err
		}
		re, err := Open(persistCfg(cdir, clock))
		if err != nil {
			return err
		}
		err = func() error {
			got, _ := re.Get(1)
			if len(got) != expect {
				return fmt.Errorf("recovered %d records, want %d", len(got), expect)
			}
			for i := range got {
				if string(got[i]) != want[i] {
					return fmt.Errorf("record %d differs", i+1)
				}
			}
			// The torn tail was truncated away; the store accepts new
			// signatures and a clean reopen sees them.
			if ok, err := re.Add(99, extra); !ok || err != nil {
				return fmt.Errorf("Add after recovery: ok=%v err=%v", ok, err)
			}
			return nil
		}()
		if cerr := re.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		re2, err := Open(persistCfg(cdir, clock))
		if err != nil {
			return fmt.Errorf("reopen: %v", err)
		}
		n := re2.Len()
		re2.Close()
		if n != expect+1 {
			return fmt.Errorf("reopen: Len=%d, want %d", n, expect+1)
		}
		return nil
	}

	const workers = 4
	crash := t.TempDir()
	offsets := make(chan int)
	var (
		wg     sync.WaitGroup
		failMu sync.Mutex
		failed bool
	)
	for w := 0; w < workers; w++ {
		cdir := filepath.Join(crash, fmt.Sprint(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := range offsets {
				if err := check(cdir, off); err != nil {
					failMu.Lock()
					failed = true
					failMu.Unlock()
					t.Errorf("offset %d: %v", off, err)
				}
			}
		}()
	}
	for off := 0; off < len(full); off++ {
		failMu.Lock()
		stop := failed
		failMu.Unlock()
		if stop {
			break
		}
		offsets <- off
	}
	close(offsets)
	wg.Wait()
}

// TestSegmentRollAndMultiSegmentReopen: with small segments the WAL
// rolls into many files, the stats count them and their bytes, and a
// reopen serves the identical sequence from all of them.
func TestSegmentRollAndMultiSegmentReopen(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r := rand.New(rand.NewSource(13))
	cfg := persistCfg(dir, clock)
	cfg.segmentMaxBytes = 2048 // ~1 signature per segment
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
	if ps.Entries != uint64(n) {
		t.Fatalf("stats report %d entries, want %d", ps.Entries, n)
	}
	if ps.Segments < n/2 {
		t.Fatalf("%d segments for %d records; the test needs many", ps.Segments, n)
	}
	// Segments are the only file kind, and the stats add up to them.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs int
	var size int64
	for _, de := range des {
		if de.Name() == "LOCK" {
			continue
		}
		if !isSegment(de.Name()) {
			t.Errorf("unexpected file %s", de.Name())
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		segs++
		size += info.Size()
	}
	if segs != ps.Segments || size != ps.SealedBytes+ps.ActiveSegmentBytes {
		t.Errorf("%d segment files of %d bytes on disk; stats say %d files, %d sealed + %d active bytes",
			segs, size, ps.Segments, ps.SealedBytes, ps.ActiveSegmentBytes)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := getAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen serves %d records, want the %d GET served", len(got), len(want))
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

// TestOrphanSnapshotTempSwept pins the cleanup an older version's
// crashed folds need: a snap-*.tmp left behind before its rename is
// deleted by the next read-write open (and left alone by a read-only
// one).
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
	cfg.segmentMaxBytes = 2048

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
	cfg.segmentMaxBytes = 8 << 10

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

// TestPersistCountersExact scripts appends over one-record segments, a
// Close and a reopen, and checks every PersistStats field against a
// hand count, under each fsync policy.
func TestPersistCountersExact(t *testing.T) {
	data := json.RawMessage(`{"n":1}`)
	seg := int64(segHeaderSize + recordHeaderSize + recordMetaSize + len(data)) // a one-record segment
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			// One record already fills a segment, so every append after
			// the first seals the active segment and starts a new one.
			cfg := persistConfig{dir: t.TempDir(), policy: policy, segMax: int64(segHeaderSize) + 1}
			open := func() *persister {
				t.Helper()
				p, err := openPersister(cfg, func([]walEntry) (int, error) { return 0, nil })
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			check := func(p *persister, step string, want PersistStats) {
				t.Helper()
				want.Enabled, want.Dir = true, cfg.dir
				if got := p.stats(); got != want {
					t.Fatalf("%s: stats %+v\nwant %+v", step, got, want)
				}
			}
			// onSeal counts a seal's fsync; a segment's creation syncs the
			// file and the directory, so it costs two of them.
			onSeal, onCommit := uint64(0), uint64(0)
			if policy != FsyncOff {
				onSeal = 1
			}
			if policy == FsyncAlways {
				onCommit = 1
			}

			p := open()
			want := PersistStats{Segments: 1, ActiveSegmentBytes: int64(segHeaderSize), Fsyncs: 2 * onSeal}
			check(p, "open", want)
			for i := 1; i <= 9; i++ {
				if err := p.append([]walEntry{{user: ids.UserID(i), unix: 1_700_000_000, data: data}}); err != nil {
					t.Fatal(err)
				}
				if i > 1 {
					want.Fsyncs += 3 * onSeal // seal, then create the next segment
					want.Segments++
					want.SealedBytes += seg
				}
				want.Entries++
				want.ActiveSegmentBytes = seg
				want.Fsyncs += onCommit
				check(p, fmt.Sprintf("append %d", i), want)
			}
			if err := p.close(); err != nil {
				t.Fatal(err)
			}
			want.Fsyncs += onSeal
			check(p, "close", want)

			// Recovery counts every segment; the full tail is sealed and
			// a fresh one is created, which is all the new process syncs.
			p = open()
			defer p.close()
			check(p, "reopen", PersistStats{
				Entries: 9, Segments: 10, SealedBytes: 9 * seg,
				ActiveSegmentBytes: int64(segHeaderSize), Fsyncs: 2 * onSeal,
			})
		})
	}
}
