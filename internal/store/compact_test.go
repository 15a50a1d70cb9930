package store

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"communix/internal/ids"
)

// fixedEntry returns a record whose encoding has the same size for
// every i, so a test can predict segment and snapshot sizes exactly.
func fixedEntry(i int) walEntry {
	return walEntry{
		user: ids.UserID(i + 1),
		unix: 1_700_000_000,
		data: json.RawMessage(fmt.Sprintf(`{"n":%0100d}`, i)),
	}
}

// TestPersistCountersExact scripts appends, rolls, folds, a forced fold
// and Close over one-record segments and checks every counter
// PersistStats reports against a hand count, under each fsync policy.
func TestPersistCountersExact(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			// One record already fills a segment, so every append after
			// the first seals the active segment and starts a new one.
			p, err := openPersister(persistConfig{
				dir:      t.TempDir(),
				policy:   policy,
				segMax:   int64(segHeaderSize) + 1,
				compactN: 2,
			}, func(walEntry) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			// onSeal counts a seal's fsync; a segment's creation syncs the
			// file and the directory, so it costs two of them.
			onSeal := uint64(0)
			if policy != FsyncOff {
				onSeal = 1
			}
			onCommit := uint64(0)
			if policy == FsyncAlways {
				onCommit = 1
			}
			r := int64(fixedEntry(0).encodedSize())
			snapSize := func(records int64) int64 { return int64(snapHeaderSize) + records*r }

			var want PersistStats
			want.Fsyncs = 2 * onSeal // the first segment's creation
			check := func(step string) {
				t.Helper()
				got := p.stats()
				if got.Fsyncs != want.Fsyncs || got.Folds != want.Folds || got.FoldedBytes != want.FoldedBytes ||
					got.SnapshotBytes != want.SnapshotBytes || got.SealedBytes != want.SealedBytes {
					t.Fatalf("%s: fsyncs=%d folds=%d folded=%d snapshot=%d sealed=%d; want %d %d %d %d %d", step,
						got.Fsyncs, got.Folds, got.FoldedBytes, got.SnapshotBytes, got.SealedBytes,
						want.Fsyncs, want.Folds, want.FoldedBytes, want.SnapshotBytes, want.SealedBytes)
				}
			}
			fold := func(records int64) {
				want.Fsyncs += 2 // the new snapshot and the directory, under every policy
				want.Folds++
				want.SnapshotBytes = snapSize(records)
				want.FoldedBytes += want.SnapshotBytes
				want.SealedBytes = 0
			}
			check("open")

			// foldAt maps an append to the records the fold it triggers
			// leaves in the snapshot. Append 3 folds the first two sealed
			// segments (the snapshot is empty); append 5 folds two more,
			// whose bytes match the snapshot's; appends 7 and 8 find two
			// and three sealed segments, fewer bytes than the snapshot's
			// four records; append 9 finds four and folds.
			foldAt := map[int]int64{3: 2, 5: 4, 9: 8}
			for i := 1; i <= 9; i++ {
				if err := p.append([]walEntry{fixedEntry(i)}); err != nil {
					t.Fatal(err)
				}
				if i > 1 {
					want.Fsyncs += 3 * onSeal // seal, then create the next segment
					want.SealedBytes += int64(segHeaderSize) + r
				}
				if records, ok := foldAt[i]; ok {
					fold(records)
				}
				want.Fsyncs += onCommit
				check(fmt.Sprintf("append %d", i))
			}

			if err := p.forceCompact(); err != nil {
				t.Fatal(err)
			}
			want.Fsyncs += 3 * onSeal
			fold(9)
			check("forceCompact")

			if err := p.append([]walEntry{fixedEntry(10)}); err != nil {
				t.Fatal(err)
			}
			want.Fsyncs += onCommit
			check("append after forceCompact")

			if err := p.close(); err != nil {
				t.Fatal(err)
			}
			want.Fsyncs += onSeal
			check("close")
		})
	}
}

// TestCompactionWriteAmplification pins the fold trigger's cost bound:
// over many small segments, all folds together write at most twice the
// bytes appended (plus headers), their number grows with the logarithm
// of the database, and the folded directory recovers the same state. A
// trigger that folds every few segments rewrites the whole snapshot each
// time — quadratic bytes — and fails both bounds.
func TestCompactionWriteAmplification(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	cfg := persistCfg(dir, clock)
	cfg.Fsync = FsyncOff
	cfg.SegmentMaxBytes = 4 << 10
	cfg.MaxPerDay = 1 << 30

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(52))
	const n = 600
	var firstFold int64
	for i := 0; i < n; i++ {
		mustAdd(t, st, ids.UserID(i%7+1), distinctSig(r, i))
		if firstFold == 0 {
			firstFold = st.PersistStats().FoldedBytes
		}
	}
	entries, _, _ := st.EntryPage(1, 0, 0)
	var recordBytes int64
	for _, e := range entries {
		recordBytes += int64(recordHeaderSize + recordMetaSize + len(e.Data))
	}
	ps := st.PersistStats()
	t.Logf("%d records, %d record bytes: %d folds wrote %d bytes, the first %d",
		n, recordBytes, ps.Folds, ps.FoldedBytes, firstFold)
	if ps.Folds < 2 {
		t.Fatalf("only %d folds over %d records; the test needs several", ps.Folds, n)
	}

	// A segment is sealed only once its records reach the cap less the
	// header, which bounds how many segment headers were folded.
	segments := recordBytes/(cfg.SegmentMaxBytes-int64(segHeaderSize)) + 1
	if limit := 2 * (recordBytes + segments*int64(segHeaderSize)); ps.FoldedBytes > limit {
		t.Errorf("folds wrote %d bytes for %d record bytes appended; want at most %d",
			ps.FoldedBytes, recordBytes, limit)
	}
	maxFolds := uint64(math.Ceil(math.Log2(float64(int64(snapHeaderSize)+recordBytes)/float64(firstFold)))) + 1
	if ps.Folds > maxFolds {
		t.Errorf("%d folds for %d record bytes after a first fold of %d; want at most %d",
			ps.Folds, recordBytes, firstFold, maxFolds)
	}

	digest := st.StateDigest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.StateDigest(); got != digest {
		t.Fatalf("reopened digest %s, want %s", got, digest)
	}
}
