package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"communix/internal/ids"
)

// testdata/legacy is a data directory written by a version that folded
// sealed segments into snapshots (testdata/README.md says how). It
// holds 40 signatures from 5 users, all accepted at newTestClock's time:
// snapshot 1 (records 1..15), snapshot 2 (1..30), the folded segment
// wal-19 (19..21) that a fold crashing before its deletes leaves, and
// live segments from 31 on, the last of them the active tail.
const (
	legacyDigest = "4e31d5d622f5814e3d455ffc50ce4bb98a392bdf97c7aaa9fbd3637e21e486b7"
	legacySnap1  = "snap-0000000000000001.snap"
	legacySnap2  = "snap-0000000000000002.snap"
	legacyTail   = "wal-0000000000000040.seg"
)

// legacyDir copies testdata/legacy into a fresh directory and returns
// it with each file's contents.
func legacyDir(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	src := filepath.Join("testdata", "legacy")
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := make(map[string][]byte, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = b
	}
	return dir, files
}

// TestLegacyDirectoryOpens: a directory an older version wrote opens
// read-only and read-write with the state that version had, reads its
// snapshots as sealed files, takes new signatures in segments only, and
// never rewrites a legacy file.
func TestLegacyDirectoryOpens(t *testing.T) {
	dir, files := legacyDir(t)
	clock := newTestClock()
	cfg := persistCfg(dir, clock)

	before := dirContents(t, dir)
	ro := cfg
	ro.ReadOnly = true
	st, err := Open(ro)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.StateDigest(); got != legacyDigest {
		t.Fatalf("read-only digest %s, want %s", got, legacyDigest)
	}
	var sealed int64
	for name, b := range files {
		if name != legacyTail {
			sealed += int64(len(b))
		}
	}
	want := PersistStats{
		Enabled: true, Dir: dir, Entries: 40, Segments: len(files),
		SealedBytes: sealed, ActiveSegmentBytes: int64(len(files[legacyTail])),
	}
	if got := st.PersistStats(); got != want {
		t.Errorf("read-only stats %+v\nwant %+v", got, want)
	}
	st.Close()
	if after := dirContents(t, dir); !bytes.Equal(before, after) {
		t.Fatalf("read-only open modified the directory:\n%s\n%s", before, after)
	}

	st, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.StateDigest(); got != legacyDigest {
		t.Fatalf("read-write digest %s, want %s", got, legacyDigest)
	}
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 5; i++ {
		mustAdd(t, st, ids.UserID(6+i), distinctSig(r, 1000+i))
	}
	wantSeq := getAll(t, st)
	digest := st.StateDigest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := getAll(t, re); len(got) != 45 || !reflect.DeepEqual(got, wantSeq) {
		t.Fatalf("reopen serves %d signatures, want the 45 served before it", len(got))
	}
	if got := re.StateDigest(); got != digest {
		t.Fatalf("reopen digest %s, want %s", got, digest)
	}

	// Every legacy file is as it was, except that the tail grew; no
	// file but a segment was added.
	for name, b := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == legacyTail {
			if len(got) <= len(b) || !bytes.HasPrefix(got, b) {
				t.Errorf("tail %s did not grow by appends alone", name)
			}
		} else if !bytes.Equal(got, b) {
			t.Errorf("legacy file %s changed", name)
		}
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if _, legacy := files[de.Name()]; !legacy && !isSegment(de.Name()) && de.Name() != "LOCK" {
			t.Errorf("store wrote %s", de.Name())
		}
	}
}

// TestCorruptSnapshotCountFallsBack pins that a legacy snapshot whose
// count field is garbage fails Open cleanly: the count is compared with
// the records read and never allocated by, so 2^64-1 cannot panic, and
// there is nothing to fall back to — no other file holds the records.
func TestCorruptSnapshotCountFallsBack(t *testing.T) {
	for _, count := range []uint64{math.MaxUint64, 29, 31} {
		dir, files := legacyDir(t)
		b := bytes.Clone(files[legacySnap2])
		binary.BigEndian.PutUint64(b[len(snapMagic)+8:], count)
		if err := os.WriteFile(filepath.Join(dir, legacySnap2), b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, readOnly := range []bool{true, false} {
			cfg := persistCfg(dir, newTestClock())
			cfg.ReadOnly = readOnly
			if st, err := Open(cfg); err == nil {
				st.Close()
				t.Fatalf("count %d, read-only %v: open succeeded", count, readOnly)
			}
		}
	}
}

// TestLegacySnapshotDamageFailsOpen: a legacy snapshot was fsynced
// before it was renamed into place, so a short or corrupt record in it
// is media damage, as in any segment but the last, and fails Open.
func TestLegacySnapshotDamageFailsOpen(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"short":   func(b []byte) []byte { return b[:len(b)-1] },
		"corrupt": func(b []byte) []byte { b[snapHeaderSize+recordHeaderSize+3] ^= 0xff; return b },
		"header":  func(b []byte) []byte { return b[:snapHeaderSize-1] },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			dir, files := legacyDir(t)
			// Snapshot 1 is the one file holding records 1..15 first.
			if err := os.WriteFile(filepath.Join(dir, legacySnap1), f(bytes.Clone(files[legacySnap1])), 0o644); err != nil {
				t.Fatal(err)
			}
			if st, err := Open(persistCfg(dir, newTestClock())); err == nil {
				st.Close()
				t.Fatal("open succeeded over a damaged snapshot")
			}
		})
	}
}

// TestInterruptedCompactionLeftoverSegmentIgnored: an older version's
// fold that crashed after its rename, before its deletes, left segments
// whose records the snapshot also holds. Recovery skips those records
// wherever the segment sorts — as the last file too, where it becomes
// the active tail — and the directory keeps taking appends and
// reopening with every record exactly once.
func TestInterruptedCompactionLeftoverSegmentIgnored(t *testing.T) {
	clock := newTestClock()
	// asSegment rewrites a snapshot as the segment starting at record 1
	// that holds the same records: what a crashed fold leaves behind.
	asSegment := func(snap []byte) []byte {
		b := binary.BigEndian.AppendUint64([]byte(segMagic), 1)
		return append(b, snap[snapHeaderSize:]...)
	}
	run := func(t *testing.T, dir string, n int) {
		t.Helper()
		cfg := persistCfg(dir, clock)
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != n {
			t.Fatalf("recovered %d records, want %d", st.Len(), n)
		}
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 6; i++ {
			mustAdd(t, st, ids.UserID(100+i), distinctSig(r, 5000+i))
		}
		digest := st.StateDigest()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if re.Len() != n+6 || re.StateDigest() != digest {
			t.Fatalf("reopen: %d records, want %d with the same digest", re.Len(), n+6)
		}
	}

	t.Run("not-last", func(t *testing.T) {
		// Besides testdata's wal-19, snapshot 1's records as wal-1.
		dir, files := legacyDir(t)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), asSegment(files[legacySnap1]), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, dir, 40)
	})

	t.Run("last", func(t *testing.T) {
		// Snapshot 1 and its leftover, the only segment.
		_, files := legacyDir(t)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, legacySnap1), files[legacySnap1], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), asSegment(files[legacySnap1]), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, dir, 15)
	})
}
