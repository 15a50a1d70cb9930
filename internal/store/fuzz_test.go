package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"communix/internal/ids"
	"communix/internal/sig"
)

// FuzzRecordDecode hammers the WAL segment record decoder with arbitrary
// bytes: it must never panic, never over-consume, and every accepted
// record must re-encode to exactly the bytes it was decoded from (the
// round-trip recovery and compaction depend on).
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(appendRecord(nil, walEntry{user: 7, unix: 1_700_000_000, data: []byte(`{"threads":[]}`)}))
	f.Add(appendRecord(appendRecord(nil, walEntry{user: 1, unix: 1, data: []byte(`{}`)}),
		walEntry{user: 2, unix: 2, data: []byte(`[]`)}))
	torn := appendRecord(nil, walEntry{user: 3, unix: 3, data: []byte(`{"a":1}`)})
	f.Add(torn[:len(torn)-2])
	corrupt := appendRecord(nil, walEntry{user: 4, unix: 4, data: []byte(`{"b":2}`)})
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, b []byte) {
		e, n, err := decodeRecord(b)
		if err != nil {
			if !errors.Is(err, errShortRecord) && !errors.Is(err, errCorruptRecord) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n < recordHeaderSize+recordMetaSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if round := appendRecord(nil, e); !bytes.Equal(round, b[:n]) {
			t.Fatalf("round-trip mismatch:\n% x\n% x", b[:n], round)
		}
	})
}

// FuzzRecordRoundTrip drives the encoder from structured inputs and
// checks decode(encode(e)) == e, including with trailing garbage.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(1_700_000_000), []byte(`{"threads":[]}`))
	f.Add(uint64(0), int64(0), []byte{})
	f.Add(uint64(1<<63), int64(-5), []byte(`x`))

	f.Fuzz(func(t *testing.T, user uint64, unix int64, data []byte) {
		if len(data) > sig.MaxEncodedSize {
			// The production path never encodes oversized signatures
			// (sig.Encode/Decode bound them), and decodeRecord rejects
			// them by design — not a round-trippable input.
			t.Skip()
		}
		in := walEntry{user: ids.UserID(user), unix: unix, data: data}
		enc := appendRecord(nil, in)
		enc = append(enc, 0xde, 0xad) // decoders must ignore what follows
		out, n, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("decode of fresh encode failed: %v", err)
		}
		if n != len(enc)-2 {
			t.Fatalf("consumed %d, want %d", n, len(enc)-2)
		}
		if out.user != in.user || out.unix != in.unix || !bytes.Equal(out.data, in.data) {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	})
}

// FuzzSnapshotParser feeds the raw-snapshot parser — which a
// bootstrapping follower runs over bytes from the network — arbitrary
// input split at fuzzer-chosen chunk boundaries (each byte of cuts is
// one chunk's length; the rest of data follows as the last chunk). It
// must never panic, must yield exactly the records decodeRecord accepts
// reading the whole input at once, must fail exactly when that read
// meets a corrupt record, bad magic or more records than the header
// promises, and Close must succeed exactly when the input ends on a
// record boundary with the header's count.
func FuzzSnapshotParser(f *testing.F) {
	// Seed from a snapshot file the fold itself wrote. Tiny records keep
	// the seeds short enough for the fuzzer to minimize what it finds.
	dir := f.TempDir()
	wal, err := openPersister(persistConfig{dir: dir, policy: FsyncOff, segMax: DefaultSegmentMaxBytes, compactN: 1},
		func(walEntry) error { return nil })
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e := walEntry{user: ids.UserID(i + 1), unix: 1_700_000_000 + int64(i), data: []byte(fmt.Sprintf(`{"n":%d}`, i))}
		if err := wal.append([]walEntry{e}); err != nil {
			f.Fatal(err)
		}
	}
	if err := wal.forceCompact(); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName(wal.snapVersion)))
	if err != nil {
		f.Fatal(err)
	}
	if err := wal.close(); err != nil {
		f.Fatal(err)
	}
	f.Add(snap, []byte{})
	f.Add(snap, []byte{0, 1, 23, 255, 7})
	f.Add(snap[:len(snap)-3], []byte{30})
	f.Add(snap[:snapHeaderSize], []byte{})
	f.Add(snap[:snapHeaderSize-1], []byte{})
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)-5] ^= 0xff
	f.Add(corrupt, []byte{100})
	short := append([]byte(nil), snap...)
	short[len(snapMagic)+15]-- // the header promises one record fewer
	f.Add(short, []byte{})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		// The whole-input reading the parser must agree with.
		var want []walEntry
		var count uint64
		headerOK := len(data) >= snapHeaderSize && string(data[:len(snapMagic)]) == snapMagic
		mustFail := len(data) >= snapHeaderSize && !headerOK
		trailing := 0
		if headerOK {
			count = binary.BigEndian.Uint64(data[len(snapMagic)+8:])
			rest := data[snapHeaderSize:]
			for len(rest) > 0 {
				e, n, err := decodeRecord(rest)
				if errors.Is(err, errShortRecord) {
					trailing = len(rest)
					break
				}
				if err != nil || uint64(len(want)) == count {
					mustFail = true
					break
				}
				want = append(want, e)
				rest = rest[n:]
			}
		}

		chunks := make([][]byte, 0, len(cuts)+1)
		rest := data
		for _, c := range cuts {
			n := min(int(c), len(rest))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		chunks = append(chunks, rest)

		p := NewSnapshotParser()
		var got []Entry
		failed := false
		for _, c := range chunks {
			out, err := p.Feed(c)
			if err != nil {
				failed = true
				break
			}
			got = append(got, out...)
		}
		if failed != mustFail {
			t.Fatalf("parser failed=%v, whole-input read says %v", failed, mustFail)
		}
		if len(got) > len(want) || (!failed && len(got) != len(want)) {
			t.Fatalf("parser yielded %d records, whole-input read accepts %d", len(got), len(want))
		}
		for i, e := range got {
			if e.User != want[i].user || e.Unix != want[i].unix || !bytes.Equal(e.Data, want[i].data) {
				t.Fatalf("record %d differs from the whole-input read", i)
			}
		}
		if failed {
			return
		}
		closeOK := headerOK && trailing == 0 && uint64(len(want)) == count
		if err := p.Close(); (err == nil) != closeOK {
			t.Fatalf("Close = %v; want success %v (header %v, %d trailing bytes, %d of %d records)",
				err, closeOK, headerOK, trailing, len(want), count)
		}
		if headerOK && (p.Version() != binary.BigEndian.Uint64(data[len(snapMagic):]) || p.Count() != count) {
			t.Fatalf("parser header (%d, %d) differs from the input's", p.Version(), p.Count())
		}
	})
}
