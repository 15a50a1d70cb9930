package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"communix/internal/ids"
	"communix/internal/sig"
)

// FsyncPolicy selects when the write-ahead log calls fsync. The policy
// trades durability of the most recent batches against ingestion
// throughput; see docs/ARCHITECTURE.md ("Persistence") for the
// trade-offs and measured effect.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncBatch (the default) writes every committed batch to the OS
	// immediately but only fsyncs once batchSyncBytes of unsynced data
	// accumulate, plus on segment seal and on Close. A crash can lose the
	// tail batches that were written but not yet synced.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways fsyncs after every committed batch: a positive ADD
	// response implies the signature is on stable storage. Slowest, and
	// the reason ingestion batches (one fsync covers the whole batch).
	FsyncAlways
	// FsyncOff never calls fsync — not per batch, not on segment seal,
	// not on Close; the OS flushes on its own schedule. Every commit
	// still reaches the kernel (there is no user-space buffering), so a
	// plain process crash loses nothing; a power or kernel failure can
	// lose everything since the last OS writeback.
	FsyncOff
)

// String names the policy ("batch", "always", "off").
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "batch", or "off" (the -fsync flag
// values) into a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or off)", s)
}

// On-disk layout constants. Both file kinds reuse the wire codec's
// framing convention: big-endian fixed-width integers, length-prefixed
// payloads.
const (
	// segMagic opens every WAL segment file, followed by the big-endian
	// uint64 global index of the segment's first record.
	segMagic = "CMXWAL1\n"
	// snapMagic opens every snapshot file, followed by the big-endian
	// uint64 snapshot version and record count.
	snapMagic = "CMXSNAP\n"

	segHeaderSize  = len(segMagic) + 8
	snapHeaderSize = len(snapMagic) + 16

	// recordMetaSize is the fixed prefix of every record payload: the
	// uploader's user id (uint64) and the accept time (int64 unix
	// seconds), both big-endian.
	recordMetaSize = 16
	// recordHeaderSize prefixes every record: payload length (uint32) and
	// IEEE CRC32 of the payload (uint32), both big-endian — the same
	// length-prefix framing as internal/wire, plus a checksum because
	// disk tails, unlike TCP streams, can tear.
	recordHeaderSize = 8

	// maxRecordPayload bounds one record payload: the fixed metadata plus
	// the largest encoded signature the codec accepts. Decoders reject
	// larger lengths before allocating.
	maxRecordPayload = recordMetaSize + sig.MaxEncodedSize

	// batchSyncBytes is the FsyncBatch threshold: accumulate this many
	// unsynced bytes, then fsync.
	batchSyncBytes = 256 << 10
)

// DefaultSegmentMaxBytes caps one WAL segment (4 MiB ≈ 2,400 of the
// paper's 1.7 KB signatures). A segment that reaches the cap is sealed
// and becomes eligible for snapshot compaction.
const DefaultSegmentMaxBytes = 4 << 20

// DefaultCompactSegments is the fewest sealed segments compaction folds
// into the snapshot. It is a minimum, not a period: a fold also waits
// until the sealed segments hold at least as many bytes as the snapshot.
const DefaultCompactSegments = 4

// copyBufSize is compaction's streaming buffer: the largest record fits
// whole, so every refill completes at least one record.
const copyBufSize = recordHeaderSize + maxRecordPayload

// ErrReadOnly is returned by mutating operations on a store opened with
// Config.ReadOnly (offline inspection of a data directory).
var ErrReadOnly = errors.New("store: read-only store")

// ErrClosed is returned by mutating operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Record-scan sentinel errors.
var (
	// errShortRecord: the buffer ends before the record does — a torn
	// tail if it is the last record of the last segment, corruption
	// otherwise.
	errShortRecord = errors.New("store: short record")
	// errCorruptRecord: the record is structurally invalid (oversized
	// length or CRC mismatch).
	errCorruptRecord = errors.New("store: corrupt record")
)

// walEntry is one accepted upload as persisted in the WAL: who uploaded,
// when it was accepted, and the signature's canonical JSON encoding (the
// exact bytes GET serves).
type walEntry struct {
	user ids.UserID
	unix int64
	data json.RawMessage
}

// encodedSize returns the on-disk size of the entry's record.
func (e walEntry) encodedSize() int {
	return recordHeaderSize + recordMetaSize + len(e.data)
}

// appendRecord appends e's record encoding to buf and returns the
// extended slice.
func appendRecord(buf []byte, e walEntry) []byte {
	payloadLen := recordMetaSize + len(e.data)
	var hdr [recordHeaderSize + recordMetaSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(e.user))
	binary.BigEndian.PutUint64(hdr[16:24], uint64(e.unix))
	crc := crc32.ChecksumIEEE(hdr[recordHeaderSize:])
	crc = crc32.Update(crc, crc32.IEEETable, e.data)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, e.data...)
}

// decodeRecord decodes the first record in b, returning the entry and
// the number of bytes consumed. It returns errShortRecord when b ends
// before the record does and errCorruptRecord when the record cannot be
// valid regardless of what follows (oversized length, CRC mismatch).
// The returned entry aliases b.
func decodeRecord(b []byte) (walEntry, int, error) {
	if len(b) < recordHeaderSize {
		return walEntry{}, 0, errShortRecord
	}
	payloadLen := int(binary.BigEndian.Uint32(b[0:4]))
	if payloadLen < recordMetaSize || payloadLen > maxRecordPayload {
		return walEntry{}, 0, fmt.Errorf("%w: payload length %d", errCorruptRecord, payloadLen)
	}
	total := recordHeaderSize + payloadLen
	if len(b) < total {
		return walEntry{}, 0, errShortRecord
	}
	payload := b[recordHeaderSize:total]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.BigEndian.Uint32(b[4:8]) {
		return walEntry{}, 0, fmt.Errorf("%w: checksum mismatch", errCorruptRecord)
	}
	return walEntry{
		user: ids.UserID(binary.BigEndian.Uint64(payload[0:8])),
		unix: int64(binary.BigEndian.Uint64(payload[8:16])),
		data: json.RawMessage(payload[recordMetaSize:]),
	}, total, nil
}

// segmentName returns the file name of the segment whose first record
// has the given global index. Zero-padded decimal so lexicographic
// directory order equals log order.
func segmentName(first uint64) string { return fmt.Sprintf("wal-%016d.seg", first) }

// snapshotName returns the file name of the snapshot with the given
// version.
func snapshotName(version uint64) string { return fmt.Sprintf("snap-%016d.snap", version) }

// sealedSeg describes one full (no longer appended-to) segment awaiting
// compaction.
type sealedSeg struct {
	path  string
	first uint64 // global index of the first record
	count uint64 // records in the segment
	bytes int64  // file size: header plus records
}

// persistConfig parameterizes openPersister; Config.withDefaults fills
// it from the public knobs.
type persistConfig struct {
	dir      string
	policy   FsyncPolicy
	segMax   int64
	compactN int
	readOnly bool
}

// persister owns a store's data directory: the active WAL segment, the
// sealed segments awaiting compaction, and the current snapshot. The
// caller (Store.commit) serializes all mutations, so persister needs no
// internal locking.
//
// Directory contents:
//
//	snap-<version>.snap   at most one live snapshot: records 1..count
//	wal-<first>.seg       segments, each holding records from index <first>
//
// Invariants: the snapshot covers a prefix of the global record sequence;
// segments cover contiguous ranges that extend it (compaction only folds
// whole segments, so the snapshot boundary is always a segment boundary);
// only the last segment may end in a torn record, and only recovery may
// observe one.
type persister struct {
	cfg persistConfig

	lock     *os.File // lockDir-held LOCK file (nil when readOnly)
	f        *os.File // active segment (nil when readOnly)
	fFirst   uint64   // global index of the active segment's first record
	size     int64    // bytes written to the active segment
	unsynced int64    // bytes written since the last fsync
	next     uint64   // global index the next record will get (1-based)

	sealed      []sealedSeg
	snapVersion uint64
	snapCount   uint64
	snapBytes   int64 // live snapshot file size; 0 when none

	// Process-lifetime counters reported by stats: every fsync issued
	// (file or directory), and every fold with the snapshot bytes it
	// wrote.
	fsyncs      uint64
	folds       uint64
	foldedBytes int64

	// roTail notes (read-only mode only) that a tail segment exists and
	// its size, so stats can report it without an open file handle.
	roTail      bool
	roTailBytes int64

	// failed poisons the persister: set when the active segment may hold
	// a partial record that could not be rolled back (a failed append
	// whose truncate also failed) or when an fsync failed (page state
	// unknown — see "fsyncgate"). Every later append returns it rather
	// than writing acknowledged records after torn bytes that recovery
	// would truncate away.
	failed error

	buf []byte // reusable record-encode buffer
}

// PersistStats describes a store's on-disk state.
type PersistStats struct {
	// Enabled reports whether the store has a data directory at all.
	Enabled bool `json:"enabled"`
	// Dir is the data directory path.
	Dir string `json:"dir,omitempty"`
	// Entries is the number of durable records (snapshot + segments).
	Entries uint64 `json:"entries"`
	// SnapshotVersion is the live snapshot's version; 0 means no
	// snapshot has been written yet.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// SnapshotEntries is how many records the live snapshot folds.
	SnapshotEntries uint64 `json:"snapshot_entries"`
	// Segments counts WAL segment files, including the active one.
	Segments int `json:"segments"`
	// SealedSegments counts full segments awaiting compaction.
	SealedSegments int `json:"sealed_segments"`
	// ActiveSegmentBytes is the active segment's current size.
	ActiveSegmentBytes int64 `json:"active_segment_bytes"`
	// SnapshotBytes is the live snapshot file's size (0 without one).
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// SealedBytes is the sealed segments' total size. Compaction waits
	// until it reaches SnapshotBytes.
	SealedBytes int64 `json:"sealed_bytes"`
	// Fsyncs counts every fsync the WAL issued since Open, file or
	// directory.
	Fsyncs uint64 `json:"fsyncs"`
	// Folds counts compactions since Open, ForceCompact included.
	Folds uint64 `json:"folds"`
	// FoldedBytes is the total size of the snapshots those folds wrote.
	FoldedBytes int64 `json:"folded_bytes"`
}

// openPersister opens (creating if needed) the data directory, recovers
// the durable record sequence — snapshot first, then segments in order,
// tolerating a torn record at the tail of the last segment — and invokes
// apply for every recovered entry in log order. On return the persister
// is ready to append (unless readOnly).
func openPersister(cfg persistConfig, apply func(walEntry) error) (*persister, error) {
	if !cfg.readOnly {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: data dir: %w", err)
		}
	}
	p := &persister{cfg: cfg, next: 1}
	if !cfg.readOnly {
		// Two writers interleaving appends and compactions in one
		// directory corrupt the log unrecoverably; refuse up front (see
		// lockDir). Read-only opens take no lock: inspecting a live
		// directory mutates nothing, though a concurrent compaction can
		// make one inspection attempt fail transiently — retry.
		lock, err := lockDir(cfg.dir)
		if err != nil {
			return nil, err
		}
		p.lock = lock
	}

	fail := func(err error) (*persister, error) {
		if p.lock != nil {
			p.lock.Close() // closing drops the flock
		}
		return nil, err
	}

	names, err := os.ReadDir(cfg.dir)
	if err != nil {
		return fail(fmt.Errorf("store: data dir: %w", err))
	}
	var snaps, segs []string
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			segs = append(segs, name)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".tmp") && !cfg.readOnly:
			// A compaction that crashed before its rename; without this
			// sweep, every crashed compaction would leak a file of up to
			// full-database size forever.
			os.Remove(filepath.Join(cfg.dir, name))
		}
	}
	sort.Strings(snaps)
	sort.Strings(segs)

	if err := p.recoverSnapshot(snaps, apply); err != nil {
		return fail(err)
	}
	tail, err := p.recoverSegments(segs, apply)
	if err != nil {
		return fail(err)
	}
	if cfg.readOnly {
		if tail != nil {
			p.roTail = true
			if info, err := os.Stat(tail.path); err == nil {
				p.roTailBytes = info.Size()
			}
		}
		return p, nil
	}
	if err := p.openActive(tail); err != nil {
		return fail(err)
	}
	return p, nil
}

// recoverSnapshot replays the newest fully valid snapshot. Older
// versions and invalid files are ignored (a torn snapshot means the
// crash hit compaction before it deleted the folded inputs, so the
// records are still recoverable from older files). Superseded older
// snapshots — left behind when a crash hit compaction between the
// rename and the deletes — are swept in read-write mode so each such
// crash cannot leak a database-sized file forever; newer-but-invalid
// files are kept for forensics, recovery cannot use them anyway.
func (p *persister) recoverSnapshot(names []string, apply func(walEntry) error) error {
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(p.cfg.dir, names[i])
		version, count, entries, err := readSnapshot(path)
		if err != nil {
			continue // fall back to the previous version
		}
		size := int64(snapHeaderSize)
		for _, e := range entries {
			if err := apply(e); err != nil {
				return fmt.Errorf("store: snapshot %s: %w", names[i], err)
			}
			size += int64(e.encodedSize())
		}
		p.snapVersion, p.snapCount, p.snapBytes = version, count, size
		p.next = count + 1
		if !p.cfg.readOnly {
			for _, stale := range names[:i] {
				os.Remove(filepath.Join(p.cfg.dir, stale))
			}
		}
		return nil
	}
	return nil
}

// readSnapshot reads and fully validates one snapshot file.
func readSnapshot(path string) (version, count uint64, entries []walEntry, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(b) < snapHeaderSize || string(b[:len(snapMagic)]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("store: %s: bad snapshot header", path)
	}
	version = binary.BigEndian.Uint64(b[len(snapMagic):])
	count = binary.BigEndian.Uint64(b[len(snapMagic)+8:])
	// Bound the count against the smallest possible record before using
	// it as an allocation hint: a corrupted count field must make the
	// snapshot invalid (so recovery falls back), not panic makeslice.
	if count > uint64(len(b)-snapHeaderSize)/(recordHeaderSize+recordMetaSize) {
		return 0, 0, nil, fmt.Errorf("store: %s: impossible record count %d for %d bytes", path, count, len(b))
	}
	rest := b[snapHeaderSize:]
	entries = make([]walEntry, 0, count)
	for len(rest) > 0 {
		e, n, err := decodeRecord(rest)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("store: %s: %w", path, err)
		}
		entries = append(entries, e)
		rest = rest[n:]
	}
	if uint64(len(entries)) != count {
		return 0, 0, nil, fmt.Errorf("store: %s: %d records, header says %d", path, len(entries), count)
	}
	return version, count, entries, nil
}

// recoverSegments replays every segment record with a global index past
// the snapshot, enforcing contiguity. The last segment tolerates a torn
// tail: the first short or corrupt record ends recovery and (in
// read-write mode) the file is truncated to the valid prefix. The same
// condition in any earlier segment is unrecoverable corruption. It
// returns a descriptor of the last segment (recovery's candidate active
// segment), or nil when there are no usable segments.
func (p *persister) recoverSegments(names []string, apply func(walEntry) error) (*sealedSeg, error) {
	var tail *sealedSeg
	for i, name := range names {
		path := filepath.Join(p.cfg.dir, name)
		last := i == len(names)-1
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if len(b) < segHeaderSize || string(b[:len(segMagic)]) != segMagic {
			if last && len(b) < segHeaderSize {
				// Torn segment creation: the header never fully landed, so
				// no record in it was ever acknowledged. Discard.
				if !p.cfg.readOnly {
					if err := os.Remove(path); err != nil {
						return nil, fmt.Errorf("store: %w", err)
					}
				}
				continue
			}
			return nil, fmt.Errorf("store: %s: bad segment header", path)
		}
		first := binary.BigEndian.Uint64(b[len(segMagic):])
		if first > p.next {
			return nil, fmt.Errorf("store: %s: starts at record %d, want %d (missing segment)", path, first, p.next)
		}
		idx := first
		valid := segHeaderSize
		rest := b[segHeaderSize:]
		for len(rest) > 0 {
			e, n, err := decodeRecord(rest)
			if err != nil {
				if !last {
					return nil, fmt.Errorf("store: %s: record %d: %w", path, idx, err)
				}
				break // torn tail: keep the longest valid prefix
			}
			if idx >= p.next {
				if idx != p.next {
					return nil, fmt.Errorf("store: %s: record %d out of order (want %d)", path, idx, p.next)
				}
				if err := apply(e); err != nil {
					return nil, fmt.Errorf("store: %s: record %d: %w", path, idx, err)
				}
				p.next = idx + 1
			}
			idx++
			valid += n
			rest = rest[n:]
		}
		if last && valid < len(b) && !p.cfg.readOnly {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		seg := sealedSeg{path: path, first: first, count: idx - first, bytes: int64(valid)}
		if seg.count > 0 && seg.first+seg.count-1 <= p.snapCount {
			// Every record is already folded into the snapshot (the crash
			// hit compaction after the rename, before the deletes). The
			// file must not survive — and in particular must never become
			// the tail or re-enter the sealed list, or the next compaction
			// would fold its records a second time and the Open after that
			// would refuse the duplicate-carrying snapshot.
			if !p.cfg.readOnly {
				if err := os.Remove(path); err != nil {
					return nil, fmt.Errorf("store: %w", err)
				}
			}
			continue
		}
		if !last {
			p.sealed = append(p.sealed, seg)
			continue
		}
		tail = &seg
	}
	return tail, nil
}

// openActive makes the recovered tail segment (or a fresh one) the
// append target. A recovered tail that already reached the size cap is
// sealed instead.
func (p *persister) openActive(tail *sealedSeg) error {
	if tail != nil {
		// Recovery truncated the tail to its valid length, tail.bytes.
		if tail.bytes < p.cfg.segMax {
			f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			p.f, p.fFirst, p.size = f, tail.first, tail.bytes
			return nil
		}
		p.sealed = append(p.sealed, *tail)
	}
	return p.newSegment()
}

// newSegment creates the segment whose first record will be p.next and
// makes it active. The header and the directory entry are synced
// immediately (unless FsyncOff), so a later crash can neither persist
// records under a missing header nor — after an acknowledged FsyncAlways
// append — lose the whole file to an unpersisted dirent.
func (p *persister) newSegment() error {
	path := filepath.Join(p.cfg.dir, segmentName(p.next))
	// O_APPEND matters beyond convenience: after a partial-write rollback
	// (append's Truncate), a plain fd's offset would still sit past the
	// new EOF and the next write would leave a zero-filled hole that
	// recovery reads as a torn tail, discarding everything after it.
	// With O_APPEND every write lands at the current EOF by definition.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, p.next)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if p.cfg.policy != FsyncOff {
		if err := p.fsync(f); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		if err := p.syncDir(); err != nil {
			f.Close()
			return err
		}
	}
	p.f, p.fFirst, p.size, p.unsynced = f, p.next, int64(segHeaderSize), 0
	return nil
}

// append writes one committed batch to the active segment, rolling and
// compacting as configured, and applies the fsync policy. The caller
// serializes appends and has assigned the batch the global indexes
// p.next..p.next+len(batch)-1.
func (p *persister) append(batch []walEntry) error {
	if p.cfg.readOnly {
		return ErrReadOnly
	}
	if p.failed != nil {
		return p.failed
	}
	if len(batch) == 0 {
		return nil
	}
	if p.f == nil || p.size >= p.cfg.segMax {
		if err := p.roll(); err != nil {
			return err
		}
	}
	p.buf = p.buf[:0]
	for _, e := range batch {
		p.buf = appendRecord(p.buf, e)
	}
	if _, err := p.f.Write(p.buf); err != nil {
		// The write may have landed partially. Roll the file back to the
		// last full record so a later successful (and acknowledged)
		// append cannot land after torn bytes — recovery would treat
		// those as the torn tail and silently truncate the good records
		// behind them. If the rollback fails too, poison the log.
		if terr := p.f.Truncate(p.size); terr != nil {
			p.failed = fmt.Errorf("store: wal poisoned (failed append, failed rollback): %w", terr)
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	p.size += int64(len(p.buf))
	p.unsynced += int64(len(p.buf))
	p.next += uint64(len(batch))
	switch p.cfg.policy {
	case FsyncAlways:
		return p.sync()
	case FsyncBatch:
		if p.unsynced >= batchSyncBytes {
			return p.sync()
		}
	}
	return nil
}

// sync fsyncs the active segment. A failed fsync poisons the log: after
// one, the kernel may have dropped dirty pages, so nothing further can
// be promised durable (the "fsyncgate" lesson — retrying fsync and
// getting success proves nothing).
func (p *persister) sync() error {
	if err := p.fsync(p.f); err != nil {
		p.failed = fmt.Errorf("store: wal poisoned (failed fsync): %w", err)
		return fmt.Errorf("store: wal sync: %w", err)
	}
	p.unsynced = 0
	return nil
}

// roll seals the active segment, starts a new one, and folds the sealed
// segments into the snapshot once they have caught up with it (see
// foldDue). roll is re-entrant after a failure: each stage leaves the
// persister in a state where the next append retries exactly the stages
// that have not completed (the seal is guarded by p.f != nil, compaction
// by the sealed list, and a nil p.f always forces a new segment), so a
// transient error — ENOSPC during compaction, say — heals once its cause
// clears instead of wedging every later append.
func (p *persister) roll() error {
	if p.f != nil {
		if err := p.seal(); err != nil {
			return err
		}
	}
	if p.foldDue() {
		if err := p.compact(); err != nil {
			return err
		}
	}
	return p.newSegment()
}

// seal syncs (skipped under FsyncOff, whose contract is "never fsync")
// and closes the active segment and appends it to the sealed list. An
// empty segment has nothing to fold: its file is dropped instead, so
// compaction inputs are never empty and the next segment can reuse the
// name.
func (p *persister) seal() error {
	if p.cfg.policy != FsyncOff {
		if err := p.fsync(p.f); err != nil {
			// Same fsyncgate hazard as sync(): the kernel may have dropped
			// the dirty pages, and a retried Sync would spuriously succeed
			// and seal a segment with lost bytes mid-file — which recovery
			// would refuse as mid-sequence corruption. Poison instead.
			p.failed = fmt.Errorf("store: wal poisoned (failed seal fsync): %w", err)
			return fmt.Errorf("store: seal: %w", err)
		}
	}
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	seg := sealedSeg{path: p.f.Name(), first: p.fFirst, count: p.next - p.fFirst, bytes: p.size}
	p.f, p.size = nil, 0
	if seg.count == 0 {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("store: seal: %w", err)
		}
		return nil
	}
	p.sealed = append(p.sealed, seg)
	return nil
}

// foldDue reports whether roll should compact: at least compactN sealed
// segments, holding at least as many bytes as the live snapshot. The
// size condition makes every fold at least double the snapshot, so the
// number of folds grows with the logarithm of the database and the
// bytes all folds ever write stay within twice the bytes appended —
// each record is rewritten O(1) times, not once per fold for the rest
// of the server's life.
func (p *persister) foldDue() bool {
	return len(p.sealed) >= p.cfg.compactN && p.sealedBytes() >= p.snapBytes
}

// sealedBytes is the sealed segments' total size.
func (p *persister) sealedBytes() int64 {
	var n int64
	for _, s := range p.sealed {
		n += s.bytes
	}
	return n
}

// compact folds the current snapshot and every sealed segment into a new
// snapshot version, then deletes the folded inputs. The new snapshot is
// written to a temp file, synced, and renamed before anything is
// deleted, so a crash at any point leaves a recoverable directory: the
// old snapshot + segments until the rename, duplicate coverage (which
// recovery skips) after it.
func (p *persister) compact() error {
	count := p.snapCount
	for _, s := range p.sealed {
		count += s.count
	}
	version := p.snapVersion + 1
	tmp, err := os.CreateTemp(p.cfg.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds

	hdr := make([]byte, 0, snapHeaderSize)
	hdr = append(hdr, snapMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, version)
	hdr = binary.BigEndian.AppendUint64(hdr, count)
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	size := int64(snapHeaderSize)
	buf := make([]byte, copyBufSize)
	var oldSnap string
	if p.snapVersion > 0 {
		oldSnap = filepath.Join(p.cfg.dir, snapshotName(p.snapVersion))
		n, err := copyRecords(tmp, oldSnap, snapHeaderSize, buf)
		if err != nil {
			tmp.Close()
			return err
		}
		size += n
	}
	for _, s := range p.sealed {
		n, err := copyRecords(tmp, s.path, segHeaderSize, buf)
		if err != nil {
			tmp.Close()
			return err
		}
		size += n
	}
	if err := p.fsync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	final := filepath.Join(p.cfg.dir, snapshotName(version))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := p.syncDir(); err != nil {
		return err
	}
	// The new snapshot is durable; the folded inputs are now redundant.
	if oldSnap != "" {
		os.Remove(oldSnap)
	}
	for _, s := range p.sealed {
		os.Remove(s.path)
	}
	p.snapVersion, p.snapCount, p.snapBytes, p.sealed = version, count, size, nil
	p.folds++
	p.foldedBytes += size
	return nil
}

// copyRecords streams every record of src past its header into dst
// through buf (at least copyBufSize bytes), re-validating each record on
// the way, and returns the bytes copied. Validation (rather than a blind
// byte copy) keeps a latent bad sector from propagating into every
// future snapshot generation; streaming keeps a fold's memory at one
// buffer however large the snapshot grows.
func copyRecords(dst io.Writer, src string, headerSize int, buf []byte) (int64, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, fmt.Errorf("store: compact: %w", err)
	}
	defer f.Close()
	if _, err := io.ReadFull(f, buf[:headerSize]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("store: compact: %s: short header", src)
		}
		return 0, fmt.Errorf("store: compact: %w", err)
	}
	var copied int64
	filled := 0 // buf[:filled] was read but not yet copied
	for {
		n, rerr := f.Read(buf[filled:])
		filled += n
		valid := 0
		for {
			_, m, err := decodeRecord(buf[valid:filled])
			if errors.Is(err, errShortRecord) {
				break // the record continues past what was read
			}
			if err != nil {
				return copied, fmt.Errorf("store: compact: %s: %w", src, err)
			}
			valid += m
		}
		if _, err := dst.Write(buf[:valid]); err != nil {
			return copied, fmt.Errorf("store: compact: %w", err)
		}
		copied += int64(valid)
		filled = copy(buf, buf[valid:filled])
		if rerr == io.EOF {
			if filled > 0 {
				return copied, fmt.Errorf("store: compact: %s: %w", src, errShortRecord)
			}
			return copied, nil
		}
		if rerr != nil {
			return copied, fmt.Errorf("store: compact: %w", rerr)
		}
	}
}

// fsync syncs f and counts it.
func (p *persister) fsync(f *os.File) error {
	p.fsyncs++
	return f.Sync()
}

// syncDir fsyncs the data directory and counts it.
func (p *persister) syncDir() error {
	p.fsyncs++
	return syncDir(p.cfg.dir)
}

// syncDir fsyncs a directory so renames and deletes within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// forceCompact seals the active segment and folds every sealed segment
// into the snapshot now, regardless of foldDue, then opens a fresh
// active segment. The caller serializes it against append.
func (p *persister) forceCompact() error {
	if p.cfg.readOnly {
		return ErrReadOnly
	}
	if p.failed != nil {
		return p.failed
	}
	if p.f != nil {
		if err := p.seal(); err != nil {
			return err
		}
	}
	if len(p.sealed) > 0 {
		if err := p.compact(); err != nil {
			return err
		}
	}
	return p.newSegment()
}

// reset deletes every segment and snapshot and starts the log over at
// record 1 — the durable half of a fenced replica's reset. The directory
// lock is kept; the poison flag is cleared (every poisoned file is
// gone). The caller serializes it against append.
func (p *persister) reset() error {
	if p.cfg.readOnly {
		return ErrReadOnly
	}
	if p.f != nil {
		p.f.Close() // best effort; the file is deleted next
		p.f = nil
	}
	names, err := os.ReadDir(p.cfg.dir)
	if err != nil {
		return fmt.Errorf("store: reset: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if (strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")) ||
			(strings.HasPrefix(name, "snap-") && (strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".tmp"))) {
			if err := os.Remove(filepath.Join(p.cfg.dir, name)); err != nil {
				return fmt.Errorf("store: reset: %w", err)
			}
		}
	}
	if p.cfg.policy != FsyncOff {
		if err := p.syncDir(); err != nil {
			return err
		}
	}
	p.sealed = nil
	p.snapVersion, p.snapCount, p.snapBytes = 0, 0, 0
	p.next = 1
	p.size, p.unsynced = 0, 0
	p.failed = nil
	return p.newSegment()
}

// stats snapshots the on-disk state. The caller serializes it against
// append.
func (p *persister) stats() PersistStats {
	st := PersistStats{
		Enabled:         true,
		Dir:             p.cfg.dir,
		Entries:         p.next - 1,
		SnapshotVersion: p.snapVersion,
		SnapshotEntries: p.snapCount,
		SealedSegments:  len(p.sealed),
		Segments:        len(p.sealed),
		SnapshotBytes:   p.snapBytes,
		SealedBytes:     p.sealedBytes(),
		Fsyncs:          p.fsyncs,
		Folds:           p.folds,
		FoldedBytes:     p.foldedBytes,
	}
	if p.f != nil {
		st.Segments++
		st.ActiveSegmentBytes = p.size
	} else if p.roTail {
		st.Segments++
		st.ActiveSegmentBytes = p.roTailBytes
	}
	return st
}

// close syncs (under FsyncAlways and FsyncBatch) and closes the active
// segment, then releases the directory lock. The persister must not be
// used afterwards.
func (p *persister) close() error {
	var err error
	if p.f != nil {
		if p.cfg.policy != FsyncOff {
			if serr := p.fsync(p.f); serr != nil {
				err = fmt.Errorf("store: close: %w", serr)
			}
		}
		if cerr := p.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: close: %w", cerr)
		}
		p.f = nil
	}
	if p.lock != nil {
		p.lock.Close() // closing drops the flock
		p.lock = nil
	}
	return err
}
