package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"communix/internal/ids"
	"communix/internal/sig"
)

// FsyncPolicy selects when the write-ahead log calls fsync. The policy
// trades durability of the most recent batches against ingestion
// throughput; see docs/ARCHITECTURE.md ("Fsync policy") for the
// trade-offs.
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
	// snapMagic opens every legacy snapshot file, followed by the
	// big-endian uint64 snapshot version and record count. Older
	// versions folded sealed segments into such files; this one only
	// reads them (see recoverFiles).
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

	// defaultSegmentMaxBytes caps one WAL segment (4 MiB ≈ 2,400 of the
	// paper's 1.7 KB signatures). A segment that reaches the cap is
	// sealed and never written again.
	defaultSegmentMaxBytes = 4 << 20
)

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

// isSegment, isSnapshot and isSnapshotTemp recognize the names of
// segments, legacy snapshots, and an older version's crashed fold.
func isSegment(name string) bool      { return affixed(name, "wal-", ".seg") }
func isSnapshot(name string) bool     { return affixed(name, "snap-", ".snap") }
func isSnapshotTemp(name string) bool { return affixed(name, "snap-", ".tmp") }

func affixed(name, prefix, suffix string) bool {
	return strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
}

// tailSeg describes the last segment recovery read: the candidate
// active segment.
type tailSeg struct {
	path  string
	first uint64 // global index of the first record
	bytes int64  // valid length: header plus whole records
}

// persistConfig parameterizes openPersister; Open fills it from Config.
type persistConfig struct {
	dir      string
	policy   FsyncPolicy
	segMax   int64
	readOnly bool
}

// persister owns a store's data directory: the active WAL segment and
// the sealed files before it. The caller (Store.commit) serializes all
// mutations, so persister needs no internal locking.
//
// Directory contents:
//
//	wal-<first>.seg       segments, each holding records from index <first>
//	snap-<version>.snap   legacy snapshots from older versions: records
//	                      1..count, read as sealed segments
//
// Invariants: the files, in name order, cover contiguous ranges of the
// global record sequence that start at 1 and may overlap (an overlap is
// a crashed fold of an older version; recovery skips it); only the last
// segment may end in a torn record, and only recovery may observe one.
// Only reset deletes a file that holds a record.
type persister struct {
	cfg persistConfig

	lock     *os.File // lockDir-held LOCK file (nil when readOnly)
	f        *os.File // active segment (nil when readOnly)
	fFirst   uint64   // global index of the active segment's first record
	size     int64    // active segment's size (read-only: the tail's)
	unsynced int64    // bytes written since the last fsync
	next     uint64   // global index the next record will get (1-based)

	// sealedFiles and sealedBytes count the files that are never
	// written again — sealed segments and legacy snapshots — and their
	// total size.
	sealedFiles int
	sealedBytes int64

	// fsyncs counts every fsync issued since open, file or directory.
	fsyncs uint64

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
	// Entries is the number of durable records.
	Entries uint64 `json:"entries"`
	// Segments counts the record files: sealed segments, legacy
	// snapshots, and the active segment.
	Segments int `json:"segments"`
	// SealedBytes is the total size of the sealed segments and legacy
	// snapshots.
	SealedBytes int64 `json:"sealed_bytes"`
	// ActiveSegmentBytes is the active segment's current size.
	ActiveSegmentBytes int64 `json:"active_segment_bytes"`
	// Fsyncs counts every fsync the WAL issued since Open, file or
	// directory.
	Fsyncs uint64 `json:"fsyncs"`
}

// openPersister opens (creating if needed) the data directory, recovers
// the durable record sequence — every record file in name order,
// tolerating a torn record at the tail of the last segment — and hands
// apply each file's recovered entries as one run, in log order (see
// recoverFiles). On return the persister is ready to append (unless
// readOnly).
func openPersister(cfg persistConfig, apply applyFunc) (*persister, error) {
	if !cfg.readOnly {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: data dir: %w", err)
		}
	}
	p := &persister{cfg: cfg, next: 1}
	if !cfg.readOnly {
		// Two writers interleaving appends in one directory corrupt the
		// log unrecoverably; refuse up front (see lockDir). Read-only
		// opens take no lock: inspecting a live directory mutates
		// nothing, and a writer deletes record files only in reset.
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
	var files []string
	for _, de := range names {
		name := de.Name()
		switch {
		case isSegment(name) || isSnapshot(name):
			files = append(files, name)
		case isSnapshotTemp(name) && !cfg.readOnly:
			// Without this sweep, each crashed fold of an older version
			// would leak a file of up to full-database size forever.
			os.Remove(filepath.Join(cfg.dir, name))
		}
	}
	sort.Strings(files) // "snap-" sorts before "wal-"

	tail, err := p.recoverFiles(files, apply)
	if err != nil {
		return fail(err)
	}
	if cfg.readOnly {
		if tail != nil {
			p.size = tail.bytes // for stats only: nothing is appended
		}
		return p, nil
	}
	if err := p.openActive(tail); err != nil {
		return fail(err)
	}
	return p, nil
}

// applyFunc folds one run of recovered entries, in log order, into the
// store. On failure it returns the position in the run of the entry at
// fault, which recovery reports by its global index.
type applyFunc func(run []walEntry) (int, error)

// recoverFiles replays, in name order, every record with a global index
// past those already recovered, enforcing contiguity. Legacy snapshots
// sort before every segment and read as sealed segments whose first
// record is 1; a record an earlier file already holds (an older
// snapshot, or a folded segment, that a crashed fold left behind) is
// skipped. Each file's framing and checksums are checked first, then its
// new records go to apply as one run. The last segment tolerates a torn
// tail: the first short or corrupt record ends recovery and (in
// read-write mode) the file is truncated to the valid prefix. The same
// condition in any other file — a legacy snapshot included, which its
// writer fsynced before renaming it into place — is unrecoverable
// corruption; the records before it are applied first, so the first bad
// record in log order is the one reported. It returns the last segment
// (recovery's candidate active segment), or nil when there is none.
func (p *persister) recoverFiles(names []string, apply applyFunc) (*tailSeg, error) {
	var tail *tailSeg
	for i, name := range names {
		path := filepath.Join(p.cfg.dir, name)
		snap := isSnapshot(name)
		last := i == len(names)-1 && !snap
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		magic, headerSize := segMagic, segHeaderSize
		if snap {
			magic, headerSize = snapMagic, snapHeaderSize
		}
		if len(b) < headerSize || string(b[:len(magic)]) != magic {
			if last && len(b) < headerSize {
				// Torn segment creation: the header never fully landed, so
				// no record in it was ever acknowledged. Discard.
				if !p.cfg.readOnly {
					if err := os.Remove(path); err != nil {
						return nil, fmt.Errorf("store: %w", err)
					}
				}
				continue
			}
			return nil, fmt.Errorf("store: %s: bad header", path)
		}
		first := uint64(1)
		if !snap {
			first = binary.BigEndian.Uint64(b[len(segMagic):])
		}
		if first > p.next {
			return nil, fmt.Errorf("store: %s: starts at record %d, want %d (missing segment)", path, first, p.next)
		}
		idx, runFirst := first, p.next
		valid := headerSize
		rest := b[headerSize:]
		var run []walEntry
		var corrupt error
		for len(rest) > 0 {
			e, n, err := decodeRecord(rest)
			if err != nil {
				if !last {
					corrupt = fmt.Errorf("store: %s: record %d: %w", path, idx, err)
				}
				break // torn tail: keep the longest valid prefix
			}
			// idx never passes p.next: the file starts at or before it.
			if idx == p.next {
				run = append(run, e)
				p.next++
			}
			idx++
			valid += n
			rest = rest[n:]
		}
		if bad, err := apply(run); err != nil {
			return nil, fmt.Errorf("store: %s: record %d: %w", path, runFirst+uint64(bad), err)
		}
		if corrupt != nil {
			return nil, corrupt
		}
		if snap {
			// Compared, never allocated by: a corrupt count fails Open.
			if count := binary.BigEndian.Uint64(b[len(snapMagic)+8:]); count != idx-1 {
				return nil, fmt.Errorf("store: %s: %d records, header says %d", path, idx-1, count)
			}
		}
		if !last {
			p.sealedFiles++
			p.sealedBytes += int64(valid)
			continue
		}
		if valid < len(b) && !p.cfg.readOnly {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		tail = &tailSeg{path: path, first: first, bytes: int64(valid)}
	}
	return tail, nil
}

// openActive makes the recovered tail segment (or a fresh one) the
// append target. A recovered tail that already reached the size cap is
// sealed instead.
func (p *persister) openActive(tail *tailSeg) error {
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
		p.sealedFiles++
		p.sealedBytes += tail.bytes
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

// append writes one committed batch to the active segment, rolling to a
// new one at the size cap, and applies the fsync policy. The caller
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

// roll seals the active segment and starts a new one. It is re-entrant
// after a failure: a sealed segment leaves p.f nil, so the next append
// retries only the stage that has not completed, and a transient error
// — ENOSPC creating the new segment, say — heals once its cause clears
// instead of wedging every later append.
func (p *persister) roll() error {
	if p.f != nil {
		if err := p.seal(); err != nil {
			return err
		}
	}
	return p.newSegment()
}

// seal syncs (skipped under FsyncOff, whose contract is "never fsync")
// and closes the active segment, which is never written again. An empty
// segment is dropped instead, so the next segment can reuse its name.
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
	path, empty, size := p.f.Name(), p.next == p.fFirst, p.size
	p.f, p.size = nil, 0
	if empty {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: seal: %w", err)
		}
		return nil
	}
	p.sealedFiles++
	p.sealedBytes += size
	return nil
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

// syncDir fsyncs a directory so creations and deletions within it are
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

// reset deletes every segment and legacy snapshot and starts the log
// over at record 1 — the durable half of a fenced replica's reset. The
// directory lock is kept; the poison flag is cleared (every poisoned
// file is gone). The caller serializes it against append.
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
		if name := de.Name(); isSegment(name) || isSnapshot(name) || isSnapshotTemp(name) {
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
	p.sealedFiles, p.sealedBytes = 0, 0
	p.next = 1
	p.size, p.unsynced = 0, 0
	p.failed = nil
	return p.newSegment()
}

// stats snapshots the on-disk state. The caller serializes it against
// append.
func (p *persister) stats() PersistStats {
	st := PersistStats{
		Enabled:     true,
		Dir:         p.cfg.dir,
		Entries:     p.next - 1,
		Segments:    p.sealedFiles,
		SealedBytes: p.sealedBytes,
		Fsyncs:      p.fsyncs,
	}
	if p.size > 0 {
		st.Segments++
		st.ActiveSegmentBytes = p.size
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
