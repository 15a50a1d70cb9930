package store

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"communix/internal/ids"
)

// Entry is one committed log record as exposed by the replication
// interface: the signature's canonical encoding (the exact bytes GET
// serves) plus the commit metadata the WAL carries for it. Shipping
// entries — not just signature bytes — is what lets a follower rebuild
// dup-set, adjacency, and per-user budget state identical to the
// primary's.
type Entry struct {
	// User is the uploader the primary attributed the signature to.
	User ids.UserID
	// Unix is the primary's accept time, seconds.
	Unix int64
	// Data is the stored signature encoding.
	Data json.RawMessage
}

// logChunkSize is the number of entries per log chunk. Chunks let the log
// grow without ever copying published entries, so readers can walk a
// snapshot while appends continue.
const logChunkSize = 1024

// logHeader is one immutable view of the log: chunk directory plus the
// published length. Entries at index < n are frozen; slots at index >= n
// may be concurrently written by an appender and must not be read.
type logHeader struct {
	chunks [][]Entry
	n      int
}

// appendLog is an append-only signature log with lock-free snapshot
// reads: GET never takes a lock, it atomically loads the current header
// and reads the frozen prefix. Appenders serialize on mu, write new
// entries into unpublished slots, and publish them with one atomic
// header store (the store's release barrier makes the entry writes
// visible to any reader that observes the new length).
type appendLog struct {
	mu  sync.Mutex
	hdr atomic.Pointer[logHeader]
}

// newAppendLog returns an empty log.
func newAppendLog() *appendLog {
	l := &appendLog{}
	l.hdr.Store(&logHeader{})
	return l
}

// Append appends the batch and returns the 1-based index of its first
// entry. The whole batch becomes visible to readers atomically.
func (l *appendLog) Append(batch []Entry) int {
	if len(batch) == 0 {
		hdr := l.hdr.Load()
		return hdr.n + 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	hdr := l.hdr.Load()
	chunks := hdr.chunks
	n := hdr.n
	first := n + 1
	for _, e := range batch {
		ci, off := n/logChunkSize, n%logChunkSize
		if ci == len(chunks) {
			// Copy the chunk directory (readers hold the old one) and add
			// a fresh chunk. Existing chunks are shared: their frozen
			// prefixes never change.
			grown := make([][]Entry, len(chunks)+1)
			copy(grown, chunks)
			grown[ci] = make([]Entry, logChunkSize)
			chunks = grown
		}
		chunks[ci][off] = e
		n++
	}
	l.hdr.Store(&logHeader{chunks: chunks, n: n})
	return first
}

// Reset atomically replaces the log with an empty one. Readers holding
// an older header keep their frozen snapshot; new reads see the empty
// log. Only a fenced replica resetting to re-replicate calls this.
func (l *appendLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hdr.Store(&logHeader{})
}

// Len returns the published length without locking.
func (l *appendLog) Len() int {
	return l.hdr.Load().n
}

// at returns the published entry at 1-based index i.
func (l *appendLog) at(i int) Entry {
	return l.hdr.Load().chunks[(i-1)/logChunkSize][(i-1)%logChunkSize]
}

// ReadFrom returns a copy of the entries' signature encodings from
// 1-based index from, plus the next index to request (published length
// + 1). It never blocks appenders.
func (l *appendLog) ReadFrom(from int) ([]json.RawMessage, int) {
	out, next, _ := l.ReadPage(from, 0, 0)
	return out, next
}

// ReadPage returns up to maxCount signature encodings (summing at most
// maxBytes, though a single entry larger than maxBytes still ships
// alone so pages always make progress) from 1-based index from. It
// reports the next index to read and whether entries remain beyond it.
// A zero maxCount or maxBytes means unbounded in that dimension. Like
// ReadFrom it reads an atomic snapshot and never blocks appenders.
func (l *appendLog) ReadPage(from, maxCount, maxBytes int) ([]json.RawMessage, int, bool) {
	entries, next, more := l.EntryPage(from, maxCount, maxBytes)
	if entries == nil {
		return nil, next, more
	}
	out := make([]json.RawMessage, len(entries))
	for i, e := range entries {
		out[i] = e.Data
	}
	return out, next, more
}

// EntryPage is ReadPage returning the full entries (signature bytes
// plus commit metadata) — the replication read path. Same paging
// contract, same lock-free snapshot semantics.
func (l *appendLog) EntryPage(from, maxCount, maxBytes int) ([]Entry, int, bool) {
	if from < 1 {
		from = 1
	}
	hdr := l.hdr.Load()
	if from > hdr.n {
		return nil, hdr.n + 1, false
	}
	avail := hdr.n - (from - 1)
	capHint := avail
	if maxCount > 0 && maxCount < capHint {
		capHint = maxCount
	}
	out := make([]Entry, 0, capHint)
	bytes := 0
	j := from - 1
	for ; j < hdr.n; j++ {
		if maxCount > 0 && len(out) >= maxCount {
			break
		}
		e := hdr.chunks[j/logChunkSize][j%logChunkSize]
		if maxBytes > 0 && len(out) > 0 && bytes+len(e.Data) > maxBytes {
			break
		}
		out = append(out, e)
		bytes += len(e.Data)
	}
	return out, j + 1, j < hdr.n
}
