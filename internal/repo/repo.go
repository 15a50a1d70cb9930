// Package repo implements the Communix client's local signature
// repository (§III-B): the file the background client downloads new
// signatures into, and that the agent inspects incrementally at
// application startup (every signature is analyzed only once per
// application; signatures that passed the hash check but failed the
// nesting check are kept for re-checking when new classes load).
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"communix/internal/sig"
)

// Entry is one repository signature with its stable position.
type Entry struct {
	// Index is the signature's 0-based position in download order.
	Index int
	// Sig is the repository's own decoded signature, shared with every
	// caller: read-only.
	Sig *sig.Signature
}

// Repo is the local signature repository. It is safe for concurrent use
// (the background client appends while applications inspect). A Repo with
// an empty path lives in memory only.
type Repo struct {
	mu    sync.Mutex
	path  string
	state state
	// decoded caches decoded signatures by position.
	decoded []*sig.Signature
}

// state is the persisted form.
type state struct {
	// Next is the 1-based index to request from the server next.
	Next int `json:"next"`
	// Epoch is the server promotion epoch this repository last adopted
	// (0 = pre-epoch, fenced conservatively on first contact with an
	// epoch-aware server; see docs/PROTOCOL.md, "Epochs and fencing").
	Epoch uint64 `json:"epoch,omitempty"`
	// Sigs are the downloaded signatures in server order.
	Sigs []json.RawMessage `json:"sigs"`
	// Inspected maps application key -> number of leading signatures
	// already inspected for that application.
	Inspected map[string]int `json:"inspected,omitempty"`
	// PendingNesting maps application key -> positions that passed the
	// hash check but failed the nesting check (§III-C3 re-check).
	PendingNesting map[string][]int `json:"pending_nesting,omitempty"`
}

// Open loads (or initializes) a repository at path; empty path means
// in-memory.
func Open(path string) (*Repo, error) {
	r := &Repo{path: path}
	r.state.Next = 1
	r.state.Inspected = make(map[string]int)
	r.state.PendingNesting = make(map[string][]int)
	if path == "" {
		return r, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repo: open: %w", err)
	}
	if err := json.Unmarshal(data, &r.state); err != nil {
		return nil, fmt.Errorf("repo: open %s: %w", path, err)
	}
	if r.state.Next < 1 {
		r.state.Next = 1
	}
	if r.state.Inspected == nil {
		r.state.Inspected = make(map[string]int)
	}
	if r.state.PendingNesting == nil {
		r.state.PendingNesting = make(map[string][]int)
	}
	// Validate eagerly so corruption surfaces at open, not at first use.
	r.decoded = make([]*sig.Signature, len(r.state.Sigs))
	for i, raw := range r.state.Sigs {
		s, err := sig.DecodeShared(raw)
		if err != nil {
			return nil, fmt.Errorf("repo: open %s: signature %d: %w", path, i, err)
		}
		s.Origin = sig.OriginRemote
		r.decoded[i] = s
	}
	return r, nil
}

// Append stores newly downloaded signatures and advances the server
// cursor. The batch covers server indexes [next-len(raw), next); entries
// already below the cursor were appended by an earlier or concurrent
// sync (the background client's immediate first sync can race an
// explicit SyncNow, both fetching the same range) and are skipped,
// making overlapping Appends idempotent. An Append that adds nothing
// and leaves the cursor where it was writes nothing.
//
// Append is where downloaded signatures are validated, except those the
// frame decoder already decoded (AppendDecoded): canonical page
// signatures are decoded where they are delimited; everything else is
// delimited and decoded here. The whole page is checked before any of
// it is kept. A value that is not JSON rejects the page, leaving the
// repository unchanged; a JSON value that is not a valid signature is
// skipped (the server is not trusted blindly), while the cursor still
// moves past it. Positions therefore follow server indexes only up to
// the first skipped entry; the server cursor (Next), not Len, says how
// much of the server's log the repository has read. Duplicates by
// content are kept.
//
// The repository keeps the raw slices, and its decoded signatures share
// their bytes: the caller must not modify them afterwards. Each kept
// signature is decoded once, here or by the frame decoder; nothing
// changes it after that.
func (r *Repo) Append(raw []json.RawMessage, next int) error {
	return r.AppendDecoded(raw, nil, next)
}

// AppendDecoded is Append for a page some of whose signatures were
// decoded where the page was read (wire.Response.DecodedSigs): a
// non-nil decoded[i] must be sig.DecodeShared(raw[i])'s value, and the
// repository takes it instead of decoding raw[i] again. Nil slots, and
// slots past the end of decoded, are decoded and judged as Append
// judges them.
func (r *Repo) AppendDecoded(raw []json.RawMessage, decoded []*sig.Signature, next int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := min(max(r.state.Next-(next-len(raw)), 0), len(raw))
	keep := make([]json.RawMessage, 0, len(raw)-covered)
	sigs := make([]*sig.Signature, 0, len(raw)-covered)
	for i, data := range raw {
		var s *sig.Signature
		if i < len(decoded) {
			s = decoded[i]
		}
		if i < covered {
			if s == nil && !json.Valid(data) {
				return fmt.Errorf("repo: append: signature %d of the page is not JSON", i)
			}
			continue
		}
		if s == nil {
			var err error
			if s, err = sig.DecodeShared(data); err != nil {
				if !json.Valid(data) {
					return fmt.Errorf("repo: append: signature %d of the page: %w", i, err)
				}
				continue
			}
		}
		s.Origin = sig.OriginRemote
		keep = append(keep, data)
		sigs = append(sigs, s)
	}
	if len(keep) == 0 && next <= r.state.Next {
		return nil
	}
	r.state.Sigs = append(r.state.Sigs, keep...)
	r.decoded = append(r.decoded, sigs...)
	r.state.Next = max(r.state.Next, next)
	return r.saveLocked()
}

// Next returns the 1-based index to request from the server.
func (r *Repo) Next() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Next
}

// Epoch returns the server promotion epoch the repository last adopted.
func (r *Repo) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Epoch
}

// SetEpoch records a newly adopted promotion epoch (the client calls
// this when a server's epoch is ahead but the repository's prefix is at
// or below the fence, so its contents survive). Lower epochs are
// ignored — epochs only move forward.
func (r *Repo) SetEpoch(epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.state.Epoch {
		return nil
	}
	r.state.Epoch = epoch
	return r.saveLocked()
}

// Reset discards every downloaded signature and all per-application
// inspection state, rewinds the server cursor to 1, and adopts epoch.
// The client calls this when a promotion fenced the repository: its
// tail may contain entries the failed primary never shipped to the new
// one, and positions past the fence no longer mean the same thing
// server-side, so the only safe recovery is a full re-download.
// Applications re-inspect from scratch — inspection is idempotent.
func (r *Repo) Reset(epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = state{
		Next:           1,
		Epoch:          epoch,
		Inspected:      make(map[string]int),
		PendingNesting: make(map[string][]int),
	}
	r.decoded = nil
	return r.saveLocked()
}

// Len returns the number of stored signatures.
func (r *Repo) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.state.Sigs)
}

// NewSince returns the signatures not yet inspected for the application,
// in download order. The entries carry the repository's own decoded
// signatures, not copies: callers must not modify them.
func (r *Repo) NewSince(appKey string) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.state.Inspected[appKey]
	out := make([]Entry, 0, len(r.decoded)-from)
	for i := from; i < len(r.decoded); i++ {
		out = append(out, Entry{Index: i, Sig: r.decoded[i]})
	}
	return out
}

// MarkInspected records that the application has inspected every
// signature below position through (exclusive). pendingNesting lists the
// positions among them that passed the hash check but failed nesting and
// must be re-checked when new classes load.
func (r *Repo) MarkInspected(appKey string, through int, pendingNesting []int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if through > r.state.Inspected[appKey] {
		r.state.Inspected[appKey] = through
	}
	if len(pendingNesting) > 0 {
		merged := append(r.state.PendingNesting[appKey], pendingNesting...)
		sort.Ints(merged)
		merged = dedupInts(merged)
		r.state.PendingNesting[appKey] = merged
	}
	return r.saveLocked()
}

// PendingNesting returns the signatures awaiting a nesting re-check for
// the application. Like NewSince's, they are read-only.
func (r *Repo) PendingNesting(appKey string) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	positions := r.state.PendingNesting[appKey]
	out := make([]Entry, 0, len(positions))
	for _, i := range positions {
		if i >= 0 && i < len(r.decoded) {
			out = append(out, Entry{Index: i, Sig: r.decoded[i]})
		}
	}
	return out
}

// ResolvePending removes positions from the application's pending-nesting
// set (they finally passed, or were rejected for good).
func (r *Repo) ResolvePending(appKey string, positions []int) error {
	if len(positions) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	drop := make(map[int]struct{}, len(positions))
	for _, p := range positions {
		drop[p] = struct{}{}
	}
	cur := r.state.PendingNesting[appKey]
	out := cur[:0]
	for _, p := range cur {
		if _, gone := drop[p]; !gone {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		delete(r.state.PendingNesting, appKey)
	} else {
		r.state.PendingNesting[appKey] = out
	}
	return r.saveLocked()
}

// saveLocked persists atomically and durably: temp file, fsync, rename,
// fsync of the directory. Without the first fsync a crash can leave the
// renamed file empty, which Open refuses; without the second the rename
// itself can be lost. In-memory repos skip persistence.
func (r *Repo) saveLocked() error {
	if r.path == "" {
		return nil
	}
	data, err := json.Marshal(r.state)
	if err != nil {
		return fmt.Errorf("repo: save: %w", err)
	}
	dir := filepath.Dir(r.path)
	tmp, err := os.CreateTemp(dir, ".repo-*")
	if err != nil {
		return fmt.Errorf("repo: save: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("repo: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("repo: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("repo: save: %w", err)
	}
	if err := os.Rename(tmpName, r.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("repo: save: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("repo: save: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("repo: save: sync dir: %w", err)
	}
	return nil
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
