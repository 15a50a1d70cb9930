// Package dimmunix implements deadlock immunity for Go programs, after
// Dimmunix (Jula et al., OSDI'08) as summarized in the Communix paper
// (§II-A): a detection module finds deadlocks at runtime and fingerprints
// the execution flows that led to them (signatures), and an avoidance
// module steers thread schedules away from flows matching saved
// signatures by suspending threads whose lock acquisitions would
// instantiate a signature.
//
// The JVM version interposes on monitor bytecodes; Go offers no way to
// interpose on sync.Mutex, so programs participate explicitly: either by
// replacing sync.Mutex with Mutex (native Go stacks are captured
// automatically), or by driving the abstract Runtime API with explicit
// (thread, lock, call stack) events, which is how the benchmark workloads
// replay synthetic-application executions.
package dimmunix

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"communix/internal/chunk"
	"communix/internal/sig"
)

// SlotRef identifies one thread slot of one history signature.
type SlotRef struct {
	// Sig is the signature.
	Sig *sig.Signature
	// Slot indexes Sig.Threads.
	Slot int
	// Seq is Sig's insertion number in the history (see History). The
	// index sorts refs by it, which is also the multi-shard lock order.
	Seq uint64
}

// History is the persistent deadlock history: the set of signatures the
// avoidance module matches against (§II-A). It is safe for concurrent
// use; the Runtime reads it on every lock acquisition while the Communix
// agent adds, merges, and removes signatures.
//
// Every mutation bumps the version once and marks the index dirty. The
// Runtime's position refresh learns what changed by comparing the live
// signature sets of the index it last applied and the current one
// (indexDelta).
//
// Each stored signature gets an insertion number, never reused. The
// index sorts by it, so its order (the multi-shard lock order) is total
// and depends only on the order of mutations; SaveTo writes in it too.
// Equal signatures share a bug (sig.BugHash), so duplicates are looked
// for in the bug's bucket and confirmed with Equal. sig.ID is computed
// only to name a signature — for Get, Remove and Replace, which take an
// ID, and for false-positive warnings — once per stored signature. It is
// not injective: an ID names the signature stored first under it, and a
// twin (same ID, not Equal) stored while that one is present never takes
// the ID over.
type History struct {
	mu      sync.RWMutex
	order   []*entry            // in insertion order; removed ones linger until deleteLocked drops them
	live    int                 // entries in order not removed
	byBug   map[uint64][]*entry // bug hash -> entries, in insertion order
	byID    map[string]*entry   // ID -> its holder among the named entries
	named   uint64              // entries up to this insertion number are named
	seq     uint64              // the last insertion number handed out
	version uint64
	path    string // "" = in-memory only

	// idx is the immutable avoidance index, swapped with one atomic
	// store; the acquisition hot path loads it without taking mu.
	// Mutations only mark idxDirty, and the next Index() call rebuilds
	// once, so bulk ingestion stays O(S) instead of O(S²).
	idx      atomic.Pointer[AvoidIndex]
	idxDirty atomic.Bool
}

// entry is one signature the history stores (or stored, once removed).
type entry struct {
	sig     *sig.Signature
	seq     uint64
	bug     uint64 // sig.BugHash()
	id      string // sig.ID(), memoized by the first path that names it
	removed bool
}

// NewHistory returns an empty, in-memory history.
func NewHistory() *History {
	h := &History{
		byBug: make(map[uint64][]*entry),
		byID:  make(map[string]*entry),
	}
	h.idx.Store(emptyIndex)
	return h
}

// LoadHistory opens (or initializes) a history persisted at path. A
// missing file yields an empty history bound to the path; a corrupt file
// is an error. Signatures are stored in file order.
func LoadHistory(path string) (*History, error) {
	h := NewHistory()
	h.path = path
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return h, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dimmunix: load history: %w", err)
	}
	var file historyFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("dimmunix: load history %s: %w", path, err)
	}
	for i, raw := range file.Signatures {
		s, err := sig.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("dimmunix: load history %s: signature %d: %w", path, i, err)
		}
		s.Origin = sig.OriginLocal
		if i < len(file.Origins) && file.Origins[i] == "remote" {
			s.Origin = sig.OriginRemote
		}
		h.adopt(s)
	}
	return h, nil
}

// historyFile is the on-disk representation.
type historyFile struct {
	Signatures []json.RawMessage `json:"signatures"`
	Origins    []string          `json:"origins"`
}

// Add inserts a normalized copy of a signature unless an identical one
// is present. It returns true when the history changed.
func (h *History) Add(s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	_, added := h.adopt(owned(s))
	return added
}

// owned returns a normalized copy of s for the history to take over.
func owned(s *sig.Signature) *sig.Signature {
	s = s.Clone()
	s.Normalize()
	return s
}

// adopt stores s itself — valid and normalized — unless an Equal
// signature is present: the history takes s over, and the caller must
// not modify it afterwards. It returns the instance the history holds (s
// when it was stored) and whether s was stored.
func (h *History) adopt(s *sig.Signature) (held *sig.Signature, added bool) {
	bug := s.BugHash()
	h.mu.Lock()
	defer h.mu.Unlock()
	e, added := h.storeLocked(s, bug)
	if added {
		h.commitLocked()
	}
	return e.sig, added
}

// storeLocked stores s itself, whose bug hash is bug, under the next
// insertion number, unless an Equal signature — one of the bug's — is
// present. It returns the entry holding s's equal and whether it is s's.
// It does not bump the version: a caller folding several changes into
// one mutation commits once.
func (h *History) storeLocked(s *sig.Signature, bug uint64) (*entry, bool) {
	for _, e := range h.byBug[bug] {
		if e.sig.Equal(s) {
			return e, false
		}
	}
	h.seq++
	e := &entry{sig: s, seq: h.seq, bug: bug}
	h.order = append(h.order, e)
	h.live++
	h.byBug[bug] = append(h.byBug[bug], e)
	return e, true
}

// deleteLocked removes e from the history.
func (h *History) deleteLocked(e *entry) {
	e.removed = true
	h.live--
	if h.byBug[e.bug] = slices.DeleteFunc(h.byBug[e.bug], isRemoved); len(h.byBug[e.bug]) == 0 {
		delete(h.byBug, e.bug)
	}
	if h.byID[e.id] == e {
		delete(h.byID, e.id)
	}
	// Once removed entries are the majority of h.order, drop them: each
	// removal pays O(1) for it.
	if len(h.order) > 2*h.live {
		h.order = slices.DeleteFunc(h.order, isRemoved)
	}
}

func isRemoved(e *entry) bool { return e.removed }

// lookupLocked returns the entry holding the given ID, or nil. It
// names the entries stored since the last lookup first, so each entry's
// ID is computed once and a lookup costs amortized O(1).
func (h *History) lookupLocked(id string) *entry {
	i := len(h.order)
	for i > 0 && h.order[i-1].seq > h.named {
		i--
	}
	for _, e := range h.order[i:] {
		if e.removed {
			continue
		}
		if e.id == "" {
			e.id = e.sig.ID()
		}
		if h.byID[e.id] == nil {
			h.byID[e.id] = e
		}
	}
	h.named = h.seq
	return h.byID[id]
}

// holderLocked returns the entry storing s itself, or nil.
func (h *History) holderLocked(s *sig.Signature) *entry {
	for _, e := range h.byBug[s.BugHash()] {
		if e.sig == s {
			return e
		}
	}
	return nil
}

// nameOf returns the ID of s, which the history stores or stored: the
// stored signature's memoized ID.
func (h *History) nameOf(s *sig.Signature) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.holderLocked(s)
	if e == nil {
		return s.ID() // removed meanwhile
	}
	if e.id == "" {
		e.id = s.ID()
	}
	return e.id
}

// lookup returns the entry holding the given ID, or nil.
func (h *History) lookup(id string) *entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lookupLocked(id)
}

// commitLocked publishes one mutation: one version bump, and the index
// marked for a lazy rebuild.
func (h *History) commitLocked() {
	h.version++
	h.idxDirty.Store(true)
}

// Index returns the current immutable avoidance index, rebuilding it
// first if mutations happened since the last build. It never returns
// nil, and on the hot path (no pending mutations) costs two atomic
// loads and no lock.
func (h *History) Index() *AvoidIndex {
	if h.idxDirty.Load() {
		h.mu.Lock()
		if h.idxDirty.Load() {
			h.idx.Store(buildIndex(h.version, h.order))
			h.idxDirty.Store(false)
		}
		h.mu.Unlock()
	}
	return h.idx.Load()
}

// Remove deletes the signature holding the given ID, returning whether
// one was present. The false-positive mechanism (§III-C1) uses it when
// the user decides to drop a warned signature.
func (h *History) Remove(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.lookupLocked(id)
	if e == nil {
		return false
	}
	h.deleteLocked(e)
	h.commitLocked()
	return true
}

// RemoveSignature deletes s, the history's own instance (as a
// Deadlock or a FalsePositiveWarning carries it), returning whether it
// was still stored. Unlike Remove it reaches a twin of an ID's holder.
func (h *History) RemoveSignature(s *sig.Signature) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.holderLocked(s)
	if e == nil {
		return false
	}
	h.deleteLocked(e)
	h.commitLocked()
	return true
}

// Replace swaps an existing signature (the one holding oldID) for a
// normalized copy of another in one step — how generalization installs
// a merged signature in place of the old one. If oldID names none the
// new signature is still added; if it names the new signature already,
// nothing changes. It reports whether the history changed. The swap is
// one mutation — one version bump — so no index ever shows the history
// with neither signature or with both (pure removal and pure addition,
// the degenerate cases, also bump the version once).
func (h *History) Replace(oldID string, s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	s = owned(s)
	bug := s.BugHash()
	h.mu.Lock()
	defer h.mu.Unlock()
	changed := false
	if old := h.lookupLocked(oldID); old != nil {
		if old.sig.Equal(s) {
			return false
		}
		h.deleteLocked(old)
		changed = true
	}
	if _, added := h.storeLocked(s, bug); added {
		changed = true
	}
	if changed {
		h.commitLocked()
	}
	return changed
}

// Candidate is a validated signature for GeneralizeBatch.
type Candidate struct {
	// Sig is valid and canonical.
	Sig *sig.Signature
	// Bug is Sig.BugHash().
	Bug uint64
}

// GeneralizeBatch installs validated signatures into the history, in
// order (§III-D): each one merges into the first same-bug signature the
// policy lets it merge with — replacing that signature by the merge in
// one mutation, as Replace does, or changing nothing when the merge is
// that signature already (it is subsumed) — and is added when no merge
// applies. It returns how many became new entries.
//
// The history takes each candidate's signature over and may store it as
// it is, so the caller must neither modify it afterwards nor hand it to
// the history again. Its stacks may be shared with other read-only
// signatures (the agent's trimmed signatures alias the repository's),
// since the history never writes to a signature it stores. The batch
// trusts each candidate's validity and bug hash, which the agent derives
// while validating, on every core, so the fold that must run in order
// does no more than merge. It holds the lock for at most chunk.Size
// candidates at a time: an application thread that must rebuild the
// avoidance index waits behind one chunk of the fold, never behind a
// whole repository.
func (h *History) GeneralizeBatch(batch []Candidate, p sig.MergePolicy) (added int) {
	for len(batch) > 0 {
		n := min(len(batch), chunk.Size)
		h.mu.Lock()
		for _, c := range batch[:n] {
			if h.generalizeLocked(c.Sig, c.Bug, p) {
				added++
			}
		}
		h.mu.Unlock()
		batch = batch[n:]
	}
	return added
}

// generalizeLocked is one GeneralizeBatch step for s, whose bug hash is
// bug. It tells a subsumed s by MergePolicy.Covers, building a merge
// only when one changes the history, and looks no further than the
// bug's bucket.
func (h *History) generalizeLocked(s *sig.Signature, bug uint64, p sig.MergePolicy) bool {
	for _, old := range h.byBug[bug] {
		ok, covered := p.Covers(old.sig, s)
		if !ok {
			continue
		}
		if covered {
			return false // subsumed: old already covers s
		}
		merged, _ := p.Merge(old.sig, s)
		// A merge keeps old's top frames, so it has old's bug hash.
		h.deleteLocked(old)
		h.storeLocked(merged, bug)
		h.commitLocked()
		return false
	}
	_, added := h.storeLocked(s, bug) // not when an identical one is present
	if added {
		h.commitLocked()
	}
	return added
}

// Get returns the signature holding the given ID, or nil.
// The history never modifies it; neither may the caller.
func (h *History) Get(id string) *sig.Signature {
	if e := h.lookup(id); e != nil {
		return e.sig
	}
	return nil
}

// All returns a snapshot of the signatures (clones, in insertion order).
func (h *History) All() []*sig.Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*sig.Signature, 0, h.live)
	for _, e := range h.order {
		if !e.removed {
			out = append(out, e.sig.Clone())
		}
	}
	return out
}

// Len returns the number of signatures.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live
}

// Version increments on every mutation. It goes through Index() so
// pending mutations are reflected.
func (h *History) Version() uint64 {
	return h.Index().version
}

// Mutations returns how many mutations the history has seen: Version
// without the index rebuild, for a caller that only asks whether
// something changed (say, whether a pass left anything to save).
func (h *History) Mutations() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.version
}

// MatchOuter returns every signature slot whose outer call stack is a
// suffix of cs. It reads the immutable avoidance index — pre-grouped by
// outer top frame — so only signatures locking at cs's top site are
// inspected, without taking any lock in steady state.
func (h *History) MatchOuter(cs sig.Stack) []SlotRef {
	return h.Index().Match(cs)
}

// Save persists the history to its bound path (no-op for in-memory
// histories). The write is atomic: temp file then rename.
func (h *History) Save() error {
	h.mu.RLock()
	path := h.path
	h.mu.RUnlock()
	if path == "" {
		return nil
	}
	return h.SaveTo(path)
}

// SaveTo persists the history to an explicit path, in insertion order:
// a reloaded history keeps its index order and its lock order.
func (h *History) SaveTo(path string) error {
	h.mu.RLock()
	file := historyFile{
		Signatures: make([]json.RawMessage, 0, h.live),
		Origins:    make([]string, 0, h.live),
	}
	var err error
	for _, e := range h.order {
		var data []byte
		if e.removed {
			continue
		}
		if data, err = sig.Encode(e.sig); err != nil {
			break
		}
		file.Signatures = append(file.Signatures, data)
		file.Origins = append(file.Origins, e.sig.Origin.String())
	}
	h.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".history-*")
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	return nil
}
