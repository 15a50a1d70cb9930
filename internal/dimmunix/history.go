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
	"sort"
	"sync"
	"sync/atomic"

	"communix/internal/sig"
)

// SlotRef identifies one thread slot of one history signature.
type SlotRef struct {
	// Sig is the signature.
	Sig *sig.Signature
	// Slot indexes Sig.Threads.
	Slot int
	// ID is Sig.ID(), precomputed at insertion: the avoidance hot path
	// keys its position index by it on every matched acquisition, and
	// recomputing the content hash there dominates runtime.
	ID string
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
type History struct {
	mu      sync.RWMutex
	sigs    map[string]*sig.Signature // by ID
	byBug   map[string][]string       // bug key -> IDs (generalization lookups)
	version uint64
	path    string // "" = in-memory only

	// idx is the immutable avoidance index, swapped with one atomic
	// store. Readers (the acquisition hot path) load it without taking
	// mu. Rebuilds are lazy: mutations only mark idxDirty, and the next
	// Index() call rebuilds once — so bulk ingestion (the agent
	// validating a large community repository at startup, one Add per
	// signature) stays O(S) instead of O(S²).
	idx      atomic.Pointer[AvoidIndex]
	idxDirty atomic.Bool
}

// NewHistory returns an empty, in-memory history.
func NewHistory() *History {
	h := &History{
		sigs:  make(map[string]*sig.Signature),
		byBug: make(map[string][]string),
	}
	h.idx.Store(emptyIndex)
	return h
}

// LoadHistory opens (or initializes) a history persisted at path. A
// missing file yields an empty history bound to the path; a corrupt file
// is an error.
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
		h.addLocked(s)
	}
	return h, nil
}

// historyFile is the on-disk representation.
type historyFile struct {
	Signatures []json.RawMessage `json:"signatures"`
	Origins    []string          `json:"origins"`
}

// Add inserts a signature unless an identical one is present. It returns
// true when the history changed.
func (h *History) Add(s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addLocked(s)
}

func (h *History) addLocked(s *sig.Signature) bool {
	if !h.insertLocked(s, s.ID()) {
		return false
	}
	h.commitLocked()
	return true
}

// insertLocked stores a normalized clone of s under id unless id is
// already present, reporting whether it stored one. It does not bump
// the version: a caller folding several changes into one mutation
// commits once.
func (h *History) insertLocked(s *sig.Signature, id string) bool {
	if _, ok := h.sigs[id]; ok {
		return false
	}
	s = s.Clone()
	s.Normalize()
	h.storeLocked(s, id, s.BugKey())
	return true
}

// storeLocked stores s itself under id and bug, which the caller
// computed from it and checked absent.
func (h *History) storeLocked(s *sig.Signature, id, bug string) {
	h.sigs[id] = s
	h.byBug[bug] = append(h.byBug[bug], id)
}

// commitLocked publishes one mutation: one version bump, and the index
// marked for a lazy rebuild.
func (h *History) commitLocked() {
	h.version++
	h.idxDirty.Store(true)
}

// rebuildIndexLocked publishes a fresh immutable avoidance index
// reflecting the current signature set. Caller holds h.mu for writing.
// Slot references under each top site are sorted for deterministic
// matching order (map iteration would otherwise make avoidance's
// first-threat selection run-dependent).
func (h *History) rebuildIndexLocked() {
	ix := buildIndex(h.version, h.sigs)
	for _, refs := range ix.byTop {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].ID != refs[j].ID {
				return refs[i].ID < refs[j].ID
			}
			return refs[i].Slot < refs[j].Slot
		})
	}
	h.idx.Store(ix)
	h.idxDirty.Store(false)
}

// Index returns the current immutable avoidance index, rebuilding it
// first if mutations happened since the last build. It never returns
// nil, and on the hot path (no pending mutations) costs two atomic
// loads and no lock.
func (h *History) Index() *AvoidIndex {
	if h.idxDirty.Load() {
		h.mu.Lock()
		if h.idxDirty.Load() {
			h.rebuildIndexLocked()
		}
		h.mu.Unlock()
	}
	return h.idx.Load()
}

// deleteLocked removes the signature stored under id, whose bug key is
// bug, from the signature map and the bug index.
func (h *History) deleteLocked(id, bug string) {
	delete(h.sigs, id)
	ids := h.byBug[bug]
	out := ids[:0]
	for _, other := range ids {
		if other != id {
			out = append(out, other)
		}
	}
	if len(out) == 0 {
		delete(h.byBug, bug)
	} else {
		h.byBug[bug] = out
	}
}

// Remove deletes the signature with the given ID, returning whether it
// was present. The false-positive mechanism (§III-C1) uses it when the
// user decides to drop a warned signature.
func (h *History) Remove(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sigs[id]
	if !ok {
		return false
	}
	h.deleteLocked(id, s.BugKey())
	h.commitLocked()
	return true
}

// Replace swaps an existing signature (by ID) for another in one step —
// how generalization installs a merged signature in place of the old one.
// If oldID is absent the new signature is still added. It reports whether
// the history changed. The swap is one mutation — one version bump — so
// no index ever shows the history with neither signature or with both
// (pure removal and pure addition, the degenerate cases, also bump the
// version once).
func (h *History) Replace(oldID string, s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	id := s.ID()
	if id == oldID {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	changed := false
	if old, ok := h.sigs[oldID]; ok {
		h.deleteLocked(oldID, old.BugKey())
		changed = true
	}
	if h.insertLocked(s, id) {
		changed = true
	}
	if changed {
		h.commitLocked()
	}
	return changed
}

// Generalize installs a validated signature into the history (§III-D):
// it merges s into the first same-bug signature the policy lets it merge
// with — replacing that signature by the merge in one mutation, as
// Replace does, or changing nothing when the merge is that signature
// already (s is subsumed) — and adds s when no merge applies. It reports
// whether s became a new entry; false means s was merged, was already
// present, or is invalid.
//
// Generalize takes ownership of s, which must be canonical: it may store
// s itself, so the caller must neither modify s afterwards nor hand it
// to the history again. The stacks of s may be shared with other
// read-only signatures (the agent's trimmed signatures alias the
// repository's), since the history never writes to a signature it
// stores. The step runs under one hold of the lock, computes the bug key
// once, and hashes only the signature it stores.
func (h *History) Generalize(s *sig.Signature, p sig.MergePolicy) (added bool) {
	if err := s.Valid(); err != nil {
		return false
	}
	bug := s.BugKey()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, oldID := range h.byBug[bug] {
		old := h.sigs[oldID]
		merged, ok := p.Merge(old, s)
		if !ok {
			continue
		}
		if merged.Equal(old) {
			return false // subsumed: old already covers s
		}
		// A merge keeps old's top frames, so it has old's bug key.
		h.deleteLocked(oldID, bug)
		if id := merged.ID(); h.sigs[id] == nil {
			h.storeLocked(merged, id, bug)
		}
		h.commitLocked()
		return false
	}
	id := s.ID()
	if h.sigs[id] != nil {
		return false // identical signature already present
	}
	h.storeLocked(s, id, bug)
	h.commitLocked()
	return true
}

// Get returns the signature with the given ID, or nil.
func (h *History) Get(id string) *sig.Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sigs[id]
}

// All returns a snapshot of the signatures (clones, in unspecified order).
func (h *History) All() []*sig.Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*sig.Signature, 0, len(h.sigs))
	for _, s := range h.sigs {
		out = append(out, s.Clone())
	}
	return out
}

// Len returns the number of signatures.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sigs)
}

// Version increments on every mutation. It goes through Index() so
// pending mutations are reflected.
func (h *History) Version() uint64 {
	return h.Index().version
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

// SaveTo persists the history to an explicit path.
func (h *History) SaveTo(path string) error {
	h.mu.RLock()
	file := historyFile{
		Signatures: make([]json.RawMessage, 0, len(h.sigs)),
		Origins:    make([]string, 0, len(h.sigs)),
	}
	ids := make([]string, 0, len(h.sigs))
	for id := range h.sigs {
		ids = append(ids, id)
	}
	// Deterministic output order.
	sort.Strings(ids)
	var encodeErr error
	for _, id := range ids {
		s := h.sigs[id]
		data, err := sig.Encode(s)
		if err != nil {
			encodeErr = err
			break
		}
		file.Signatures = append(file.Signatures, data)
		file.Origins = append(file.Origins, s.Origin.String())
	}
	h.mu.RUnlock()
	if encodeErr != nil {
		return fmt.Errorf("dimmunix: save history: %w", encodeErr)
	}

	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".history-*")
	if err != nil {
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dimmunix: save history: %w", err)
	}
	return nil
}
