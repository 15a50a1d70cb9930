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
	"strconv"
	"strings"
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
	// ID is the key the history stores Sig under (see History): its
	// ID, or a twin's ID plus a suffix, so no two signatures share one.
	// The index sorts refs by it, which is also the multi-shard lock
	// order. It is computed once, at insertion, never on the hot path.
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
//
// Each signature is stored under a key: its ID. sig.ID is not injective
// (a string holding its separator bytes can shift them), so a twin — a
// signature with the ID of a stored one but not Equal to it — is stored
// under the ID plus "#n", the smallest free n ≥ 1, and every ID hit is
// confirmed with Equal. Keys are unique and a stored signature keeps
// its key, so the index's sort by key (the multi-shard lock order)
// stays total and depends only on the order of mutations. Get, Remove
// and Replace take a key: given an ID, they act on the signature stored
// first under it (a later twin takes the plain ID only once it is free
// again).
type History struct {
	mu      sync.RWMutex
	sigs    map[string]*sig.Signature // by key
	byBug   map[string][]string       // bug key -> keys (generalization lookups)
	twins   map[string][]string       // ID -> keys of its stored twins
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
		twins: make(map[string][]string),
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
		h.adopt(s, s.ID())
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
	s = owned(s)
	_, added := h.adopt(s, s.ID())
	return added
}

// owned returns a normalized copy of s for the history to take over.
func owned(s *sig.Signature) *sig.Signature {
	s = s.Clone()
	s.Normalize()
	return s
}

// adopt stores s itself — valid, normalized, with ID id — unless an
// Equal signature is present: the history takes s over, and the caller
// must not modify it afterwards. It returns the instance the history
// holds (s when it was stored) and whether s was stored.
func (h *History) adopt(s *sig.Signature, id string) (held *sig.Signature, added bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	key, found := h.findLocked(s, id)
	if found {
		return h.sigs[key], false
	}
	h.storeLocked(s, id, key, s.BugKey())
	h.commitLocked()
	return s, true
}

// findLocked returns the key of the stored signature Equal to s, whose
// ID is id, and true; or the key s would be stored under and false.
func (h *History) findLocked(s *sig.Signature, id string) (key string, found bool) {
	first, ok := h.sigs[id]
	twins := h.twins[id]
	if !ok && len(twins) == 0 {
		return id, false
	}
	if ok && first.Equal(s) {
		return id, true
	}
	for _, k := range twins {
		if h.sigs[k].Equal(s) {
			return k, true
		}
	}
	if !ok {
		return id, false
	}
	for n := 1; ; n++ {
		if k := id + "#" + strconv.Itoa(n); h.sigs[k] == nil {
			return k, false
		}
	}
}

// storeLocked stores s itself under key (from findLocked for id, s's
// ID) and bug, s's bug key. It does not bump the version: a caller
// folding several changes into one mutation commits once.
func (h *History) storeLocked(s *sig.Signature, id, key, bug string) {
	h.sigs[key] = s
	h.byBug[bug] = append(h.byBug[bug], key)
	if key != id {
		h.twins[id] = append(h.twins[id], key)
	}
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

// deleteLocked removes the signature stored under key, whose bug key is
// bug, from the signature map, the bug index and its ID's twins.
func (h *History) deleteLocked(key, bug string) {
	delete(h.sigs, key)
	h.byBug[bug] = without(h.byBug[bug], key)
	if len(h.byBug[bug]) == 0 {
		delete(h.byBug, bug)
	}
	if id, _, ok := strings.Cut(key, "#"); ok {
		if h.twins[id] = without(h.twins[id], key); len(h.twins[id]) == 0 {
			delete(h.twins, id)
		}
	}
}

// without removes key from keys in place.
func without(keys []string, key string) []string {
	out := keys[:0]
	for _, k := range keys {
		if k != key {
			out = append(out, k)
		}
	}
	return out
}

// Remove deletes the signature stored under the given key, returning
// whether it was present. The false-positive mechanism (§III-C1) uses
// it when the user decides to drop a warned signature.
func (h *History) Remove(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sigs[key]
	if !ok {
		return false
	}
	h.deleteLocked(key, s.BugKey())
	h.commitLocked()
	return true
}

// Replace swaps an existing signature (by key) for a normalized copy of
// another in one step — how generalization installs a merged signature
// in place of the old one. If oldKey is absent the new signature is
// still added; if it holds the new signature already, nothing changes.
// It reports whether the history changed. The swap is one mutation —
// one version bump — so no index ever shows the history with neither
// signature or with both (pure removal and pure addition, the
// degenerate cases, also bump the version once).
func (h *History) Replace(oldKey string, s *sig.Signature) bool {
	if err := s.Valid(); err != nil {
		return false
	}
	s = owned(s)
	id := s.ID()
	h.mu.Lock()
	defer h.mu.Unlock()
	changed := false
	if old, ok := h.sigs[oldKey]; ok {
		if old.Equal(s) {
			return false
		}
		h.deleteLocked(oldKey, old.BugKey())
		changed = true
	}
	if key, found := h.findLocked(s, id); !found {
		h.storeLocked(s, id, key, s.BugKey())
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
	// Bug is Sig.BugKey().
	Bug string
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
// trusts each candidate's validity and bug key, which the agent derives
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

// generalizeLocked is one GeneralizeBatch step for s, whose bug key is
// bug. It tells a subsumed s by MergePolicy.Covers, building a merge
// only when one changes the history, and hashes only the signature it
// stores.
func (h *History) generalizeLocked(s *sig.Signature, bug string, p sig.MergePolicy) bool {
	for _, oldKey := range h.byBug[bug] {
		old := h.sigs[oldKey]
		ok, covered := p.Covers(old, s)
		if !ok {
			continue
		}
		if covered {
			return false // subsumed: old already covers s
		}
		merged, _ := p.Merge(old, s)
		// A merge keeps old's top frames, so it has old's bug key.
		h.deleteLocked(oldKey, bug)
		id := merged.ID()
		if key, found := h.findLocked(merged, id); !found {
			h.storeLocked(merged, id, key, bug)
		}
		h.commitLocked()
		return false
	}
	id := s.ID()
	key, found := h.findLocked(s, id)
	if found {
		return false // identical signature already present
	}
	h.storeLocked(s, id, key, bug)
	h.commitLocked()
	return true
}

// Get returns the signature stored under the given key, or nil. The
// history never modifies it; neither may the caller.
func (h *History) Get(key string) *sig.Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sigs[key]
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
