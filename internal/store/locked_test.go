package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
)

// Locked is the reference signature database: every ADD and GET
// serializes behind one mutex, and every verdict is reached
// synchronously inside Add. It is kept as the semantic baseline: the
// differential tests check Store against it operation by operation. It is safe for concurrent use.
type Locked struct {
	maxPerDay int
	clock     func() time.Time

	mu      sync.RWMutex
	encoded []json.RawMessage // index i holds signature i+1, pre-encoded
	present map[string]struct{}
	users   map[ids.UserID]*lockedUser
}

// lockedUser is Locked's per-user validation state, kept apart from the
// Store's so the oracle checks adjacency its own way: on top-frame maps.
type lockedUser struct {
	tops []map[string]struct{}
	day  int64
	used int
}

// NewLocked builds a single-lock store.
func NewLocked(cfg Config) *Locked {
	cfg = cfg.withDefaults()
	return &Locked{
		maxPerDay: cfg.MaxPerDay,
		clock:     cfg.Clock,
		present:   make(map[string]struct{}),
		users:     make(map[ids.UserID]*lockedUser),
	}
}

// Add validates and stores a signature from the given user. It returns
// (true, nil) when stored, (false, nil) when an identical signature is
// already present (idempotent upload), and (false, err) when rejected.
func (st *Locked) Add(user ids.UserID, s *sig.Signature) (bool, error) {
	if err := s.Valid(); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	id := s.ID()
	tops := s.TopFrames()

	st.mu.Lock()
	defer st.mu.Unlock()

	if _, dup := st.present[id]; dup {
		return false, nil
	}

	u, ok := st.users[user]
	if !ok {
		u = &lockedUser{}
		st.users[user] = u
	}

	if today := st.clock().UTC().Unix() / 86400; u.day != today {
		u.day, u.used = today, 0
	}
	if u.used >= st.maxPerDay {
		return false, ErrRateLimited
	}
	for _, prev := range u.tops {
		common := 0
		for k := range tops {
			if _, ok := prev[k]; ok {
				common++
			}
		}
		if common != 0 && (common != len(tops) || common != len(prev)) {
			return false, ErrAdjacent
		}
	}

	data, err := sig.Encode(s)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	st.encoded = append(st.encoded, data)
	st.present[id] = struct{}{}
	u.tops = append(u.tops, tops)
	u.used++
	return true, nil
}

// Get returns the pre-encoded signatures from 1-based index from, plus
// the next index a client should request (database size + 1). from < 1 is
// treated as 1 (the paper's worst-case GET(0): send everything).
func (st *Locked) Get(from int) ([]json.RawMessage, int) {
	if from < 1 {
		from = 1
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	next := len(st.encoded) + 1
	if from > len(st.encoded) {
		return nil, next
	}
	out := make([]json.RawMessage, len(st.encoded)-(from-1))
	copy(out, st.encoded[from-1:])
	return out, next
}

// Len returns the number of stored signatures.
func (st *Locked) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.encoded)
}

// Users returns how many distinct users have contributed.
func (st *Locked) Users() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.users)
}
