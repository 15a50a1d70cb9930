package dimmunix

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// encoded returns s's canonical bytes, the identity the model keys by.
func encoded(t testing.TB, s *sig.Signature) string {
	t.Helper()
	data, err := sig.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// indexOrder renders the index's order: per top site, its refs'
// signatures (canonical bytes) and slots, in the order the index keeps
// them (the multi-shard lock order).
func indexOrder(t testing.TB, ix *AvoidIndex) string {
	t.Helper()
	var groups []string
	for top, refs := range ix.byTop {
		var b strings.Builder
		fmt.Fprintf(&b, "%v:", top)
		for _, r := range refs {
			fmt.Fprintf(&b, " %q/%d", encoded(t, r.Sig), r.Slot)
		}
		groups = append(groups, b.String())
	}
	sort.Strings(groups)
	return strings.Join(groups, "\n")
}

// TestHistorySaveLoadKeepsOrder: SaveTo writes the signatures in
// insertion order, not by ID, so a reloaded history keeps the index
// order — the multi-shard lock order — of the one saved.
func TestHistorySaveLoadKeepsOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// A small vocabulary, so top sites are shared and the index has
	// groups of several refs to order.
	v := sigtest.Vocabulary{Classes: 3, Methods: 2, Lines: 3}
	h := NewHistory()
	var ids []string
	for h.Len() < 40 {
		s := sigtest.Signature(r, v, 1, 4)
		if h.Add(s) {
			ids = append(ids, s.ID())
		}
	}
	for _, id := range ids[:10] {
		if !h.Remove(id) {
			t.Fatalf("Remove(%s) found nothing", id)
		}
	}
	if slices.IsSorted(ids[10:]) {
		t.Fatal("insertion order is ID order: the test cannot tell the two apart")
	}
	path := filepath.Join(t.TempDir(), "history.json")
	if err := h.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	want := indexOrder(t, h.Index())
	if indexOrder(t, got.Index()) != want {
		t.Error("the reloaded history orders its index differently")
	}
	for i, s := range got.All() {
		if s.ID() != ids[10+i] {
			t.Fatalf("signature %d of the reloaded history is %s, want %s", i, s.ID(), ids[10+i])
		}
	}
}

// identityPool is what FuzzHistoryIdentity draws from: the ID twins
// sigtest.IDTwins and same-bug variants of them one caller deeper,
// local ones (which merge) and a remote one (which merges with nothing
// this shallow, but is Equal to its local variant). Every variant of a
// is a twin of b's variant with the same caller.
func identityPool() []*sig.Signature {
	a, b := sigtest.IDTwins()
	deeper := func(s *sig.Signature, caller string, origin sig.Origin) *sig.Signature {
		f := sig.Frame{Class: "F", Method: caller, Line: 9, Hash: "f"}
		threads := make([]sig.ThreadSpec, len(s.Threads))
		for i, t := range s.Threads {
			threads[i] = sig.ThreadSpec{
				Outer: append(sig.Stack{f}, t.Outer...),
				Inner: append(sig.Stack{f}, t.Inner...),
			}
		}
		v := sig.New(threads...)
		v.Origin = origin
		return v
	}
	pool := []*sig.Signature{a, b}
	for _, s := range []*sig.Signature{a, b} {
		pool = append(pool,
			deeper(s, "x", sig.OriginLocal),
			deeper(s, "y", sig.OriginLocal),
			deeper(s, "x", sig.OriginRemote))
	}
	return pool
}

// identityModel is the reference for FuzzHistoryIdentity: the stored
// signatures keyed by canonical bytes, in insertion order, and each ID's
// holder by the History's rule — by-ID calls name the signatures stored
// since the previous one, in insertion order, and each takes its ID
// unless a stored signature holds it.
type identityModel struct {
	t      testing.TB
	order  []*modelSig
	named  int
	holder map[string]*modelSig
}

type modelSig struct {
	key, id, bug string
	s            *sig.Signature
	removed      bool
}

func (m *identityModel) find(key string) *modelSig {
	for _, e := range m.order {
		if !e.removed && e.key == key {
			return e
		}
	}
	return nil
}

func (m *identityModel) add(s *sig.Signature) bool {
	key := encoded(m.t, s)
	if m.find(key) != nil {
		return false
	}
	m.order = append(m.order, &modelSig{key: key, id: s.ID(), bug: s.BugKey(), s: s})
	return true
}

func (m *identityModel) remove(e *modelSig) {
	e.removed = true
	if m.holder[e.id] == e {
		delete(m.holder, e.id)
	}
}

// lookup names the signatures stored since the last lookup and returns
// id's holder.
func (m *identityModel) lookup(id string) *modelSig {
	for _, e := range m.order[m.named:] {
		if !e.removed && m.holder[e.id] == nil {
			m.holder[e.id] = e
		}
	}
	m.named = len(m.order)
	return m.holder[id]
}

func (m *identityModel) replace(oldID string, s *sig.Signature) bool {
	changed := false
	if old := m.lookup(oldID); old != nil {
		if old.key == encoded(m.t, s) {
			return false
		}
		m.remove(old)
		changed = true
	}
	return m.add(s) || changed
}

// generalize is GeneralizeBatch's step: the first live same-bug
// signature (by BugKey) the policy merges s with takes the merge.
func (m *identityModel) generalize(s *sig.Signature, p sig.MergePolicy) bool {
	for _, old := range m.order {
		if old.removed || old.bug != s.BugKey() {
			continue
		}
		ok, covered := p.Covers(old.s, s)
		if !ok {
			continue
		}
		if !covered {
			merged, _ := p.Merge(old.s, s)
			m.remove(old)
			m.add(merged)
		}
		return false
	}
	return m.add(s)
}

// check compares h with the model: its length, its signatures in
// insertion order, and its index — one key per signature, refs ordered
// by key and slot, and keys in insertion order.
func (m *identityModel) check(h *History) {
	t := m.t
	t.Helper()
	var want []string
	pos := make(map[string]int)
	for _, e := range m.order {
		if !e.removed {
			pos[e.key] = len(want)
			want = append(want, e.key)
		}
	}
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, model holds %d", h.Len(), len(want))
	}
	var got []string
	for _, s := range h.All() {
		got = append(got, encoded(t, s))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("history holds\n%q\nmodel holds\n%q", got, want)
	}
	owner := make(map[uint64]*sig.Signature)
	for _, refs := range h.Index().byTop {
		for i, r := range refs {
			if o, ok := owner[r.Seq]; ok && o != r.Sig {
				t.Fatalf("two signatures share the key %d", r.Seq)
			}
			owner[r.Seq] = r.Sig
			if i == 0 {
				continue
			}
			p := refs[i-1]
			if p.Seq > r.Seq || p.Seq == r.Seq && p.Slot >= r.Slot {
				t.Fatalf("refs out of order: %d/%d before %d/%d", p.Seq, p.Slot, r.Seq, r.Slot)
			}
			if pos[encoded(t, p.Sig)] > pos[encoded(t, r.Sig)] {
				t.Fatal("the index's order is not insertion order")
			}
		}
	}
	if len(owner) != len(want) {
		t.Fatalf("%d index keys for %d signatures", len(owner), len(want))
	}
}

// FuzzHistoryIdentity drives Add, Remove, Replace, GeneralizeBatch and
// Get over ID twins and same-bug variants of them against identityModel,
// on two histories in lockstep: both must agree with the model after
// every step, and keep the same index order.
func FuzzHistoryIdentity(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 0, 1, 0, 4, 0, 0, 0})
	f.Add([]byte{3, 2, 3, 3, 3, 4, 1, 2, 2, 10, 4, 5})
	f.Add([]byte{0, 2, 0, 7, 3, 9, 2, 17, 1, 7, 0, 0, 4, 2})
	pool := identityPool()
	n := len(pool)
	var policy sig.MergePolicy
	f.Fuzz(func(t *testing.T, data []byte) {
		hs := []*History{NewHistory(), NewHistory()}
		m := &identityModel{t: t, holder: make(map[string]*modelSig)}
		for len(data) >= 2 {
			op, arg := data[0]%5, int(data[1])
			data = data[2:]
			s, o := pool[arg%n], pool[arg/n%n]
			var want any
			switch op {
			case 0:
				want = m.add(s.Clone())
			case 1:
				e := m.lookup(s.ID())
				if e != nil {
					m.remove(e)
				}
				want = e != nil
			case 2:
				want = m.replace(s.ID(), o.Clone())
			case 3:
				added := 0
				for _, c := range []*sig.Signature{s, o} {
					if m.generalize(c.Clone(), policy) {
						added++
					}
				}
				want = added
			case 4:
				want = ""
				if e := m.lookup(s.ID()); e != nil {
					want = e.key
				}
			}
			for _, h := range hs {
				var got any
				switch op {
				case 0:
					got = h.Add(s.Clone())
				case 1:
					got = h.Remove(s.ID())
				case 2:
					got = h.Replace(s.ID(), o.Clone())
				case 3:
					got = h.GeneralizeBatch([]Candidate{
						{Sig: s.Clone(), Bug: s.BugHash()},
						{Sig: o.Clone(), Bug: o.BugHash()},
					}, policy)
				case 4:
					got = ""
					if g := h.Get(s.ID()); g != nil {
						got = encoded(t, g)
					}
				}
				if got != want {
					t.Fatalf("op %d on %d/%d: history %v, model %v", op, arg%n, arg/n%n, got, want)
				}
				m.check(h)
			}
			if indexOrder(t, hs[0].Index()) != indexOrder(t, hs[1].Index()) {
				t.Fatal("one mutation sequence, two index orders")
			}
		}
		for _, s := range pool {
			want := ""
			if e := m.lookup(s.ID()); e != nil {
				want = e.key
			}
			for _, h := range hs {
				got := ""
				if g := h.Get(s.ID()); g != nil {
					got = encoded(t, g)
				}
				if got != want {
					t.Fatalf("Get(%s) = %q, model %q", s.ID(), got, want)
				}
			}
		}
	})
}
