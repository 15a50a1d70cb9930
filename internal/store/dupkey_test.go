package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// wantIndex checks one upload's result: added at index, or a duplicate
// answered with index.
func wantIndex(t *testing.T, what string, res AddResult, added bool, index int) {
	t.Helper()
	if res.Err != nil || res.Added != added || res.Index != index {
		t.Fatalf("%s: %+v, want added %v at index %d", what, res, added, index)
	}
}

// TestDuplicateKeyEqualIDsBothStored: two distinct signatures whose IDs
// are equal (sigtest.IDTwins) are both stored, whichever comes first,
// and a true duplicate of each is answered with its own index — on the
// store that admitted them, after a restart, and on a follower.
func TestDuplicateKeyEqualIDsBothStored(t *testing.T) {
	a, b := sigtest.IDTwins()
	if a.Equal(b) || a.ID() != b.ID() {
		t.Fatal("the fixture is not a pair of distinct signatures with equal IDs")
	}
	dir := t.TempDir()
	clock := newTestClock()
	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	res := st.AddBatch([]Upload{{User: 1, Sig: a}, {User: 2, Sig: b}})
	wantIndex(t, "the twin", res[0], true, 1)
	wantIndex(t, "the signature with the twin's ID", res[1], true, 2)
	dups := func(st *Store, what string) {
		res := st.AddBatch([]Upload{{User: 3, Sig: b}, {User: 4, Sig: a}})
		wantIndex(t, what+": duplicate of the second", res[0], false, 2)
		wantIndex(t, what+": duplicate of the first", res[1], false, 1)
	}
	dups(st, "admitted")
	digest := st.StateDigest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 2 || st.StateDigest() != digest {
		t.Fatalf("reopened: %d entries, digest %s; want 2, %s", st.Len(), st.StateDigest(), digest)
	}
	dups(st, "reopened")

	entries, _, _ := st.EntryPage(1, 0, 0)
	follower := New(Config{Clock: clock.Now})
	if n, err := follower.ApplyReplicated(1, entries); n != 2 || err != nil {
		t.Fatalf("ApplyReplicated = %d, %v; want both entries", n, err)
	}
	dups(follower, "replicated")
}

// TestDuplicateKeyMatchesIDReference: over 5,000 seeded uploads with
// repeats — as signatures, as sig.Encode's bytes, re-spaced and with
// their threads out of order, one to four per batch, from fresh users
// so that only duplicates are turned away — the store answers exactly
// the uploads an ID-keyed duplicate set would call duplicates, with the
// index that set holds. Its log, replayed into a follower in pages,
// rebuilds the same state.
func TestDuplicateKeyMatchesIDReference(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	pool := make([]*sig.Signature, 1500)
	seen := make(map[string]bool, len(pool))
	for i := range pool {
		pool[i] = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 1, 4)
		if id := pool[i].ID(); seen[id] {
			t.Fatalf("signature %d repeats an ID; the reference needs none", i)
		} else {
			seen[id] = true
		}
	}
	upload := func(s *sig.Signature, user ids.UserID) Upload {
		switch r.Intn(4) {
		case 0:
			return Upload{User: user, Sig: s}
		case 1:
			data, err := sig.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			return Upload{User: user, Data: data}
		case 2:
			data, err := sig.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			return Upload{User: user, Data: bytes.ReplaceAll(data, []byte(`,"`), []byte(`, "`))}
		}
		swapped := &sig.Signature{Threads: []sig.ThreadSpec{s.Threads[1], s.Threads[0]}}
		data, err := sig.Encode(swapped)
		if err != nil {
			t.Fatal(err)
		}
		return Upload{User: user, Data: data}
	}

	st := New(Config{})
	ref := make(map[string]int) // ID -> index
	n, dups := 0, 0
	for n < 5000 {
		k := 1 + r.Intn(4)
		batch, picked := make([]Upload, k), make([]*sig.Signature, k)
		for j := range batch {
			picked[j] = pool[r.Intn(len(pool))]
			batch[j] = upload(picked[j], ids.UserID(n+j+1))
		}
		next := st.Len() + 1
		for j, res := range st.AddBatch(batch) {
			id := picked[j].ID()
			if orig, dup := ref[id]; dup {
				wantIndex(t, fmt.Sprintf("upload %d, a repeat", n+j), res, false, orig)
				dups++
				continue
			}
			wantIndex(t, fmt.Sprintf("upload %d, new", n+j), res, true, next)
			ref[id] = next
			next++
		}
		n += k
	}
	if dups < 1000 || len(ref) < 1000 {
		t.Fatalf("%d duplicates among %d uploads of %d signatures: too few of either", dups, n, len(ref))
	}

	entries, _, _ := st.EntryPage(1, 0, 0)
	follower := New(Config{})
	for from := 1; from <= len(entries); from += 97 {
		page := entries[from-1 : min(from+96, len(entries))]
		if _, err := follower.ApplyReplicated(from, page); err != nil {
			t.Fatal(err)
		}
	}
	if follower.StateDigest() != st.StateDigest() {
		t.Fatal("the follower rebuilt a different state from the log")
	}
}

// collideKeys makes every duplicate key equal for the rest of the test.
func collideKeys(t *testing.T) {
	orig := entryKey
	entryKey = func([]byte) uint64 { return 7 }
	t.Cleanup(func() { entryKey = orig })
}

// TestDuplicateKeyCollisionsKeptApart: with every key forced equal,
// distinct signatures are all stored — admitted alone, in one batch,
// recovered and replicated — and a true duplicate of any of them, in
// its batch or later, gets its own original's index. A replicated page
// that repeats an entry is refused whole and leaves no trace, however
// many colliding entries it marked before the repeat.
func TestDuplicateKeyCollisionsKeptApart(t *testing.T) {
	collideKeys(t)
	r := rand.New(rand.NewSource(45))
	sigs := make([]*sig.Signature, 6)
	for i := range sigs {
		sigs[i] = distinctSig(r, i)
	}
	dir := t.TempDir()
	clock := newTestClock()
	st, err := Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, st, 1, sigs[0])
	mustAdd(t, st, 2, sigs[1])
	res := st.AddBatch([]Upload{{User: 3, Sig: sigs[2]}, {User: 4, Sig: sigs[2]}, {User: 5, Sig: sigs[1]}, {User: 6, Sig: sigs[3]}})
	wantIndex(t, "new in a batch", res[0], true, 3)
	wantIndex(t, "its duplicate in the batch", res[1], false, 3)
	wantIndex(t, "a duplicate of an earlier commit", res[2], false, 2)
	wantIndex(t, "another new one", res[3], true, 4)
	dups := func(st *Store, what string) {
		t.Helper()
		for i := 3; i >= 0; i-- {
			data, err := sig.Encode(sigs[i])
			if err != nil {
				t.Fatal(err)
			}
			spaced := bytes.ReplaceAll(data, []byte(`,"`), []byte(`, "`))
			res := st.AddBatch([]Upload{{User: 10, Data: spaced}})
			wantIndex(t, fmt.Sprintf("%s: duplicate of signature %d", what, i), res[0], false, i+1)
		}
	}
	dups(st, "admitted")
	digest := st.StateDigest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(persistCfg(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 4 || st.StateDigest() != digest {
		t.Fatalf("reopened: %d entries; want 4 and the same digest", st.Len())
	}
	dups(st, "reopened")

	entries, _, _ := st.EntryPage(1, 0, 0)
	follower := New(Config{Clock: clock.Now})
	if _, err := follower.ApplyReplicated(1, entries[:2]); err != nil {
		t.Fatal(err)
	}
	before := follower.StateDigest()
	bad := append(append([]Entry{}, entries[2:]...), entries[2])
	if n, err := follower.ApplyReplicated(3, bad); n != 0 || err == nil {
		t.Fatalf("a page repeating an entry: applied %d, %v; want it refused", n, err)
	}
	if follower.StateDigest() != before {
		t.Fatal("the refused page left a trace")
	}
	if _, err := follower.ApplyReplicated(3, entries[2:]); err != nil {
		t.Fatal(err)
	}
	if follower.StateDigest() != digest {
		t.Fatal("the follower's state differs from the primary's")
	}
	dups(follower, "replicated")
	mustAdd(t, follower, 20, sigs[4])
	res = follower.AddBatch([]Upload{{User: 21, Sig: sigs[5]}, {User: 22, Sig: sigs[4]}})
	wantIndex(t, "new after the replicated ones", res[0], true, 6)
	wantIndex(t, "a duplicate of the last admitted", res[1], false, 5)
}
