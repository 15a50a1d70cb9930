package store

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
)

// queued returns how many uploads the open commit group holds.
func queued(st *Store) int {
	st.groupMu.Lock()
	defer st.groupMu.Unlock()
	if st.group == nil {
		return 0
	}
	n := 0
	for _, req := range st.group.reqs {
		n += len(req.ups)
	}
	return n
}

// groupCommit starts one single-upload AddBatch per signature while the
// test holds walMu, waits until all of them have joined the open commit
// group, runs during, then releases the lock. Uploader i is user
// base+i+1. It returns each upload's index.
func groupCommit(t *testing.T, st *Store, sigs []*sig.Signature, base int, during func()) []int {
	t.Helper()
	idx := make([]int, len(sigs))
	var wg sync.WaitGroup
	st.walMu.Lock()
	for i, s := range sigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := st.AddBatch([]Upload{{User: ids.UserID(base + i + 1), Sig: s}})[0]
			if !res.Added || res.Err != nil {
				t.Errorf("upload %d: added=%v err=%v", base+i, res.Added, res.Err)
			}
			idx[i] = res.Index
		}()
	}
	for queued(st) < len(sigs) {
		time.Sleep(time.Millisecond)
	}
	if during != nil {
		during()
	}
	st.walMu.Unlock()
	wg.Wait()
	return idx
}

// checkIndexes asserts that the uploads got exactly first..first+n-1 and
// that GET serves upload i at index idx[i].
func checkIndexes(t *testing.T, st *Store, sigs []*sig.Signature, idx []int, first int) {
	t.Helper()
	sorted := append([]int(nil), idx...)
	sort.Ints(sorted)
	for i, got := range sorted {
		if got != first+i {
			t.Fatalf("indexes %v: want exactly %d..%d", sorted, first, first+len(idx)-1)
		}
	}
	served := getAll(t, st)
	for i, s := range sigs {
		data, err := sig.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if served[idx[i]-1] != string(data) {
			t.Fatalf("GET index %d does not hold the upload that was given it", idx[i])
		}
	}
}

// reopenMatches closes st and asserts a reopen serves the same sequence.
func reopenMatches(t *testing.T, st *Store, cfg Config) {
	t.Helper()
	want := getAll(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := getAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("reopen serves %d records, GET served %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after reopen", i+1)
		}
	}
}

// TestGroupCommitSharesOneFsync: ADDs that queue behind a held commit
// lock are written as one group, so under FsyncAlways N concurrent
// uploads cost one fsync, not N, and still get the contiguous indexes
// GET and a reopen agree on.
func TestGroupCommitSharesOneFsync(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir, newTestClock())
	cfg.Fsync = FsyncAlways
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	const n = 24
	sigs := make([]*sig.Signature, n)
	for i := range sigs {
		sigs[i] = distinctSig(r, i)
	}
	before := st.PersistStats().Fsyncs
	idx := groupCommit(t, st, sigs, 0, nil)
	if d := st.PersistStats().Fsyncs - before; d != 1 {
		t.Errorf("%d concurrent ADDs issued %d fsyncs, want 1", n, d)
	}
	checkIndexes(t, st, sigs, idx, 1)
	reopenMatches(t, st, cfg)
}

// TestGroupCommitAcrossSeal: with tiny segments every group's append
// seals the active segment and starts a new one; indexes stay
// contiguous, each group costs the same fsyncs whatever its size, every
// group lands in its own segment, and a reopen serves what GET served.
func TestGroupCommitAcrossSeal(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir, newTestClock())
	cfg.Fsync = FsyncAlways
	cfg.segmentMaxBytes = 1
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(32))
	const rounds, n = 4, 32
	for round := 0; round < rounds; round++ {
		sigs := make([]*sig.Signature, n)
		for i := range sigs {
			sigs[i] = distinctSig(r, round*n+i)
		}
		before := st.PersistStats().Fsyncs
		idx := groupCommit(t, st, sigs, round*n, nil)
		// Seal 1 + new segment 2 (file and directory) + commit 1.
		if d := st.PersistStats().Fsyncs - before; d != 4 {
			t.Errorf("round %d: %d ADDs issued %d fsyncs, want 4", round, n, d)
		}
		checkIndexes(t, st, sigs, idx, round*n+1)
	}
	// Open's segment was still empty at the first seal and is gone.
	if ps := st.PersistStats(); ps.Segments != rounds {
		t.Fatalf("%d segments after %d groups, want %d", ps.Segments, rounds, rounds)
	}
	reopenMatches(t, st, cfg)
}

// TestClosedStoreRefusesMutations: after Close nothing is committed and
// nothing is written to the directory, whose lock is already released.
func TestClosedStoreRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir, newTestClock())
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(33))
	mustAdd(t, st, 1, distinctSig(r, 0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files := dirContents(t, dir)

	if ok, err := st.Add(2, distinctSig(r, 1)); ok || !errors.Is(err, ErrClosed) {
		t.Errorf("Add after Close = %v, %v; want false, ErrClosed", ok, err)
	}
	if res := st.AddBatch([]Upload{{User: 3, Sig: distinctSig(r, 2)}})[0]; res.Added || !errors.Is(res.Err, ErrClosed) {
		t.Errorf("AddBatch after Close = %+v; want ErrClosed", res)
	}
	data, err := sig.Encode(distinctSig(r, 3))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.ApplyReplicated(2, []Entry{{User: 4, Unix: 1, Data: data}}); n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("ApplyReplicated after Close = %d, %v; want 0, ErrClosed", n, err)
	}
	if err := st.ResetReplica(); !errors.Is(err, ErrClosed) {
		t.Errorf("ResetReplica after Close = %v, want ErrClosed", err)
	}
	if st.Len() != 1 {
		t.Errorf("Len after refused mutations = %d, want 1", st.Len())
	}
	if got := dirContents(t, dir); string(got) != string(files) {
		t.Errorf("closed store touched its directory:\nbefore %s\nafter  %s", files, got)
	}
}

// TestDuplicateWaitsForOriginal: a duplicate of an upload still queued
// for commit is not answered until that commit is published, and then
// carries its original's index, so a quorum gate holding its reply on
// that index holds it on the original's durability.
func TestDuplicateWaitsForOriginal(t *testing.T) {
	st, err := Open(persistCfg(t.TempDir(), newTestClock()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := distinctSig(rand.New(rand.NewSource(34)), 0)
	add := func(user ids.UserID) <-chan AddResult {
		done := make(chan AddResult, 1)
		go func() { done <- st.AddBatch([]Upload{{User: user, Sig: s}})[0] }()
		return done
	}

	st.walMu.Lock()
	orig := add(1)
	for queued(st) < 1 {
		time.Sleep(time.Millisecond)
	}
	dup := add(2)
	for queued(st) < 2 {
		select {
		case res := <-dup:
			st.walMu.Unlock()
			t.Fatalf("duplicate answered %+v while its original was uncommitted (Len %d)", res, st.Len())
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case res := <-dup:
		t.Errorf("duplicate answered %+v while walMu was held", res)
	case <-time.After(10 * time.Millisecond):
	}
	st.walMu.Unlock()

	o, d := <-orig, <-dup
	if !o.Added || o.Err != nil || o.Index != 1 {
		t.Fatalf("original = %+v, want added at index 1", o)
	}
	if d.Added || d.Err != nil || d.Index != o.Index {
		t.Fatalf("duplicate = %+v, want not added, no error, index %d", d, o.Index)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
}
