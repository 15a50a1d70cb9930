package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// storeOps is a scripted operation mix that exercises every verdict:
// accepts, duplicates, adjacency rejections, rate limiting, day
// rollover, and invalid signatures.
func storeOps(r *rand.Rand, n int) []func(clock *testClock) (ids.UserID, *sig.Signature, bool) {
	v := sigtest.Vocabulary{Classes: 6, Methods: 3, Lines: 6} // small pool: collisions likely
	var ops []func(*testClock) (ids.UserID, *sig.Signature, bool)
	var prev *sig.Signature
	for i := 0; i < n; i++ {
		i := i
		switch i % 7 {
		case 3: // duplicate of an earlier signature
			s := prev
			ops = append(ops, func(*testClock) (ids.UserID, *sig.Signature, bool) {
				return ids.UserID(i%5 + 1), s.Clone(), false
			})
		case 5: // day rollover before the upload
			s := sigtest.Signature(r, v, 6, 8)
			prev = s
			ops = append(ops, func(c *testClock) (ids.UserID, *sig.Signature, bool) {
				c.Advance(25 * time.Hour)
				return ids.UserID(i%5 + 1), s, false
			})
		default:
			s := sigtest.Signature(r, v, 6, 8)
			prev = s
			ops = append(ops, func(*testClock) (ids.UserID, *sig.Signature, bool) {
				return ids.UserID(i%5 + 1), s, false
			})
		}
	}
	return ops
}

// TestStoreMatchesLockedReference runs the same operation sequence
// against the Locked reference and a Store, and demands identical
// observable behavior: per-op verdicts, final log contents and order,
// Len, and Users.
func TestStoreMatchesLockedReference(t *testing.T) {
	clockA, clockB := newTestClock(), newTestClock()
	ref := NewLocked(Config{MaxPerDay: 4, Clock: clockA.Now})
	st := New(Config{MaxPerDay: 4, Clock: clockB.Now})

	ops := storeOps(rand.New(rand.NewSource(7)), 160)
	for k, op := range ops {
		userA, sigA, _ := op(clockA)
		userB, sigB, _ := op(clockB)
		okA, errA := ref.Add(userA, sigA)
		okB, errB := st.Add(userB, sigB)
		if okA != okB || !errors.Is(errB, unwrapVerdict(errA)) {
			t.Fatalf("op %d diverged: locked=(%v,%v) store=(%v,%v)", k, okA, errA, okB, errB)
		}
	}

	if ref.Len() != st.Len() {
		t.Fatalf("Len: locked=%d store=%d", ref.Len(), st.Len())
	}
	if ref.Users() != st.Users() {
		t.Fatalf("Users: locked=%d store=%d", ref.Users(), st.Users())
	}
	for _, from := range []int{0, 1, 2, ref.Len() / 2, ref.Len(), ref.Len() + 1} {
		sigsA, nextA := ref.Get(from)
		sigsB, nextB := st.Get(from)
		if nextA != nextB || len(sigsA) != len(sigsB) {
			t.Fatalf("Get(%d): locked=(%d,%d) store=(%d,%d)", from, len(sigsA), nextA, len(sigsB), nextB)
		}
		for i := range sigsA {
			if !bytes.Equal(sigsA[i], sigsB[i]) {
				t.Fatalf("Get(%d) entry %d differs", from, i)
			}
		}
	}
}

// unwrapVerdict maps a reference error to the sentinel errors.Is target
// (nil stays nil).
func unwrapVerdict(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrRateLimited):
		return ErrRateLimited
	case errors.Is(err, ErrAdjacent):
		return ErrAdjacent
	default:
		return err
	}
}

// TestAddBatchMatchesIndividualAdds: the batched path returns the same
// positional verdicts an op-by-op Add sequence produces and publishes the
// accepted signatures in batch order.
func TestAddBatchMatchesIndividualAdds(t *testing.T) {
	clockA, clockB := newTestClock(), newTestClock()
	ref := NewLocked(Config{MaxPerDay: 3, Clock: clockA.Now})
	st := New(Config{MaxPerDay: 3, Clock: clockB.Now})

	r := rand.New(rand.NewSource(9))
	v := sigtest.Vocabulary{Classes: 5, Methods: 2, Lines: 5}
	var batch []Upload
	for i := 0; i < 40; i++ {
		batch = append(batch, Upload{User: ids.UserID(i%4 + 1), Sig: sigtest.Signature(r, v, 6, 8)})
	}
	batch = append(batch, batch[0]) // trailing duplicate

	results := st.AddBatch(batch)
	for i, up := range batch {
		okA, errA := ref.Add(up.User, up.Sig)
		if results[i].Added != okA || !errors.Is(results[i].Err, unwrapVerdict(errA)) {
			t.Fatalf("batch[%d]: got (%v,%v) want (%v,%v)", i, results[i].Added, results[i].Err, okA, errA)
		}
	}
	sigsA, _ := ref.Get(1)
	sigsB, _ := st.Get(1)
	if len(sigsA) != len(sigsB) {
		t.Fatalf("log lengths differ: %d vs %d", len(sigsA), len(sigsB))
	}
	for i := range sigsA {
		if !bytes.Equal(sigsA[i], sigsB[i]) {
			t.Fatalf("log entry %d differs", i)
		}
	}
}

// TestConcurrentAddGetSnapshots hammers the store with concurrent ADDs
// (single and batched) and GETs, checking every GET invariant: next is
// len+1, and a later snapshot extends an earlier one (the log is
// append-only; published entries never change). Run under -race this is
// also the memory-safety proof for the lock-free read path.
func TestConcurrentAddGetSnapshots(t *testing.T) {
	st := New(Config{MaxPerDay: 1 << 30})
	const writers, perWriter = 4, 120

	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers: check snapshot monotonicity while writes are in flight.
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev []json.RawMessage
			for {
				select {
				case <-stop:
					return
				default:
				}
				sigs, next := st.Get(1)
				if next != len(sigs)+1 {
					t.Errorf("Get: %d sigs but next=%d", len(sigs), next)
					return
				}
				if len(sigs) < len(prev) {
					t.Errorf("snapshot shrank: %d -> %d", len(prev), len(sigs))
					return
				}
				for i := range prev {
					if !bytes.Equal(prev[i], sigs[i]) {
						t.Errorf("published entry %d changed between snapshots", i)
						return
					}
				}
				prev = sigs
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i += 3 {
				if w%2 == 0 {
					var batch []Upload
					for j := 0; j < 3; j++ {
						batch = append(batch, Upload{
							User: ids.UserID(w + 1),
							Sig:  distinctSig(r, w*10_000+i+j),
						})
					}
					st.AddBatch(batch)
				} else {
					for j := 0; j < 3; j++ {
						_, _ = st.Add(ids.UserID(w+1), distinctSig(r, w*10_000+i+j))
					}
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if st.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", st.Len(), writers*perWriter)
	}
	if st.Users() != writers {
		t.Fatalf("Users = %d, want %d", st.Users(), writers)
	}
}

// TestAppendLogChunkBoundaries unit-tests the chunked log across chunk
// boundaries: batch atomicity, index assignment, and reads from every
// offset class.
func TestAppendLogChunkBoundaries(t *testing.T) {
	l := newAppendLog()
	entry := func(i int) Entry { return Entry{Data: json.RawMessage(fmt.Sprintf(`%d`, i))} }

	n := logChunkSize*2 + 37 // three chunks, last partial
	var batch []Entry
	for i := 0; i < n; i++ {
		batch = append(batch, entry(i))
	}
	if first := l.Append(batch[:5]); first != 1 {
		t.Fatalf("first batch index = %d, want 1", first)
	}
	if first := l.Append(batch[5:]); first != 6 {
		t.Fatalf("second batch index = %d, want 6", first)
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for _, from := range []int{0, 1, 2, logChunkSize, logChunkSize + 1, 2 * logChunkSize, n, n + 1} {
		got, next := l.ReadFrom(from)
		if next != n+1 {
			t.Fatalf("ReadFrom(%d) next = %d, want %d", from, next, n+1)
		}
		eff := from
		if eff < 1 {
			eff = 1
		}
		want := n - (eff - 1)
		if want < 0 {
			want = 0
		}
		if len(got) != want {
			t.Fatalf("ReadFrom(%d) = %d entries, want %d", from, len(got), want)
		}
		for i, e := range got {
			if !bytes.Equal(e, entry(eff-1+i).Data) {
				t.Fatalf("ReadFrom(%d) entry %d = %s", from, i, e)
			}
		}
	}
	// Empty batches do not disturb the log.
	if first := l.Append(nil); first != n+1 {
		t.Fatalf("empty append index = %d, want %d", first, n+1)
	}
	if l.Len() != n {
		t.Fatalf("Len after empty append = %d", l.Len())
	}
}
