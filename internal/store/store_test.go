package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// testClock is an adjustable clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1_700_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// distinctSig returns a signature with globally unique top frames.
func distinctSig(r *rand.Rand, salt int) *sig.Signature {
	return sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt, 6, 9)
}

func TestAddAndGetIncremental(t *testing.T) {
	st := New(Config{})
	r := rand.New(rand.NewSource(1))

	var added []*sig.Signature
	for i := 0; i < 5; i++ {
		s := distinctSig(r, i)
		ok, err := st.Add(ids.UserID(i+1), s)
		if err != nil || !ok {
			t.Fatalf("Add %d: ok=%v err=%v", i, ok, err)
		}
		added = append(added, s)
	}
	if st.Len() != 5 {
		t.Fatalf("Len = %d, want 5", st.Len())
	}

	// Full fetch.
	sigs, next := st.Get(1)
	if len(sigs) != 5 || next != 6 {
		t.Fatalf("Get(1) = %d sigs, next %d", len(sigs), next)
	}
	// Incremental fetch from the middle.
	sigs, next = st.Get(4)
	if len(sigs) != 2 || next != 6 {
		t.Fatalf("Get(4) = %d sigs, next %d", len(sigs), next)
	}
	got, err := sig.Decode(sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(added[3]) {
		t.Error("Get(4) should return the 4th accepted signature first")
	}
	// Nothing new.
	sigs, next = st.Get(6)
	if len(sigs) != 0 || next != 6 {
		t.Errorf("Get(6) = %d sigs, next %d; want 0, 6", len(sigs), next)
	}
	// GET(0) worst case behaves like Get(1).
	sigs, _ = st.Get(0)
	if len(sigs) != 5 {
		t.Errorf("Get(0) = %d sigs, want 5", len(sigs))
	}
}

func TestAddDeduplicatesAcrossUsers(t *testing.T) {
	st := New(Config{})
	r := rand.New(rand.NewSource(2))
	s := distinctSig(r, 0)
	if ok, err := st.Add(1, s); !ok || err != nil {
		t.Fatalf("first add: %v %v", ok, err)
	}
	ok, err := st.Add(2, s.Clone())
	if err != nil {
		t.Fatalf("duplicate add errored: %v", err)
	}
	if ok {
		t.Error("duplicate should not be re-added")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	st := New(Config{})
	if _, err := st.Add(1, &sig.Signature{}); err == nil {
		t.Error("invalid signature should be rejected")
	}
}

func TestRateLimitPerUserPerDay(t *testing.T) {
	clock := newTestClock()
	st := New(Config{MaxPerDay: 3, Clock: clock.Now})
	r := rand.New(rand.NewSource(3))

	for i := 0; i < 3; i++ {
		if ok, err := st.Add(1, distinctSig(r, i)); !ok || err != nil {
			t.Fatalf("add %d: %v %v", i, ok, err)
		}
	}
	if _, err := st.Add(1, distinctSig(r, 99)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("4th add = %v, want ErrRateLimited", err)
	}
	// Another user still has budget.
	if ok, err := st.Add(2, distinctSig(r, 100)); !ok || err != nil {
		t.Fatalf("other user: %v %v", ok, err)
	}
	// Next UTC day: budget resets.
	clock.Advance(25 * time.Hour)
	if ok, err := st.Add(1, distinctSig(r, 101)); !ok || err != nil {
		t.Fatalf("after day rollover: %v %v", ok, err)
	}
}

func TestDefaultRateLimitIsTen(t *testing.T) {
	st := New(Config{})
	r := rand.New(rand.NewSource(4))
	var rejected error
	for i := 0; i < DefaultMaxPerDay+1; i++ {
		_, err := st.Add(7, distinctSig(r, i))
		if err != nil {
			rejected = err
			break
		}
	}
	if !errors.Is(rejected, ErrRateLimited) {
		t.Errorf("11th signature error = %v, want ErrRateLimited", rejected)
	}
	if st.Len() != DefaultMaxPerDay {
		t.Errorf("Len = %d, want %d", st.Len(), DefaultMaxPerDay)
	}
}

func TestAdjacencyRejectedSameUser(t *testing.T) {
	st := New(Config{})
	r := rand.New(rand.NewSource(5))
	v := sigtest.DefaultVocabulary

	base := sigtest.Signature(r, v, 6, 9)
	if ok, err := st.Add(1, base); !ok || err != nil {
		t.Fatalf("base add: %v %v", ok, err)
	}

	// Adjacent: change one thread's outer top, keep the rest.
	adj := base.Clone()
	adj.Threads[0].Outer[adj.Threads[0].Outer.Depth()-1] = sig.Frame{
		Class: "com/app/Other", Method: "m", Line: 1, Hash: "h",
	}
	adj.Normalize()
	if _, err := st.Add(1, adj); !errors.Is(err, ErrAdjacent) {
		t.Fatalf("adjacent add = %v, want ErrAdjacent", err)
	}

	// The same adjacent signature from a different user is fine — the
	// paper's recovery path for wrongly rejected honest signatures.
	if ok, err := st.Add(2, adj); !ok || err != nil {
		t.Fatalf("adjacent from other user: %v %v", ok, err)
	}
}

func TestSameBugDifferentManifestationAccepted(t *testing.T) {
	// Identical top-frame sets are NOT adjacent (same bug): the user may
	// contribute additional manifestations for generalization.
	st := New(Config{})
	r := rand.New(rand.NewSource(6))
	v := sigtest.DefaultVocabulary
	base := sigtest.Signature(r, v, 6, 9)
	if ok, err := st.Add(1, base); !ok || err != nil {
		t.Fatalf("base: %v %v", ok, err)
	}
	manifest := sigtest.Manifestation(r, v, base, 3)
	if manifest.ID() == base.ID() {
		t.Skip("generator produced identical manifestation")
	}
	if ok, err := st.Add(1, manifest); !ok || err != nil {
		t.Fatalf("manifestation: %v %v", ok, err)
	}
}

func TestAttackerBoundWithoutAdjacency(t *testing.T) {
	// §III-C2's argument: with the adjacency restriction, a single user
	// cannot submit two signatures touching the same site set partially.
	// Build a flood of signatures over a small site pool — most must be
	// rejected as adjacent.
	st := New(Config{MaxPerDay: 1 << 30})
	r := rand.New(rand.NewSource(7))
	v := sigtest.Vocabulary{Classes: 4, Methods: 2, Lines: 5} // tiny site pool

	accepted := 0
	for i := 0; i < 200; i++ {
		s := sigtest.Signature(r, v, 6, 8)
		ok, err := st.Add(1, s)
		if err != nil && !errors.Is(err, ErrAdjacent) {
			t.Fatalf("unexpected error: %v", err)
		}
		if ok {
			accepted++
		}
	}
	// 4 classes × 2 methods × 5 lines = 40 sites; each signature consumes
	// 4 tops; disjointness caps acceptance at 10, equality adds little.
	if accepted > 20 {
		t.Errorf("accepted %d flood signatures; adjacency should bound this hard", accepted)
	}
}

func TestConcurrentAddsAndGets(t *testing.T) {
	st := New(Config{MaxPerDay: 1 << 30})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					_, _ = st.Add(ids.UserID(w+1), distinctSig(r, w*1000+i))
				} else {
					sigs, next := st.Get(1)
					if next != len(sigs)+1 {
						t.Errorf("inconsistent Get: %d sigs, next %d", len(sigs), next)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Users() == 0 {
		t.Error("no users recorded")
	}
}

func TestQuickGetInvariants(t *testing.T) {
	st := New(Config{MaxPerDay: 1 << 30})
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		_, _ = st.Add(ids.UserID(i%5+1), distinctSig(r, i))
	}
	n := st.Len()
	prop := func(fromRaw uint8) bool {
		from := int(fromRaw)
		sigs, next := st.Get(from)
		if next != n+1 {
			return false
		}
		eff := from
		if eff < 1 {
			eff = 1
		}
		want := n - (eff - 1)
		if want < 0 {
			want = 0
		}
		return len(sigs) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGetReturnsDecodableSignatures(t *testing.T) {
	st := New(Config{})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		if ok, err := st.Add(ids.UserID(i+1), distinctSig(r, i)); !ok || err != nil {
			t.Fatal(err)
		}
	}
	sigs, _ := st.Get(1)
	for i, raw := range sigs {
		if _, err := sig.Decode(raw); err != nil {
			t.Errorf("stored signature %d does not decode: %v", i, err)
		}
	}
}

func ExampleStore_Get() {
	st := New(Config{})
	r := rand.New(rand.NewSource(1))
	_, _ = st.Add(1, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 0, 6, 6))
	_, next := st.Get(1)
	fmt.Println(next)
	// Output: 2
}

// TestPartialOverlapMatchesAdjacent: the merge over sorted top keys
// decides adjacency exactly as sig.Adjacent does over top-frame maps,
// including signatures with repeated top frames.
func TestPartialOverlapMatchesAdjacent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tiny := sigtest.Vocabulary{Classes: 2, Methods: 2, Lines: 2}
	adjacent := 0
	for i := 0; i < 5000; i++ {
		a := sigtest.SignatureN(r, tiny, 2+r.Intn(2), 1, 3)
		b := sigtest.SignatureN(r, tiny, 2+r.Intn(2), 1, 3)
		ka, kb := topKeys(a), topKeys(b)
		if len(ka) != len(a.TopFrames()) {
			t.Fatalf("topKeys(%v) = %q; TopFrames has %d", a, ka, len(a.TopFrames()))
		}
		want := sig.Adjacent(a, b)
		if got := partialOverlap(ka, kb); got != want {
			t.Fatalf("partialOverlap(%q, %q) = %v; sig.Adjacent %v", ka, kb, got, want)
		}
		if want {
			adjacent++
		}
	}
	if adjacent == 0 {
		t.Fatal("no adjacent pair generated")
	}
}

// TestAddBatchStoresUploadData: an upload carrying its encoding is
// stored and served as exactly those bytes; one without is encoded.
func TestAddBatchStoresUploadData(t *testing.T) {
	st := New(Config{})
	r := rand.New(rand.NewSource(2))
	a, b := distinctSig(r, 1), distinctSig(r, 2)
	data, err := sig.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	res := st.AddBatch([]Upload{{User: 1, Sig: a, Data: data}, {User: 2, Sig: b}})
	if !res[0].Added || !res[1].Added {
		t.Fatalf("AddBatch = %+v", res)
	}
	got, _ := st.Get(1)
	if &got[0][0] != &data[0] {
		t.Error("the store copied Upload.Data instead of keeping it")
	}
	if want, _ := sig.Encode(b); string(got[1]) != string(want) {
		t.Errorf("upload without Data stored %s, want %s", got[1], want)
	}
}
