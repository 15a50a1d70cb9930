package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// BenchmarkAdd measures server-side validation + insertion (fresh user
// per add, so the rate limit never trips and adjacency state stays
// realistic).
func BenchmarkAdd(b *testing.B) {
	st := New(Config{MaxPerDay: 1 << 30})
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
		if ok, err := st.Add(ids.UserID(i+1), s); !ok || err != nil {
			b.Fatalf("add %d: %v %v", i, ok, err)
		}
	}
}

// BenchmarkAddSameUser measures the per-user adjacency scan as one user's
// accepted set grows (bounded by the rate limit in production).
func BenchmarkAddSameUser(b *testing.B) {
	for _, prior := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			st := New(Config{MaxPerDay: 1 << 30})
			r := rand.New(rand.NewSource(2))
			for i := 0; i < prior; i++ {
				if ok, err := st.Add(1, sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)); !ok || err != nil {
					b.Fatal(err)
				}
			}
			// Non-adjacent probe: every iteration walks the user's full
			// adjacency state and is then deduplicated.
			probe := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 1<<20, 6, 9)
			if ok, err := st.Add(1, probe); !ok || err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Add(1, probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGet measures the incremental and full fetch paths against a
// populated database — the Figure 2 hot path.
func BenchmarkGet(b *testing.B) {
	for _, dbSize := range []int{100, 1000, 10000} {
		st := New(Config{MaxPerDay: 1 << 30})
		r := rand.New(rand.NewSource(3))
		for i := 0; i < dbSize; i++ {
			if ok, err := st.Add(ids.UserID(i+1), sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)); !ok || err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("full/db=%d", dbSize), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sigs, _ := st.Get(0)
				if len(sigs) != dbSize {
					b.Fatal("bad size")
				}
			}
		})
		b.Run(fmt.Sprintf("incremental/db=%d", dbSize), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sigs, next := st.Get(dbSize + 1)
				if len(sigs) != 0 || next != dbSize+1 {
					b.Fatal("bad incremental")
				}
			}
		})
	}
}

// hexSig returns a signature of catchup's shape: two threads, depth-5
// stacks, every frame carrying a 64-hex-character code-unit hash, and
// top frames that no other salt shares.
func hexSig(r *rand.Rand, salt int) *sig.Signature {
	s := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt, 5, 5)
	for _, t := range s.Threads {
		for _, st := range []sig.Stack{t.Outer, t.Inner} {
			for i := range st {
				sum := sha256.Sum256([]byte(st[i].Class))
				st[i].Hash = hex.EncodeToString(sum[:])
			}
		}
	}
	s.Normalize()
	return s
}

// openFixtures are BenchmarkOpen's databases: sigtest.DistinctTops
// signatures of depth 6 to 9 with short hashes, and hexSig's.
var openFixtures = []struct {
	name string
	gen  func(r *rand.Rand, salt int) *sig.Signature
}{
	{"tops", func(r *rand.Rand, salt int) *sig.Signature {
		return sigtest.DistinctTops(r, sigtest.DefaultVocabulary, salt, 6, 9)
	}},
	{"hex5", hexSig},
}

// BenchmarkAdmit measures one-upload ADDs as the server makes them —
// upload bytes as sig.Encode writes them, each a new signature from a
// new user — split into AddBatch's three steps, each per upload: derive
// (the in-place parse, canonical bytes, top frames and duplicate key,
// outside any lock), admit (the duplicate, budget and adjacency checks
// and the recording, under walMu) and publish (the WAL append, with
// FsyncOff, and the log append). The store is replaced, untimed, every
// 4,096 uploads, so each one is new; ns/op is the three steps together.
func BenchmarkAdmit(b *testing.B) {
	for _, fx := range openFixtures {
		b.Run(fx.name, func(b *testing.B) {
			const pool = 4096
			r := rand.New(rand.NewSource(5))
			ups := make([][]byte, pool)
			for i := range ups {
				var err error
				if ups[i], err = sig.Encode(fx.gen(r, i)); err != nil {
					b.Fatal(err)
				}
			}
			var st *Store
			fresh := func() {
				if st != nil {
					st.Close()
				}
				var err error
				if st, err = Open(Config{DataDir: b.TempDir(), Fsync: FsyncOff, MaxPerDay: 1 << 30}); err != nil {
					b.Fatal(err)
				}
			}
			fresh()
			defer func() { st.Close() }()
			now := time.Now().Unix()
			var derive, admit, publish time.Duration
			b.ResetTimer()
			for i := range b.N {
				if i > 0 && i%pool == 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				t0 := time.Now()
				a, err := prepareUpload(Upload{User: ids.UserID(i + 1), Data: ups[i%pool]}, now)
				t1 := time.Now()
				st.walMu.Lock()
				res, e := st.admit(&a, st.log.Len()+1, nil)
				t2 := time.Now()
				if err == nil {
					err = st.publish([]walEntry{e})
				}
				st.walMu.Unlock()
				t3 := time.Now()
				if err != nil || !res.Added {
					b.Fatalf("upload %d: %+v, %v", i, res, err)
				}
				derive, admit, publish = derive+t1.Sub(t0), admit+t2.Sub(t1), publish+t3.Sub(t2)
			}
			per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
			b.ReportMetric(per(derive), "derive-ns/upload")
			b.ReportMetric(per(admit), "admit-ns/upload")
			b.ReportMetric(per(publish), "publish-ns/upload")
		})
	}
}

// BenchmarkOpen measures recovery of a durable database of 2,048 and
// 16,384 records of each fixture (openFixtures) layer by layer, each
// per record: read (file reads, framing and checksums), prepare (the
// in-place parse, canonical bytes, duplicate key and top frames, spread
// over GOMAXPROCS goroutines) and fold (duplicate set, validation state
// and log, in log order). It drives the same steps as Open's replay, on
// a read-only persister; ns/op is the whole recovery.
func BenchmarkOpen(b *testing.B) {
	for _, fx := range openFixtures {
		for _, n := range []int{2048, 16384} {
			benchmarkOpen(b, fx.name, fx.gen, n)
		}
	}
}

// benchmarkOpen is BenchmarkOpen over n records from gen.
func benchmarkOpen(b *testing.B, fixture string, gen func(r *rand.Rand, salt int) *sig.Signature, n int) {
	b.Run(fmt.Sprintf("%s/records=%d", fixture, n), func(b *testing.B) {
		dir := b.TempDir()
		st, err := Open(Config{DataDir: dir, Fsync: FsyncOff, MaxPerDay: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(4))
		ups := make([]Upload, n)
		for i := range ups {
			ups[i] = Upload{User: ids.UserID(i + 1), Sig: gen(r, i)}
		}
		for _, res := range st.AddBatch(ups) {
			if !res.Added {
				b.Fatalf("seed add: %+v", res)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		var total, prep, fold time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			st := New(Config{})
			start := time.Now()
			_, err := openPersister(persistConfig{dir: dir, readOnly: true}, func(run []walEntry) (int, error) {
				t := time.Now()
				keys, bad, err := prepare(run)
				prep += time.Since(t)
				t = time.Now()
				if i, orig := st.fold(run[:bad], keys, 0); i < bad {
					return i, fmt.Errorf("duplicate record: the signature of record %d", orig)
				}
				st.publish(run[:bad])
				fold += time.Since(t)
				return bad, err
			})
			total += time.Since(start)
			if err != nil || st.Len() != n {
				b.Fatalf("recovered %d of %d: %v", st.Len(), n, err)
			}
		}
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*n) }
		b.ReportMetric(per(total-prep-fold), "read-ns/record")
		b.ReportMetric(per(prep), "prepare-ns/record")
		b.ReportMetric(per(fold), "fold-ns/record")
	})
}
