package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"communix/internal/ids"
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

// BenchmarkOpen measures recovery of a durable database of 2,048 and
// 16,384 records layer by layer, each per record: read (file reads,
// framing and checksums), prepare (decode, ID and top frames, spread
// over GOMAXPROCS goroutines) and fold (duplicate set, validation state
// and log, in log order). It drives the same steps as Open's replay, on
// a read-only persister; ns/op is the whole recovery.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{2048, 16384} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			st, err := Open(Config{DataDir: dir, Fsync: FsyncOff, MaxPerDay: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(4))
			ups := make([]Upload, n)
			for i := range ups {
				ups[i] = Upload{User: ids.UserID(i + 1), Sig: sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)}
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
					if i := st.fold(run[:bad], keys, 0); i < bad {
						return i, fmt.Errorf("duplicate record %s", keys[i].id)
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
}
