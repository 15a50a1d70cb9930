package server

import (
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
)

// BenchmarkFollowerCatchUp times a fresh durable follower joining a
// durable primary that holds 20,000 signatures. One op is New on an
// empty directory until the follower holds every entry. Both sides run
// with FsyncOff, so the number is the replication path's CPU and
// syscall cost, not the disk's.
func BenchmarkFollowerCatchUp(b *testing.B) {
	const n = 20_000
	primary, err := New(Config{Key: testKey, DataDir: b.TempDir(), Fsync: store.FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	batch := make([]store.Upload, n)
	for i := range batch {
		// One signature per user keeps the adjacency check off the setup.
		batch[i] = store.Upload{User: ids.UserID(i + 1), Sig: sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)}
	}
	for i, res := range primary.Store().AddBatch(batch) {
		if !res.Added || res.Err != nil {
			b.Fatalf("seed %d: added=%v err=%v", i, res.Added, res.Err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- primary.Serve(l) }()
	b.Cleanup(func() {
		primary.Close()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
	})

	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(root, "follower")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		f, err := New(Config{Key: testKey, Follow: l.Addr().String(), DataDir: dir, Fsync: store.FsyncOff})
		if err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for f.Store().Len() < n {
			if time.Now().After(deadline) {
				b.Fatalf("follower stuck at %d of %d entries", f.Store().Len(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		f.Close()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
