package plugin

import (
	"errors"
	"sync"
	"testing"
	"time"

	"communix/internal/dimmunix"
	"communix/internal/sig"
)

// captureUploader records uploads; optionally fails or blocks.
type captureUploader struct {
	mu      sync.Mutex
	sigs    []*sig.Signature
	err     error
	block   chan struct{} // non-nil: uploads wait until closed
	entered chan struct{} // non-nil: told when an upload starts
}

func (u *captureUploader) Upload(s *sig.Signature) error {
	if u.entered != nil {
		u.entered <- struct{}{}
	}
	if u.block != nil {
		<-u.block
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sigs = append(u.sigs, s)
	return u.err
}

func (u *captureUploader) count() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.sigs)
}

// mapHasher is a Hasher over a fixed map.
type mapHasher map[string]string

func (m mapHasher) UnitHash(unit string) (string, bool) {
	h, ok := m[unit]
	return h, ok
}

func testSig() *sig.Signature {
	mk := func(tag string) sig.ThreadSpec {
		return sig.ThreadSpec{
			Outer: sig.Stack{
				{Class: "u/A", Method: tag + "o1", Line: 1},
				{Class: "u/B", Method: tag + "o2", Line: 2},
			},
			Inner: sig.Stack{
				{Class: "u/A", Method: tag + "i1", Line: 3},
				{Class: "u/B", Method: tag + "i2", Line: 4},
			},
		}
	}
	return sig.New(mk("t1"), mk("t2"))
}

func TestPluginUploadsNewSignatures(t *testing.T) {
	up := &captureUploader{}
	p, err := New(Config{Uploader: up})
	if err != nil {
		t.Fatal(err)
	}
	p.HandleDeadlock(dimmunix.Deadlock{Signature: testSig()})
	p.Close()
	if up.count() != 1 {
		t.Errorf("uploads = %d, want 1", up.count())
	}
}

func TestPluginSkipsKnownSignatures(t *testing.T) {
	up := &captureUploader{}
	p, err := New(Config{Uploader: up})
	if err != nil {
		t.Fatal(err)
	}
	p.HandleDeadlock(dimmunix.Deadlock{Signature: testSig(), Known: true})
	p.HandleDeadlock(dimmunix.Deadlock{Signature: nil})
	p.Close()
	if up.count() != 0 {
		t.Errorf("uploads = %d, want 0", up.count())
	}
}

func TestPluginStampsHashes(t *testing.T) {
	up := &captureUploader{}
	p, err := New(Config{
		Uploader: up,
		Hasher:   mapHasher{"u/A": "hashA", "u/B": "hashB"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.HandleDeadlock(dimmunix.Deadlock{Signature: testSig()})
	p.Close()
	if up.count() != 1 {
		t.Fatal("no upload")
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	for _, th := range up.sigs[0].Threads {
		for _, f := range append(th.Outer.Clone(), th.Inner...) {
			want := map[string]string{"u/A": "hashA", "u/B": "hashB"}[f.Class]
			if f.Hash != want {
				t.Errorf("frame %v: hash %q, want %q", f, f.Hash, want)
			}
		}
	}
}

// TestPluginQueuesWithoutCopying: HandleDeadlock runs on the thread that
// closed the cycle and only queues the detector's signature, which is
// the history's read-only instance: no copy, no allocation, no write.
// The worker uploads a stamped copy.
func TestPluginQueuesWithoutCopying(t *testing.T) {
	const runs = 100
	up := &captureUploader{block: make(chan struct{}), entered: make(chan struct{}, runs+2)}
	p, err := New(Config{
		Uploader:  up,
		Hasher:    mapHasher{"u/A": "hashA", "u/B": "hashB"},
		QueueSize: runs + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := testSig()
	want := s.Clone()
	d := dimmunix.Deadlock{Signature: s}
	// The worker takes the first signature and blocks in Upload, so it
	// allocates nothing while HandleDeadlock is measured.
	p.HandleDeadlock(d)
	<-up.entered
	// AllocsPerRun calls once more to warm up: runs+1 queued in all.
	allocs := testing.AllocsPerRun(runs, func() { p.HandleDeadlock(d) })
	close(up.block)
	p.Close()
	if allocs != 0 {
		t.Errorf("HandleDeadlock allocates %.1f times per call, want 0 (a queue push)", allocs)
	}
	if !s.Equal(want) {
		t.Errorf("HandleDeadlock modified the detector's signature: %v", s)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if len(up.sigs) != runs+2 {
		t.Fatalf("uploads = %d, want %d", len(up.sigs), runs+2)
	}
	for _, got := range up.sigs {
		if got == s {
			t.Fatal("the detector's instance was uploaded, not a copy")
		}
		for _, th := range got.Threads {
			for _, f := range append(th.Outer.Clone(), th.Inner...) {
				if want := map[string]string{"u/A": "hashA", "u/B": "hashB"}[f.Class]; f.Hash != want {
					t.Fatalf("uploaded frame %v: hash %q, want %q", f, f.Hash, want)
				}
			}
		}
	}
}

func TestPluginPreservesExistingHashes(t *testing.T) {
	up := &captureUploader{}
	p, err := New(Config{Uploader: up, Hasher: mapHasher{"u/A": "hashA"}})
	if err != nil {
		t.Fatal(err)
	}
	s := testSig()
	s.Threads[0].Outer[0].Hash = "already-set"
	s.Normalize()
	p.HandleDeadlock(dimmunix.Deadlock{Signature: s})
	p.Close()
	up.mu.Lock()
	defer up.mu.Unlock()
	found := false
	for _, th := range up.sigs[0].Threads {
		for _, f := range th.Outer {
			if f.Hash == "already-set" {
				found = true
			}
		}
	}
	if !found {
		t.Error("pre-existing hash was overwritten")
	}
}

func TestPluginReportsResults(t *testing.T) {
	up := &captureUploader{err: errors.New("server unreachable")}
	results := make(chan error, 1)
	p, err := New(Config{
		Uploader: up,
		OnResult: func(_ *sig.Signature, err error) { results <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.HandleDeadlock(dimmunix.Deadlock{Signature: testSig()})
	select {
	case err := <-results:
		if err == nil || err.Error() != "server unreachable" {
			t.Errorf("result = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result")
	}
	p.Close()
}

func TestPluginQueueOverflowDropsWithReport(t *testing.T) {
	up := &captureUploader{block: make(chan struct{})}
	var mu sync.Mutex
	var drops int
	p, err := New(Config{
		Uploader:  up,
		QueueSize: 1,
		OnResult: func(_ *sig.Signature, err error) {
			if errors.Is(err, ErrQueueFull) {
				mu.Lock()
				drops++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// First fills the worker, second fills the queue, third drops.
	// (The worker may or may not have picked up the first yet, so allow
	// one slack submission.)
	for i := 0; i < 4; i++ {
		p.HandleDeadlock(dimmunix.Deadlock{Signature: testSig()})
	}
	mu.Lock()
	d := drops
	mu.Unlock()
	if d == 0 {
		t.Error("expected at least one queue-full drop")
	}
	close(up.block)
	p.Close()
}

func TestPluginHandleAfterClose(t *testing.T) {
	up := &captureUploader{}
	results := make(chan error, 1)
	p, err := New(Config{
		Uploader: up,
		OnResult: func(_ *sig.Signature, err error) { results <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.HandleDeadlock(dimmunix.Deadlock{Signature: testSig()})
	select {
	case err := <-results:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("result = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result")
	}
	// Double close is safe.
	p.Close()
}

func TestNewRequiresUploader(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing uploader should fail")
	}
}
