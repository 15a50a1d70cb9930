package stacktrace

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"communix/internal/sig"
)

//go:noinline
func leafCapture(reg *Registry, depth int) (s interface{ Depth() int }) {
	return Capture(reg, 0, depth)
}

//go:noinline
func midCapture(reg *Registry, depth int) interface{ Depth() int } {
	return leafCapture(reg, depth)
}

func TestCaptureOrdersOutermostFirst(t *testing.T) {
	st := Capture(nil, 0, 16)
	if st.Depth() == 0 {
		t.Fatal("empty capture")
	}
	top := st[st.Depth()-1]
	if !strings.Contains(top.Method, "TestCaptureOrdersOutermostFirst") {
		t.Errorf("top frame = %v, want this test function", top)
	}
	if !strings.Contains(top.Class, "stacktrace_test.go") {
		t.Errorf("top frame class = %q, want test file", top.Class)
	}
}

func TestCaptureSeesCallChain(t *testing.T) {
	st := midCapture(nil, 16)
	s, ok := st.(interface{ String() string })
	if !ok {
		t.Fatal("unexpected capture type")
	}
	str := s.String()
	for _, fn := range []string{"leafCapture", "midCapture", "TestCaptureSeesCallChain"} {
		if !strings.Contains(str, fn) {
			t.Errorf("stack %q missing frame %s", str, fn)
		}
	}
}

func TestCaptureRespectsMaxDepth(t *testing.T) {
	st := Capture(nil, 0, 2)
	if st.Depth() > 2 {
		t.Errorf("depth = %d, want <= 2", st.Depth())
	}
}

func TestCaptureSkip(t *testing.T) {
	full := Capture(nil, 0, 16)
	skipped := Capture(nil, 1, 16)
	if skipped.Depth() >= full.Depth() {
		t.Errorf("skip=1 depth %d should be less than skip=0 depth %d", skipped.Depth(), full.Depth())
	}
	if strings.Contains(skipped.String(), "TestCaptureSkip") {
		t.Error("skip=1 should drop this test's frame")
	}
}

func TestCaptureAttachesRegistryHashes(t *testing.T) {
	reg := NewRegistry()
	st := Capture(reg, 0, 4)
	if st.Depth() == 0 {
		t.Fatal("empty capture")
	}
	top := st[st.Depth()-1]
	if top.Hash == "" {
		t.Error("expected fallback hash for unregistered unit")
	}
	reg2 := NewRegistry()
	reg2.Register(top.Class, "pinned-hash")
	st2 := Capture(reg2, 0, 4)
	if got := st2[st2.Depth()-1].Hash; got != "pinned-hash" {
		t.Errorf("hash = %q, want registered value", got)
	}
}

func TestRegistryFallbackIsStable(t *testing.T) {
	reg := NewRegistry()
	a := reg.HashFor("some/unit.go")
	b := reg.HashFor("some/unit.go")
	if a != b || a == "" {
		t.Errorf("fallback hash unstable: %q vs %q", a, b)
	}
	if reg.HashFor("other/unit.go") == a {
		t.Error("distinct units must hash differently")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.HashFor("unit-a")
				if i%2 == 0 {
					reg.Register("unit-b", "h")
				} else {
					reg.HashFor("unit-b")
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestGoroutineIDDistinctAndStable(t *testing.T) {
	main1 := GoroutineID()
	main2 := GoroutineID()
	if main1 == 0 {
		t.Fatal("GoroutineID returned 0")
	}
	if main1 != main2 {
		t.Errorf("GoroutineID unstable within one goroutine: %d vs %d", main1, main2)
	}

	ch := make(chan uint64)
	go func() { ch <- GoroutineID() }()
	other := <-ch
	if other == 0 || other == main1 {
		t.Errorf("other goroutine id = %d, want nonzero and != %d", other, main1)
	}
}

func TestGoroutineIDConcurrentUniqueness(t *testing.T) {
	const n = 32
	idsCh := make(chan uint64, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			idsCh <- GoroutineID()
		}()
	}
	close(start)
	wg.Wait()
	close(idsCh)
	seen := make(map[uint64]bool, n)
	for id := range idsCh {
		if seen[id] {
			t.Fatalf("duplicate goroutine id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Errorf("got %d unique ids, want %d", len(seen), n)
	}
}

func TestShortFuncName(t *testing.T) {
	cases := map[string]string{
		"communix/internal/x.(*T).Lock": "(*T).Lock",
		"main.main":                     "main",
		"f":                             "f",
		"a/b/c.d.e":                     "d.e",
	}
	for in, want := range cases {
		if got := shortFuncName(in); got != want {
			t.Errorf("shortFuncName(%q) = %q, want %q", in, got, want)
		}
	}
}

var idSink uint64

// BenchmarkGoroutineID measures GoroutineID on a goroutine whose call
// chain is depth frames deep. runtime.Stack walks and formats the whole
// stack whatever the size of the buffer it fills, so the cost grows
// with depth.
func BenchmarkGoroutineID(b *testing.B) {
	for _, depth := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				deepChain(depth-1, func() sig.Stack {
					for i := 0; i < b.N; i++ {
						idSink = GoroutineID()
					}
					return nil
				})
			}()
			<-done
		})
	}
}
