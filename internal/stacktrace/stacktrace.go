// Package stacktrace captures Go call stacks in the signature frame format
// and extracts goroutine identities.
//
// In the paper, Dimmunix interposes on JVM monitor operations and reads
// Java call stacks; class bytecode hashes are attached per frame. Go does
// not allow interposing on sync.Mutex (programs wrap dimmunix.Mutex
// explicitly instead), and Go binaries do not expose per-file content
// hashes at runtime, so code-unit hashes for native frames come from a
// Registry the embedding application fills (typically at build time, from
// source hashes). Unregistered units fall back to a stable hash of the
// unit name — version-insensitive, but still unique per unit, preserving
// signature matching within one build.
package stacktrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"communix/internal/sig"
)

// DefaultDepth is the default maximum number of frames captured per stack.
// The paper observes outer stacks of depth >10 in real applications; 32
// comfortably covers that while bounding capture cost.
const DefaultDepth = 32

// Registry maps code units (source files) to content hashes. It is safe
// for concurrent use, and computes fallback hashes lazily, caching them —
// mirroring the Communix agent, which hashes each class once when it is
// first loaded (§III-C3).
type Registry struct {
	mu     sync.RWMutex
	hashes map[string]string
	// version counts Register calls. Capture caches key resolved stacks
	// off it: a bumped version means previously resolved frames may carry
	// stale hashes and must be re-resolved.
	version atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hashes: make(map[string]string)}
}

// Register records the hash for a code unit, replacing any fallback.
func (r *Registry) Register(unit, hash string) {
	r.mu.Lock()
	r.hashes[unit] = hash
	r.mu.Unlock()
	r.version.Add(1)
}

// Version identifies the registry's mutation state; it changes on every
// Register. Lazily cached fallback hashes do not change it — they are
// deterministic, so caches built over either outcome agree.
func (r *Registry) Version() uint64 {
	return r.version.Load()
}

// HashFor returns the registered hash for unit, or a deterministic
// fallback derived from the unit name.
func (r *Registry) HashFor(unit string) string {
	r.mu.RLock()
	h, ok := r.hashes[unit]
	r.mu.RUnlock()
	if ok {
		return h
	}
	sum := sha256.Sum256([]byte("unit:" + unit))
	h = hex.EncodeToString(sum[:])
	r.mu.Lock()
	if cached, ok := r.hashes[unit]; ok {
		h = cached
	} else {
		r.hashes[unit] = h
	}
	r.mu.Unlock()
	return h
}

// Capture records the calling goroutine's stack as a signature stack,
// skipping skip frames above the caller of Capture and keeping at most
// maxDepth frames. Frames from the Go runtime are elided. The returned
// stack is ordered outermost-first, top (innermost) last, per sig.Stack's
// convention. A nil registry leaves hashes empty.
func Capture(reg *Registry, skip, maxDepth int) sig.Stack {
	if maxDepth <= 0 {
		maxDepth = DefaultDepth
	}
	pcs := make([]uintptr, maxDepth+skip+2)
	// +2 skips runtime.Callers and Capture itself.
	n := runtime.Callers(skip+2, pcs)
	if n == 0 {
		return nil
	}
	return resolve(reg, pcs[:n], maxDepth)
}

// resolve expands raw program counters into a signature stack: frame
// symbolization, runtime-frame elision, hash attachment, and
// outermost-first ordering. It is the expensive half of Capture that
// Cache memoizes.
func resolve(reg *Registry, pcs []uintptr, maxDepth int) sig.Stack {
	n := len(pcs)
	frames := runtime.CallersFrames(pcs)
	// CallersFrames yields innermost-first; collect then reverse.
	tmp := make(sig.Stack, 0, n)
	for {
		fr, more := frames.Next()
		if fr.Function != "" && !strings.HasPrefix(fr.Function, "runtime.") {
			unit := fr.File
			f := sig.Frame{
				Class:  unit,
				Method: shortFuncName(fr.Function),
				Line:   fr.Line,
			}
			if reg != nil {
				f.Hash = reg.HashFor(unit)
			}
			tmp = append(tmp, f)
		}
		if !more || len(tmp) >= maxDepth {
			break
		}
	}
	out := make(sig.Stack, len(tmp))
	for i, f := range tmp {
		out[len(tmp)-1-i] = f
	}
	return out
}

// shortFuncName trims the package path from a fully qualified function
// name: "communix/internal/x.(*T).Lock" -> "(*T).Lock".
func shortFuncName(fn string) string {
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		return fn[i+1:]
	}
	return fn
}

var goroutinePrefix = []byte("goroutine ")

// GoroutineID returns the runtime id of the calling goroutine, parsed from
// the first line of its stack dump ("goroutine N [running]:"). Go offers
// no supported accessor for goroutine identity; the textual header is the
// conventional, stable workaround. It is not cheap: runtime.Stack walks
// and formats every frame of the goroutine's stack whatever the size of
// the buffer, so one call costs microseconds and grows with call depth
// (BenchmarkGoroutineID: about 5, 14 and 42 µs at depths 1, 16 and 64 on
// a 2-core x86-64 VM).
func GoroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	if !bytes.HasPrefix(b, goroutinePrefix) {
		return 0
	}
	b = b[len(goroutinePrefix):]
	end := bytes.IndexByte(b, ' ')
	if end < 0 {
		return 0
	}
	id, err := strconv.ParseUint(string(b[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}
