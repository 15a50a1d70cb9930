// Package sig defines deadlock signatures: abstractions of the execution
// flows that led a program into deadlock, as produced by Dimmunix and
// exchanged by Communix (DSN'11, §II-A, §III).
//
// A signature records, for every thread involved in a deadlock, two call
// stacks: the outer stack (the call stack the thread had when it acquired
// the lock it still holds) and the inner stack (the call stack at the moment
// of the deadlock, i.e. where the thread blocks). The top frames of these
// stacks — the outer and inner lock statements — uniquely delimit the
// deadlock bug.
package sig

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Frame kinds. The zero value ("") is a lock statement — the only kind
// that existed before channel immunity, left implicit so every signature
// minted by older code keeps its byte-identical wire form and ID. Channel
// operations get explicit kinds so a channel site can never suffix-match
// a mutex signature (or vice versa), and so old decoders — whose
// signature codec rejects unknown JSON keys — reject rather than
// silently corrupt frames they do not understand.
const (
	KindLock       = ""
	KindChanSend   = "chan-send"
	KindChanRecv   = "chan-recv"
	KindChanSelect = "chan-select"
)

// KnownKind reports whether k is a frame kind this build understands.
func KnownKind(k string) bool {
	switch k {
	case KindLock, KindChanSend, KindChanRecv, KindChanSelect:
		return true
	}
	return false
}

// Frame is one call-stack frame. Class names the code unit that contains
// the frame (a Java class in the paper; a code unit of the bytecode model
// or a Go file in this implementation), Method the function within it, and
// Line the line of the statement. Hash is the hash of the code unit's
// bytes; Communix attaches it so that receivers can check that a signature
// matches their version of the application (§III-C). Kind distinguishes
// what blocks at the site: "" for a lock statement, or one of the chan-*
// kinds for channel operations.
type Frame struct {
	Class  string `json:"class"`
	Method string `json:"method"`
	Line   int    `json:"line"`
	Hash   string `json:"hash,omitempty"`
	Kind   string `json:"kind,omitempty"`
}

// Key returns the frame's site identity "class.method:line", with an
// "@kind" suffix for non-lock kinds. Two frames with equal keys denote
// the same program location and operation kind, regardless of the code
// version that produced them (the Hash field carries the version). Lock
// frames keep the historical key form so existing bug keys, adjacency
// sets, and server-side dedup state are unaffected.
func (f Frame) Key() string {
	n := len(f.Class) + len(f.Method) + decimalLen(f.Line) + 2
	if f.Kind != "" {
		n += len(f.Kind) + 1
	}
	b := f.AppendKey(make([]byte, 0, n))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendKey appends f.Key() to b.
func (f Frame) AppendKey(b []byte) []byte {
	b = append(b, f.Class...)
	b = append(b, '.')
	b = append(b, f.Method...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(f.Line), 10)
	if f.Kind != "" {
		b = append(b, '@')
		b = append(b, f.Kind...)
	}
	return b
}

// SameSite reports whether f and g denote the same program location and
// operation kind, ignoring code-unit hashes.
func (f Frame) SameSite(g Frame) bool {
	return f.Line == g.Line && f.Class == g.Class && f.Method == g.Method && f.Kind == g.Kind
}

// String renders the frame as "class.method:line[#hash-prefix]".
func (f Frame) String() string {
	if f.Hash == "" {
		return f.Key()
	}
	h := f.Hash
	if len(h) > 8 {
		h = h[:8]
	}
	return f.Key() + "#" + h
}

// Valid reports whether the frame is well formed: non-empty class and
// method, and a positive line number.
func (f Frame) Valid() error {
	switch {
	case f.Class == "":
		return fmt.Errorf("frame %q: empty class", f.Key())
	case f.Method == "":
		return fmt.Errorf("frame %q: empty method", f.Key())
	case f.Line <= 0:
		return fmt.Errorf("frame %q: non-positive line %d", f.Key(), f.Line)
	case !KnownKind(f.Kind):
		return fmt.Errorf("frame %q: unknown kind %q", f.Key(), f.Kind)
	}
	return nil
}

// compare orders frames lexicographically by (Class, Method, Line, Kind,
// Hash). Kind sorts before Hash so that canonical order is stable for
// kind-less (pre-channel) signatures.
func (f Frame) compare(g Frame) int {
	if c := strings.Compare(f.Class, g.Class); c != 0 {
		return c
	}
	if c := strings.Compare(f.Method, g.Method); c != 0 {
		return c
	}
	switch {
	case f.Line < g.Line:
		return -1
	case f.Line > g.Line:
		return 1
	}
	if c := strings.Compare(f.Kind, g.Kind); c != 0 {
		return c
	}
	return strings.Compare(f.Hash, g.Hash)
}
