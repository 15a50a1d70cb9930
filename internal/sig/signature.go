package sig

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Origin records where a signature came from. Generalization treats local
// and remote signatures differently (§III-D): two local signatures may be
// merged freely, while merges involving a remote signature must leave outer
// stacks of depth ≥ MinRemoteOuterDepth.
type Origin int

const (
	// OriginLocal marks a signature produced by the local Dimmunix
	// detection module.
	OriginLocal Origin = iota + 1
	// OriginRemote marks a signature received through Communix.
	OriginRemote
)

// String returns "local", "remote", or "origin(n)" for unknown values.
func (o Origin) String() string {
	switch o {
	case OriginLocal:
		return "local"
	case OriginRemote:
		return "remote"
	}
	return fmt.Sprintf("origin(%d)", int(o))
}

// ThreadSpec is the per-thread component of a deadlock signature: the outer
// call stack (held when the thread acquired the lock it still holds) and
// the inner call stack (held at the moment of the deadlock, where the
// thread blocks). Dimmunix's avoidance matches only outer stacks; inner
// stacks localize the bug and are checked during validation (§III-C3).
type ThreadSpec struct {
	Outer Stack `json:"outer"`
	Inner Stack `json:"inner"`
}

// Valid reports whether both stacks are well formed.
func (t ThreadSpec) Valid() error {
	if err := t.Outer.Valid(); err != nil {
		return fmt.Errorf("outer: %w", err)
	}
	if err := t.Inner.Valid(); err != nil {
		return fmt.Errorf("inner: %w", err)
	}
	return nil
}

// clone returns a deep copy.
func (t ThreadSpec) clone() ThreadSpec {
	return ThreadSpec{Outer: t.Outer.Clone(), Inner: t.Inner.Clone()}
}

// compare orders thread specs by (outer, inner) stack order.
func (t ThreadSpec) compare(u ThreadSpec) int {
	if c := t.Outer.compare(u.Outer); c != 0 {
		return c
	}
	return t.Inner.compare(u.Inner)
}

// topKey is the pair of lock-statement sites that delimit this thread's
// part of the deadlock bug.
func (t ThreadSpec) topKey() string {
	return t.Outer.Top().Key() + "|" + t.Inner.Top().Key()
}

// Signature is a deadlock signature: one ThreadSpec per deadlocked thread
// (two for the common two-thread deadlock). Signatures are kept in
// canonical form: thread specs sorted, so that equality, bug identity, and
// hashing are independent of detection order.
type Signature struct {
	Threads []ThreadSpec `json:"threads"`
	// Origin is local metadata and is not transmitted with the signature.
	Origin Origin `json:"-"`
}

// New builds a canonical signature from thread specs, deep-copying them.
func New(threads ...ThreadSpec) *Signature {
	s := &Signature{Threads: make([]ThreadSpec, 0, len(threads))}
	for _, t := range threads {
		s.Threads = append(s.Threads, t.clone())
	}
	s.Normalize()
	return s
}

// Normalize sorts the thread specs into canonical order. All constructors
// and decoders normalize; code that mutates Threads directly must call it
// again.
func (s *Signature) Normalize() {
	slices.SortFunc(s.Threads, ThreadSpec.compare)
}

// normalized reports whether the thread specs are already in canonical
// order.
func (s *Signature) normalized() bool {
	for i := 1; i < len(s.Threads); i++ {
		if s.Threads[i-1].compare(s.Threads[i]) > 0 {
			return false
		}
	}
	return true
}

// Size returns the number of thread specs.
func (s *Signature) Size() int { return len(s.Threads) }

// Valid reports whether the signature is well formed: at least two thread
// specs (a deadlock involves at least two threads), each valid.
func (s *Signature) Valid() error {
	if len(s.Threads) < 2 {
		return fmt.Errorf("signature has %d thread(s), need at least 2", len(s.Threads))
	}
	for i, t := range s.Threads {
		if err := t.Valid(); err != nil {
			return fmt.Errorf("thread %d: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the signature.
func (s *Signature) Clone() *Signature {
	out := &Signature{Threads: make([]ThreadSpec, len(s.Threads)), Origin: s.Origin}
	for i, t := range s.Threads {
		out.Threads[i] = t.clone()
	}
	return out
}

// Equal reports whether the two signatures have identical thread specs
// (including hashes). Both sides are assumed canonical.
func (s *Signature) Equal(o *Signature) bool {
	if len(s.Threads) != len(o.Threads) {
		return false
	}
	for i := range s.Threads {
		if !s.Threads[i].Outer.Equal(o.Threads[i].Outer) ||
			!s.Threads[i].Inner.Equal(o.Threads[i].Inner) {
			return false
		}
	}
	return true
}

// BugKey identifies the deadlock bug the signature fingerprints: the
// ordered list of per-thread (outer top, inner top) lock statements. Two
// signatures with equal bug keys are manifestations of the same bug
// (§II-A: "a deadlock bug is uniquely delimited by the outer and inner
// lock statements") and are candidates for generalization (§III-D).
func (s *Signature) BugKey() string {
	keys := make([]string, len(s.Threads))
	for i, t := range s.Threads {
		keys[i] = t.topKey()
	}
	// Threads are canonically ordered by full stacks, which does not imply
	// top-frame order; sort the keys so that the bug key is stable across
	// manifestations with different lower frames.
	sort.Strings(keys)
	return strings.Join(keys, "||")
}

// BugHash is BugKey as a 64-bit hash, built without strings: a hash of
// the sorted per-thread (outer top, inner top) site pairs. Signatures
// with equal bug keys — manifestations of one bug, and every Equal
// pair — have equal bug hashes within a process, so the client history
// and the agent key same-bug lookups by it. A collision between two bugs
// only puts a signature of the other bug into a lookup's bucket, where
// alignment by top sites (Merge, Covers) and Equal refuse it.
func (s *Signature) BugHash() uint64 {
	var small [4]uint64
	pairs := small[:0]
	if len(s.Threads) > len(small) {
		pairs = make([]uint64, 0, len(s.Threads))
	}
	for i := range s.Threads {
		t := &s.Threads[i]
		pairs = append(pairs, mix64(siteHash(t.Outer.Top()), siteHash(t.Inner.Top())))
	}
	slices.Sort(pairs)
	h := uint64(len(pairs))
	for _, p := range pairs {
		h = mix64(h, p)
	}
	return h
}

// bugSeed seeds BugHash's string hashes; bug hashes never leave the
// process.
var bugSeed = maphash.MakeSeed()

// siteHash hashes the fields SameSite compares.
func siteHash(f Frame) uint64 {
	h := mix64(maphash.String(bugSeed, f.Class), maphash.String(bugSeed, f.Method))
	return mix64(mix64(h, uint64(f.Line)), maphash.String(bugSeed, f.Kind))
}

// mix64 folds b into a, order-sensitively.
func mix64(a, b uint64) uint64 {
	h := (bits.RotateLeft64(a, 31) ^ b) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// TopFrames returns the set of top-frame sites of the signature — every
// outer and inner lock statement. This is the set the server's adjacency
// check compares (§III-C2).
func (s *Signature) TopFrames() map[string]struct{} {
	tops := make(map[string]struct{}, 2*len(s.Threads))
	for _, t := range s.Threads {
		tops[t.Outer.Top().Key()] = struct{}{}
		tops[t.Inner.Top().Key()] = struct{}{}
	}
	return tops
}

// Adjacent reports whether s and o share some but not all top frames
// (§III-C2). The server rejects a signature adjacent to one already sent
// by the same user: honest users are unlikely to experience "adjacent"
// deadlocks, while an attacker could otherwise manufacture (N·Nd)⁴ fake
// signatures from N sync sites. Signatures with identical top-frame sets
// are not adjacent — they are manifestations of the same bug.
func Adjacent(s, o *Signature) bool {
	a, b := s.TopFrames(), o.TopFrames()
	common := 0
	for k := range a {
		if _, ok := b[k]; ok {
			common++
		}
	}
	if common == 0 {
		return false
	}
	return common != len(a) || common != len(b)
}

// MinOuterDepth returns the depth of the shallowest outer stack. Client-
// side validation rejects signatures whose outer stacks are shallower than
// MinRemoteOuterDepth (§III-C1): shallow outer stacks over-generalize and
// let an attacker serialize the application.
func (s *Signature) MinOuterDepth() int {
	min := 0
	for i, t := range s.Threads {
		if i == 0 || t.Outer.Depth() < min {
			min = t.Outer.Depth()
		}
	}
	return min
}

// MinRemoteOuterDepth is the minimum outer call-stack depth Communix
// accepts from remote signatures, and the floor below which generalization
// involving remote signatures will not merge (§III-C1: depth 5 incurs
// acceptable overhead; depth 1 is considerable).
const MinRemoteOuterDepth = 5

// ID returns a stable content hash of the signature (hex-encoded
// SHA-256): the name a user or an application gives a signature.
//
// The hashed bytes are, per thread, the outer stack, 0xFE, the inner
// stack, 0xFF; per frame "class\x00method\x00line\x00hash", then
// "\x02kind" if the kind is set, then 0x01. They are built in one pooled
// buffer and hashed once, so the returned string is ID's only
// allocation once the pool is warm.
//
// The ID is not injective: a string holding bytes 0x00–0x02 can shift
// the separators, so distinct signatures can share an ID (one frame
// whose method spells out the fields of a second frame hashes like the
// two frames). It is therefore not the server's duplicate key: the
// store compares canonical encodings, and the client history finds
// duplicates with Equal in the bug's bucket (BugHash); given an ID, it
// acts on the signature it stored first under it. A twin whose merged
// frame joins frames of two code units carries one unit's class with the
// other's hash, and fails the agent's hash check.
func (s *Signature) ID() string {
	n := 0
	for _, t := range s.Threads {
		n += stackIDSize(t.Outer) + stackIDSize(t.Inner) + 2
	}
	buf, _ := idBuffers.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	b := *buf
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = b[:0]
	for _, t := range s.Threads {
		b = appendStackID(b, t.Outer)
		b = append(b, 0xFE)
		b = appendStackID(b, t.Inner)
		b = append(b, 0xFF)
	}
	sum := sha256.Sum256(b)
	if cap(b) <= maxPooledID {
		*buf = b
		idBuffers.Put(buf)
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// idBuffers holds ID's hash-input buffers between calls.
var idBuffers sync.Pool

// maxPooledID bounds the buffer a call returns to idBuffers: the hash
// input of a signature larger than this is built in a buffer of its own.
const maxPooledID = 64 << 10

// stackIDSize bounds the bytes appendStackID appends for s.
func stackIDSize(s Stack) int {
	n := 0
	for _, f := range s {
		n += len(f.Class) + len(f.Method) + len(f.Hash) + len(f.Kind) + 25 // 20 line digits, 5 separators
	}
	return n
}

func appendStackID(b []byte, s Stack) []byte {
	for _, f := range s {
		b = append(b, f.Class...)
		b = append(b, 0)
		b = append(b, f.Method...)
		b = append(b, 0)
		b = strconv.AppendInt(b, int64(f.Line), 10)
		b = append(b, 0)
		b = append(b, f.Hash...)
		// The kind is hashed only when set so that every pre-channel
		// signature keeps the ID it had before the field existed —
		// server dedup state and client repositories must not churn
		// across the upgrade.
		if f.Kind != "" {
			b = append(b, 0x02)
			b = append(b, f.Kind...)
		}
		b = append(b, 0x01)
	}
	return b
}

// String renders the signature compactly for logs: the bug key plus stack
// depths.
func (s *Signature) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sig{%s", s.Origin)
	for i, t := range s.Threads {
		fmt.Fprintf(&b, " t%d:[out %s; in %s]", i, t.Outer, t.Inner)
	}
	b.WriteString("}")
	return b.String()
}
