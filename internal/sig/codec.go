package sig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"communix/internal/jsonscan"
)

// MaxEncodedSize is the largest encoded signature the decoders accept.
// The paper reports 1.7 KB per signature (§IV-A); a megabyte bound leaves
// ample room for deep stacks while preventing memory-exhaustion through
// crafted inputs.
const MaxEncodedSize = 1 << 20

// Encode serializes the signature to its canonical JSON wire form: the
// bytes json.Marshal writes for it, HTML escaping included.
//
// Signatures whose strings are ASCII are appended field by field into one
// buffer sized up front; any other falls back to json.Marshal.
func Encode(s *Signature) ([]byte, error) {
	if err := s.Valid(); err != nil {
		return nil, fmt.Errorf("encode signature: %w", err)
	}
	if data, ok := encodeCanonical(s); ok {
		return data, nil
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("encode signature: %w", err)
	}
	return data, nil
}

// encodeCanonical writes the valid signature s as json.Marshal does,
// into one buffer of the exact size. It reports false, and the caller marshals with
// encoding/json, when a string holds a byte outside ASCII (invalid UTF-8
// and U+2028/U+2029 need encoding/json's rewriting).
func encodeCanonical(s *Signature) ([]byte, bool) {
	n := len(`{"threads":[]}`) + len(s.Threads) - 1
	var flags uint8
	for _, t := range s.Threads {
		n += len(`{"outer":,"inner":}`) + stackJSONSize(t.Outer, &flags) + stackJSONSize(t.Inner, &flags)
		if flags&nonASCII != 0 {
			return nil, false
		}
	}
	escape := flags&escaped != 0
	b := make([]byte, 0, n)
	b = append(b, `{"threads":[`...)
	for i, t := range s.Threads {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"outer":`...)
		b = appendStackJSON(b, t.Outer, escape)
		b = append(b, `,"inner":`...)
		b = appendStackJSON(b, t.Inner, escape)
		b = append(b, '}')
	}
	return append(b, "]}"...), true
}

// Flags stackJSONSize and jsonStringSize raise.
const (
	escaped  = 1 << iota // some string needs escapes
	nonASCII             // some string holds a byte outside ASCII
)

// stackJSONSize is the encoded size of the non-empty stack s.
func stackJSONSize(s Stack, flags *uint8) int {
	n := len(`[]`) + len(s) - 1
	for _, f := range s {
		n += len(`{"class":,"method":,"line":}`) + jsonStringSize(f.Class, flags) +
			jsonStringSize(f.Method, flags) + decimalLen(f.Line)
		if f.Hash != "" {
			n += len(`,"hash":`) + jsonStringSize(f.Hash, flags)
		}
		if f.Kind != "" {
			n += len(`,"kind":`) + jsonStringSize(f.Kind, flags)
		}
		if *flags&nonASCII != 0 {
			return n // the caller falls back; the size no longer matters
		}
	}
	return n
}

// decimalLen is len(strconv.Itoa(n)).
func decimalLen(n int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(n), 10))
}

func appendStackJSON(b []byte, s Stack, escape bool) []byte {
	b = append(b, '[')
	for i, f := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"class":`...)
		b = appendJSONString(b, f.Class, escape)
		b = append(b, `,"method":`...)
		b = appendJSONString(b, f.Method, escape)
		b = append(b, `,"line":`...)
		b = strconv.AppendInt(b, int64(f.Line), 10)
		if f.Hash != "" {
			b = append(b, `,"hash":`...)
			b = appendJSONString(b, f.Hash, escape)
		}
		if f.Kind != "" {
			b = append(b, `,"kind":`...)
			b = appendJSONString(b, f.Kind, escape)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// jsonEscapes[c] is how encoding/json writes the ASCII byte c inside a
// string with HTML escaping on; "" means as itself.
var jsonEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range t {
		if c < 0x20 || c == '<' || c == '>' || c == '&' {
			t[c] = fmt.Sprintf(`\u%04x`, c)
		}
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	t['"'], t['\\'] = `\"`, `\\`
	return t
}()

// jsonExtra[c] is how many bytes escaping adds to c, or -1 for a byte
// outside ASCII.
var jsonExtra = func() (t [256]int8) {
	for c := range t {
		if c >= utf8.RuneSelf {
			t[c] = -1
		} else if esc := jsonEscapes[c]; esc != "" {
			t[c] = int8(len(esc) - 1)
		}
	}
	return t
}()

// jsonStringSize is the quoted, escaped size of s.
func jsonStringSize(s string, flags *uint8) int {
	n := len(s) + 2
	for i := 0; i < len(s); i++ {
		if e := jsonExtra[s[i]]; e > 0 {
			n += int(e)
			*flags |= escaped
		} else if e < 0 {
			*flags |= nonASCII
		}
	}
	return n
}

// appendJSONString appends the ASCII string s quoted as encoding/json
// does; escape false promises that s needs no escapes.
func appendJSONString(b []byte, s string, escape bool) []byte {
	b = append(b, '"')
	if escape {
		start := 0
		for i := 0; i < len(s); i++ {
			if esc := jsonEscapes[s[i]]; esc != "" {
				b = append(b, s[start:i]...)
				b = append(b, esc...)
				start = i + 1
			}
		}
		s = s[start:]
	}
	b = append(b, s...)
	return append(b, '"')
}

// Decode parses a signature from its JSON wire form, validates it, and
// normalizes it to canonical order. Unknown fields and anything but
// whitespace after the object are rejected.
//
// Input in the canonical subset (what Encode and the store write) takes a
// single-pass scanner; everything else falls back to the strict
// encoding/json decoder, so both paths accept, reject and decode exactly
// alike.
func Decode(data []byte) (*Signature, error) {
	s, _, err := decode(data, false)
	return s, err
}

// DecodeShared is Decode for a caller that keeps data, unmodified, for as
// long as the signature lives — the client repository, which retains
// every received signature's bytes anyway. A signature in the canonical
// subset then takes its strings from data itself instead of a copy.
func DecodeShared(data []byte) (*Signature, error) {
	s, _, err := decode(data, true)
	return s, err
}

// DecodeVerbatim is DecodeShared that also reports whether data is
// exact: byte for byte what Encode writes for the result. A caller
// holding exact bytes may keep them as the signature's encoding instead
// of re-encoding it — the server's ADD path does. Not-exact is always
// safe to report; the encoding/json fallback never reports exact.
func DecodeVerbatim(data []byte) (s *Signature, exact bool, err error) {
	return decode(data, true)
}

// DecodeInPlace decodes data as DecodeVerbatim does and lends the
// result to use, with DecodeVerbatim's exactness verdict; it returns
// DecodeVerbatim's error and calls use only when there is none. The
// signature is the decoder's pooled scratch: it, its threads and its
// stacks are valid only until use returns, and use must not modify
// them. Its strings are substrings of data. It suits a caller that keeps
// only what it derives from the signature — the store keeps the
// canonical bytes, top-frame keys and a duplicate key — and so needs no
// Signature of its own: input in the canonical subset allocates none,
// nor a frame array. Other input takes the encoding/json fallback, whose
// signature is allocated as Decode's is.
func DecodeInPlace(data []byte, use func(s *Signature, exact bool)) error {
	return decodeWith(data, true, true, use)
}

func decode(data []byte, shared bool) (s *Signature, exact bool, err error) {
	err = decodeWith(data, shared, false, func(t *Signature, e bool) { s, exact = t, e })
	return s, exact, err
}

// decodeWith is every whole-input decoder: the canonical parser, the
// encoding/json fallback for anything outside its subset, the MaxEncodedSize
// bound, Valid and normalization; it calls use with the result. lend
// leaves a canonical result in the pooled decoder's scratch, which is
// released once use returns; otherwise the result is use's to keep.
func decodeWith(data []byte, shared, lend bool, use func(*Signature, bool)) error {
	if len(data) > MaxEncodedSize {
		return fmt.Errorf("decode signature: %d bytes exceeds limit %d", len(data), MaxEncodedSize)
	}
	d := newDecoder(data, shared)
	defer d.release()
	s, exact := d.whole(lend)
	if s == nil { // exact is false too
		var err error
		if s, err = decodeStrict(data); err != nil {
			return fmt.Errorf("decode signature: %w", err)
		}
	}
	if err := s.Valid(); err != nil {
		return fmt.Errorf("decode signature: %w", err)
	}
	if !s.normalized() {
		// Encode writes the threads in canonical order.
		exact = false
		s.Normalize()
	}
	use(s, exact)
	return nil
}

// decodeStrict is the reference decoder: encoding/json with unknown
// fields disallowed, plus a check that only whitespace follows the value.
func decodeStrict(data []byte) (*Signature, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Signature
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	off := int(dec.InputOffset())
	if rest := bytes.TrimLeft(data[off:], " \t\r\n"); len(rest) != 0 {
		return nil, fmt.Errorf("invalid character %q after top-level value at offset %d", rest[0], len(data)-len(rest))
	}
	return &s, nil
}

// DecodePrefix decodes the signature at the start of data and returns
// it with the index just past its closing brace; the bytes after it are
// not looked at. It is DecodeShared for a signature whose extent is not
// known yet — the frame decoder's, which finds each page signature's
// end by decoding it — and applies DecodeShared's checks: the
// MaxEncodedSize bound, Valid, and normalization. It decodes only the
// canonical subset (parse), and reports nil for anything else, valid
// or not; such a value is for its consumer to decode.
//
// The result is DecodeShared(data[:end])'s, strings taken from data.
func DecodePrefix(data []byte) (s *Signature, end int) {
	if len(data) > MaxEncodedSize {
		// A signature past the bound cannot close inside it.
		data = data[:MaxEncodedSize]
	}
	d := newDecoder(data, true)
	defer d.release()
	if !d.parse() {
		return nil, 0
	}
	if s = d.signature(false); s.Valid() != nil {
		return nil, 0
	}
	if !s.normalized() {
		s.Normalize()
	}
	return s, d.pos
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// newDecoder takes a decoder from the pool, set to read data: data
// itself when shared, else a copy of it.
func newDecoder(data []byte, shared bool) *canonDecoder {
	d := decoders.Get().(*canonDecoder)
	if shared {
		d.src = unsafe.String(unsafe.SliceData(data), len(data))
	} else {
		d.src = string(data)
	}
	return d
}

// parse is the one parser of the wire form's canonical subset: exact
// lowercase keys, each at most once per object; strings of printable
// ASCII without escapes; line numbers as plain non-negative integers of
// at most 18 digits; no null. JSON whitespace may appear between tokens.
// It reads the object at the cursor, after optional whitespace, into
// d.frames and d.spans, leaving the cursor just past its closing brace,
// and reports false for anything outside the subset — never an error of
// its own: the caller falls back to decodeStrict, which produces the
// identical value for every input this accepts.
//
// d.inexact stays clear only if the object is what encodeCanonical
// writes for the result: no whitespace; keys in struct order, each
// present except an empty hash or kind, which must be omitted; no '<',
// '>' or '&', which Encode escapes. Thread order is left to the caller.
//
// Each frame is first matched against the exact layout Encode writes
// (exactFrame); only a frame laid out any other way takes the generic
// member loop. All strings of the frames are substrings of d.src.
func (d *canonDecoder) parse() bool {
	ok := d.object(func(key string) bool {
		if key != "threads" || d.hasThreads {
			return false
		}
		d.hasThreads = true
		return d.array(func() bool {
			d.threads++
			return d.thread(d.threads - 1)
		})
	})
	d.inexact = d.inexact || !d.hasThreads
	return ok
}

// whole is parse, then the check that only whitespace follows the
// object. It returns the signature (see signature) and its exactness,
// or nil for anything outside the subset.
func (d *canonDecoder) whole(lend bool) (*Signature, bool) {
	if !d.parse() {
		return nil, false
	}
	end := d.pos
	for d.pos < len(d.src) && isSpace(d.src[d.pos]) {
		d.pos++
	}
	if d.pos != len(d.src) {
		return nil, false
	}
	return d.signature(lend), !d.inexact && d.pos == end // Encode writes no whitespace
}

// decoders holds canonDecoders between decodes, so the frame scratch is
// allocated once per pooled decoder rather than once per decode.
var decoders = sync.Pool{New: func() any { return new(canonDecoder) }}

// maxPooledFrames bounds the scratch a pooled decoder keeps: a decode of
// more frames, or more threads, than this drops its scratch instead of
// pinning it.
const maxPooledFrames = 1 << 12

// canonDecoder is the canonical parser's cursor over the input.
type canonDecoder struct {
	src string
	pos int
	// threads counts the decoded threads; hasThreads records that the
	// "threads" member was there.
	threads    int
	hasThreads bool
	// frames holds every frame decoded so far, in input order; spans
	// says which thread's stack each run of them is.
	frames []Frame
	spans  []span
	// inexact is set on the first byte Encode would have written
	// differently.
	inexact bool
	// lent and specs are the signature and threads signature(true)
	// lends, kept between decodes.
	lent  Signature
	specs []ThreadSpec
}

// span places one decoded stack: frames[start:end] are the outer or
// inner stack of thread number thread.
type span struct {
	thread, start, end int
	inner              bool
}

// release clears d's references into the input and returns it to the
// pool.
func (d *canonDecoder) release() {
	clear(d.frames)
	clear(d.specs)
	frames, spans, specs := d.frames[:0], d.spans[:0], d.specs[:0]
	if cap(frames) > maxPooledFrames || cap(specs) > maxPooledFrames {
		frames, spans, specs = nil, nil, nil
	}
	*d = canonDecoder{frames: frames, spans: spans, specs: specs}
	decoders.Put(d)
}

// signature returns the parsed signature. Each stack is a slice of one
// frame array whose capacity ends with the stack, so an append to one
// stack never writes into the next. Unless lend, the signature, its
// threads and that array are allocated for the caller, who may keep
// them; with lend they are d's own scratch, valid until release.
func (d *canonDecoder) signature(lend bool) *Signature {
	var s *Signature
	frames := d.frames
	if lend {
		if cap(d.specs) < d.threads {
			d.specs = make([]ThreadSpec, d.threads)
		}
		d.specs = d.specs[:d.threads]
		clear(d.specs)
		d.lent = Signature{Threads: d.specs}
		s = &d.lent
	} else {
		frames = make([]Frame, len(d.frames))
		copy(frames, d.frames)
		s = &Signature{Threads: make([]ThreadSpec, d.threads)}
	}
	if !d.hasThreads {
		s.Threads = nil
	}
	for _, sp := range d.spans {
		st := Stack(frames[sp.start:sp.end:sp.end])
		if t := &s.Threads[sp.thread]; sp.inner {
			t.Inner = st
		} else {
			t.Outer = st
		}
	}
	return s
}

func (d *canonDecoder) skipSpace() {
	start := d.pos
	for d.pos < len(d.src) {
		if !isSpace(d.src[d.pos]) {
			break
		}
		d.pos++
	}
	if d.pos > start {
		d.inexact = true // Encode writes no whitespace
	}
}

// consume skips whitespace and then the byte c, reporting whether it was
// there.
func (d *canonDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.src) && d.src[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// object parses an object, calling member with each key once the colon
// after it has been consumed; member must consume the value.
func (d *canonDecoder) object(member func(key string) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array parses an array, calling elem to consume each element.
func (d *canonDecoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// str parses a string of printable ASCII without escapes. Runs of
// plain bytes are skipped a word at a time; every other byte takes the
// switch.
func (d *canonDecoder) str() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	start := d.pos
	for i := start; i < len(d.src); i++ {
		if i += jsonscan.Plain(d.src[i:]); i == len(d.src) {
			break
		}
		switch c := d.src[i]; {
		case c == '"':
			d.pos = i + 1
			return d.src[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		case c == '<' || c == '>' || c == '&':
			d.inexact = true // Encode escapes these
		}
	}
	return "", false
}

// maxCanonDigits keeps every canonical line number far inside int64.
const maxCanonDigits = 18

// line parses a non-negative integer. A leading zero, fraction or
// exponent is left unconsumed, so the caller's next token check fails.
func (d *canonDecoder) line() (int, bool) {
	d.skipSpace()
	n, start := 0, d.pos
	for d.pos < len(d.src) && d.src[d.pos] >= '0' && d.src[d.pos] <= '9' {
		n = n*10 + int(d.src[d.pos]-'0')
		d.pos++
		if n == 0 || d.pos-start > maxCanonDigits {
			break
		}
	}
	return n, d.pos > start && d.pos-start <= maxCanonDigits
}

func (d *canonDecoder) thread(i int) bool {
	var outer, inner bool
	ok := d.object(func(key string) bool {
		switch {
		case key == "outer" && !outer:
			outer = true
			d.inexact = d.inexact || inner
			return d.stack(i, false)
		case key == "inner" && !inner:
			inner = true
			return d.stack(i, true)
		}
		return false
	})
	d.inexact = d.inexact || !outer || !inner
	return ok
}

// stack decodes one stack of thread number thread into d.frames.
func (d *canonDecoder) stack(thread int, inner bool) bool {
	start := len(d.frames)
	ok := d.array(func() bool {
		d.frames = append(d.frames, Frame{})
		f := &d.frames[len(d.frames)-1]
		return d.exactFrame(f) || d.frame(f)
	})
	d.spans = append(d.spans, span{thread: thread, start: start, end: len(d.frames), inner: inner})
	return ok
}

// exactFrame decodes the frame at the cursor if its bytes are laid out
// exactly as appendStackJSON writes them: the keys in order, no
// whitespace, non-empty strings of plain bytes, a line without a
// leading zero, a hash and a kind only when non-empty. Otherwise it
// reports false with the cursor and the zero f untouched, and the caller
// runs frame, which decodes and judges any other layout.
func (d *canonDecoder) exactFrame(f *Frame) bool {
	var g Frame
	i := d.literal(d.pos, `{"class":`)
	g.Class, i = d.plain(i)
	i = d.literal(i, `,"method":`)
	g.Method, i = d.plain(i)
	i = d.literal(i, `,"line":`)
	g.Line, i = d.positive(i)
	if j := d.literal(i, `,"hash":`); j >= 0 {
		g.Hash, i = d.plain(j)
	}
	if j := d.literal(i, `,"kind":`); j >= 0 {
		g.Kind, i = d.plain(j)
	}
	if i = d.literal(i, `}`); i < 0 {
		return false
	}
	*f, d.pos = g, i
	return true
}

// literal returns the index just past lit if d.src holds it at i, else
// -1. Like plain and positive, it passes a negative i through, so a
// chain of them fails as a whole.
func (d *canonDecoder) literal(i int, lit string) int {
	if i < 0 || !strings.HasPrefix(d.src[i:], lit) {
		return -1
	}
	return i + len(lit)
}

// plain returns the non-empty string of plain bytes quoted at i and the
// index past its closing quote.
func (d *canonDecoder) plain(i int) (string, int) {
	if i < 0 || i >= len(d.src) || d.src[i] != '"' {
		return "", -1
	}
	start := i + 1
	end := start + jsonscan.Plain(d.src[start:])
	if end == start || end == len(d.src) || d.src[end] != '"' {
		return "", -1
	}
	return d.src[start:end], end + 1
}

// positive returns the integer of at most maxCanonDigits digits, without
// a leading zero, at i and the index past it.
func (d *canonDecoder) positive(i int) (int, int) {
	if i < 0 || i >= len(d.src) || d.src[i] < '1' || d.src[i] > '9' {
		return 0, -1
	}
	n, start := 0, i
	for ; i < len(d.src) && d.src[i]-'0' <= 9; i++ {
		n = n*10 + int(d.src[i]-'0')
	}
	if i-start > maxCanonDigits {
		return 0, -1
	}
	return n, i
}

func (d *canonDecoder) frame(f *Frame) bool {
	// The bits ascend in the order Encode writes the keys.
	const (
		hasClass = 1 << iota
		hasMethod
		hasLine
		hasHash
		hasKind
	)
	var seen int
	ok := d.object(func(key string) bool {
		var bit int
		var dst *string
		switch key {
		case "class":
			bit, dst = hasClass, &f.Class
		case "method":
			bit, dst = hasMethod, &f.Method
		case "hash":
			bit, dst = hasHash, &f.Hash
		case "kind":
			bit, dst = hasKind, &f.Kind
		case "line":
			bit = hasLine
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		d.inexact = d.inexact || seen > bit // a later key came first
		seen |= bit
		var ok bool
		if dst == nil {
			f.Line, ok = d.line()
		} else {
			*dst, ok = d.str()
			// Encode omits an empty hash or kind.
			d.inexact = d.inexact || *dst == "" && bit&(hasHash|hasKind) != 0
		}
		return ok
	})
	const required = hasClass | hasMethod | hasLine
	d.inexact = d.inexact || seen&required != required
	return ok
}

// EncodedSize returns the size in bytes of the signature's wire form.
func EncodedSize(s *Signature) int {
	data, err := Encode(s)
	if err != nil {
		return 0
	}
	return len(data)
}
