package sig

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// MaxEncodedSize is the largest encoded signature the decoders accept.
// The paper reports 1.7 KB per signature (§IV-A); a megabyte bound leaves
// ample room for deep stacks while preventing memory-exhaustion through
// crafted inputs.
const MaxEncodedSize = 1 << 20

// Encode serializes the signature to its canonical JSON wire form.
func Encode(s *Signature) ([]byte, error) {
	if err := s.Valid(); err != nil {
		return nil, fmt.Errorf("encode signature: %w", err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("encode signature: %w", err)
	}
	return data, nil
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
	if len(data) > MaxEncodedSize {
		return nil, fmt.Errorf("decode signature: %d bytes exceeds limit %d", len(data), MaxEncodedSize)
	}
	s, ok := decodeCanonical(data)
	if !ok {
		var err error
		if s, err = decodeStrict(data); err != nil {
			return nil, fmt.Errorf("decode signature: %w", err)
		}
	}
	if err := s.Valid(); err != nil {
		return nil, fmt.Errorf("decode signature: %w", err)
	}
	s.Normalize()
	return s, nil
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

// decodeCanonical decodes the canonical subset of the wire form in one
// pass: exact lowercase keys, each at most once per object; strings of
// printable ASCII without escapes; line numbers as plain non-negative
// integers of at most 18 digits; no null. JSON whitespace may appear
// between tokens. It reports false for anything outside the subset —
// never an error of its own — and the caller falls back to decodeStrict,
// which produces the identical value for every input this accepts.
//
// All strings of the result are substrings of one copy of data, so a
// decode costs one string allocation plus one per stack.
func decodeCanonical(data []byte) (*Signature, bool) {
	d := canonDecoder{src: string(data), scratch: make([]Frame, 0, 32)}
	var s Signature
	var seen bool
	ok := d.object(func(key string) bool {
		if key != "threads" || seen {
			return false
		}
		seen = true
		s.Threads = make([]ThreadSpec, 0, 2)
		return d.array(func() bool {
			var t ThreadSpec
			if !d.thread(&t) {
				return false
			}
			s.Threads = append(s.Threads, t)
			return true
		})
	})
	d.skipSpace()
	if !ok || d.pos != len(d.src) {
		return nil, false
	}
	return &s, true
}

// canonDecoder is decodeCanonical's cursor over the input.
type canonDecoder struct {
	src     string
	pos     int
	scratch []Frame // frames of the stack being decoded, reused per stack
}

func (d *canonDecoder) skipSpace() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
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

// str parses a string of printable ASCII without escapes.
func (d *canonDecoder) str() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	start := d.pos
	for i := start; i < len(d.src); i++ {
		switch c := d.src[i]; {
		case c == '"':
			d.pos = i + 1
			return d.src[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
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

func (d *canonDecoder) thread(t *ThreadSpec) bool {
	var outer, inner bool
	return d.object(func(key string) bool {
		switch {
		case key == "outer" && !outer:
			outer = true
			return d.stack(&t.Outer)
		case key == "inner" && !inner:
			inner = true
			return d.stack(&t.Inner)
		}
		return false
	})
}

func (d *canonDecoder) stack(dst *Stack) bool {
	d.scratch = d.scratch[:0]
	ok := d.array(func() bool {
		var f Frame
		if !d.frame(&f) {
			return false
		}
		d.scratch = append(d.scratch, f)
		return true
	})
	if ok {
		*dst = append(make(Stack, 0, len(d.scratch)), d.scratch...)
	}
	return ok
}

func (d *canonDecoder) frame(f *Frame) bool {
	const (
		hasClass = 1 << iota
		hasMethod
		hasLine
		hasHash
		hasKind
	)
	var seen int
	return d.object(func(key string) bool {
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
		seen |= bit
		var ok bool
		if dst == nil {
			f.Line, ok = d.line()
		} else {
			*dst, ok = d.str()
		}
		return ok
	})
}

// EncodedSize returns the size in bytes of the signature's wire form.
func EncodedSize(s *Signature) int {
	data, err := Encode(s)
	if err != nil {
		return 0
	}
	return len(data)
}
