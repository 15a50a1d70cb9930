package wire

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"communix/internal/ids"
	"communix/internal/jsonscan"
	"communix/internal/sig"
)

// This file is the hand-written frame codec for Request and Response
// (with their Entry and EpochFence elements). It covers the canonical
// subset of the JSON encoding/json writes for them:
//
//   - no whitespace between tokens, keys exactly the field tags, each at
//     most once per object;
//   - integers plain: an optional minus sign on signed fields, then 0 or
//     up to 18 digits without a leading zero — no fraction, exponent or
//     -0;
//   - strings of printable ASCII other than '"', '\\', '<', '>' and '&'
//     (those need escapes);
//   - booleans true or false, no null outside raw values;
//   - raw values (Sig, Sigs, Entries[].Sig): to encode, any valid JSON in
//     the form json.Marshal's compactor leaves unchanged, checked by one
//     table-driven pass (skipValue); to decode, any bytes that rawEnd
//     delimits (see below).
//
// Inside the subset, encoding writes json.Marshal's bytes and decoding
// yields json.Unmarshal's value, except that decoded raw values alias the
// frame payload instead of being copied. Outside it, the codec declines
// (reports false) and the caller hands the whole frame to encoding/json,
// so accept/reject decisions and error text stay encoding/json's.
//
// Canonical page signatures are decoded where they are delimited;
// everything else is delimited and decoded by its consumer. Each Sigs
// element that opens with '{' is first handed to sig.DecodePrefix, which
// decodes a valid signature in sig's canonical subset and reports where
// it ends; the Response keeps that signature beside the raw value
// (Response.DecodedSigs). Every other raw value — a Sigs element
// DecodePrefix declines, Sig, Entries[].Sig — is only delimited
// (rawEnd), and the consumer that decodes it is its one validator (every
// raw value is a signature, and the signature decoder rejects anything
// that is not JSON). A payload json.Unmarshal rejects can therefore
// decode here, but only if one of its raw values is not valid JSON.

// Byte classes of the string scanner. The strPlain bytes are exactly
// jsonscan's plain bytes.
const (
	strPlain   = iota // printable ASCII with no special meaning
	strHigh           // a byte outside ASCII other than 0xE2
	strQuote          // '"' ends the string
	strEscape         // '\\' starts an escape
	strControl        // below 0x20: invalid inside a string
	strHTML           // '<', '>' or '&': json.Marshal escapes these
	strE2             // 0xE2: may start U+2028/U+2029, which json.Marshal escapes
)

var strClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c < 0x20:
			t[c] = strControl
		case c == '"':
			t[c] = strQuote
		case c == '\\':
			t[c] = strEscape
		case c == '<' || c == '>' || c == '&':
			t[c] = strHTML
		case c == 0xE2:
			t[c] = strE2
		case c >= utf8.RuneSelf:
			t[c] = strHigh
		}
	}
	return t
}()

// maxSkipDepth bounds the nesting skipValue follows; deeper values go to
// encoding/json.
const maxSkipDepth = 64

// skipValue checks the JSON value starting at b[i] and returns the index
// just past it, or -1 if it is not valid JSON (or nests deeper than
// maxSkipDepth). compact reports that json.Marshal would copy the value
// unchanged: no whitespace between tokens, no '<', '>' or '&', no
// U+2028/U+2029.
func skipValue(b []byte, i int) (end int, compact bool) {
	compact = true
	var objects uint64 // bit d: the container at depth d+1 is an object
	depth := 0
	for {
		// One value starts at b[i], after optional whitespace.
		i = skipSpace(b, i, &compact)
		if i >= len(b) {
			return -1, false
		}
		opened := false
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxSkipDepth {
				return -1, false
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if i = skipSpace(b, i+1, &compact); i < len(b) && b[i] == closer {
				i++ // empty container: a complete value
				break
			}
			if c == '{' {
				objects |= 1 << depth
				i = skipKey(b, i, &compact)
			} else {
				objects &^= 1 << depth
			}
			depth++
			opened = true
		case '"':
			i = skipString(b, i, &compact)
		case 't':
			i = skipLiteral(b, i, "true")
		case 'f':
			i = skipLiteral(b, i, "false")
		case 'n':
			i = skipLiteral(b, i, "null")
		default:
			i = skipNumber(b, i)
		}
		if i < 0 {
			return -1, false
		}
		if opened {
			continue
		}
		// A value ended at i: close containers until one takes another
		// element.
		for {
			if depth == 0 {
				return i, compact
			}
			if i = skipSpace(b, i, &compact); i >= len(b) {
				return -1, false
			}
			inObject := objects>>(depth-1)&1 != 0
			if b[i] == ',' {
				i++
				if inObject {
					i = skipKey(b, skipSpace(b, i, &compact), &compact)
				}
				break
			}
			if inObject && b[i] == '}' || !inObject && b[i] == ']' {
				i++
				depth--
				continue
			}
			return -1, false
		}
		if i < 0 {
			return -1, false
		}
	}
}

func skipSpace(b []byte, i int, compact *bool) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			*compact = false
		default:
			return i
		}
	}
	return i
}

// skipKey skips an object key and its colon, returning -1 if either is
// missing.
func skipKey(b []byte, i int, compact *bool) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	if i = skipString(b, i, compact); i < 0 {
		return -1
	}
	if i = skipSpace(b, i, compact); i >= len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// skipString skips the string whose opening quote is b[i]. Runs of
// strPlain bytes are skipped a word at a time; every other byte takes
// the switch.
func skipString(b []byte, i int, compact *bool) int {
	for i++; i < len(b); i++ {
		if i += jsonscan.Plain(b[i:]); i == len(b) {
			return -1
		}
		switch strClass[b[i]] {
		case strHigh:
		case strQuote:
			return i + 1
		case strEscape:
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		case strHTML:
			*compact = false
		case strE2:
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				*compact = false
			}
		default:
			return -1
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func skipLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipNumber skips a number as JSON's grammar defines it.
func skipNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		return skipDigits(b, i)
	}
	return i
}

// skipDigits skips one or more digits, returning -1 if there are none.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// plainString reports whether s is in the subset's string form.
func plainString(s string) bool {
	return jsonscan.Plain(s) == len(s)
}

// compactRaw reports whether json.Marshal writes the raw value v
// unchanged. A nil value is written as null.
func compactRaw(v json.RawMessage) bool {
	if v == nil {
		return true
	}
	end, compact := skipValue(v, 0)
	return end == len(v) && compact
}

// frameEncoder appends one frame's JSON object. ok turns false at the
// first value outside the canonical subset.
type frameEncoder struct {
	b     []byte
	ok    bool
	first bool // no member written yet in the innermost object
	// stored: every raw value is a store entry, which compactRaw always
	// passes, so raw copies it unchecked.
	stored bool
}

// newFrameEncoder starts a frame after dst's bytes, growing dst for a
// payload of about size bytes.
func newFrameEncoder(dst []byte, size int) frameEncoder {
	return frameEncoder{b: append(slices.Grow(dst, 4+size), 0, 0, 0, 0), ok: true}
}

func (e *frameEncoder) key(k string) {
	if e.first {
		e.first = false
	} else {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
}

func (e *frameEncoder) open() { e.b = append(e.b, '{'); e.first = true }

func (e *frameEncoder) close() { e.b = append(e.b, '}'); e.first = false }

func (e *frameEncoder) int(k string, v int64, omitEmpty bool) {
	if v != 0 || !omitEmpty {
		e.key(k)
		e.b = strconv.AppendInt(e.b, v, 10)
	}
}

func (e *frameEncoder) uint(k string, v uint64, omitEmpty bool) {
	if v != 0 || !omitEmpty {
		e.key(k)
		e.b = strconv.AppendUint(e.b, v, 10)
	}
}

func (e *frameEncoder) bool(k string, v bool) {
	if v {
		e.key(k)
		e.b = append(e.b, "true"...)
	}
}

func (e *frameEncoder) string(k, v string) {
	if v == "" || !e.ok {
		return
	}
	if !plainString(v) {
		e.ok = false
		return
	}
	e.key(k)
	e.b = append(e.b, '"')
	e.b = append(e.b, v...)
	e.b = append(e.b, '"')
}

// raw appends a raw value as json.Marshal writes a json.RawMessage.
func (e *frameEncoder) raw(v json.RawMessage) {
	if !e.ok {
		return
	}
	if !e.stored && !compactRaw(v) {
		e.ok = false
	} else if v == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, v...)
	}
}

func (e *frameEncoder) request(r *Request) {
	e.open()
	e.int("type", int64(r.Type), false)
	e.uint("id", r.ID, true)
	e.string("token", string(r.Token))
	if len(r.Sig) > 0 {
		e.key("sig")
		e.raw(r.Sig)
	}
	e.int("from", int64(r.From), true)
	e.int("version", int64(r.Version), true)
	e.uint("epoch", r.Epoch, true)
	e.string("node", r.Node)
	e.int("cursor", int64(r.Cursor), true)
	e.uint("last_epoch", r.LastEpoch, true)
	e.close()
}

func (e *frameEncoder) response(r *Response) {
	e.open()
	e.int("status", int64(r.Status), false)
	e.uint("id", r.ID, true)
	e.int("type", int64(r.Type), true)
	e.string("detail", r.Detail)
	if len(r.Sigs) > 0 {
		e.key("sigs")
		e.b = append(e.b, '[')
		for i, s := range r.Sigs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.raw(s)
		}
		e.b = append(e.b, ']')
	}
	e.int("next", int64(r.Next), true)
	e.bool("more", r.More)
	e.int("version", int64(r.Version), true)
	e.uint("epoch", r.Epoch, true)
	e.string("role", r.Role)
	e.string("primary", r.Primary)
	e.int("fence", int64(r.Fence), true)
	if len(r.Fences) > 0 {
		e.key("fences")
		e.b = append(e.b, '[')
		for i, f := range r.Fences {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.open()
			e.uint("e", f.E, false)
			e.int("n", int64(f.N), false)
			e.close()
		}
		e.b = append(e.b, ']')
	}
	if len(r.Entries) > 0 {
		e.key("entries")
		e.b = append(e.b, '[')
		for i, en := range r.Entries {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.open()
			e.uint("user", uint64(en.User), false)
			e.int("unix", en.Unix, false)
			e.key("sig")
			e.raw(en.Sig)
			e.close()
		}
		e.b = append(e.b, ']')
	}
	e.int("cursor", int64(r.Cursor), true)
	e.close()
}

// Envelope bytes beyond the variable-length values, rounded up: every
// key, separator and integer of the largest frame.
const (
	requestEnvelope  = 320
	responseEnvelope = 400
	elementEnvelope  = 80 // one Entry or EpochFence
)

// canonicalFrame encodes v into a frame — four header bytes left for the
// caller, then the JSON payload — when v is a Request or Response (value
// or non-nil pointer) inside the canonical subset.
func canonicalFrame(v any) ([]byte, bool) {
	switch m := v.(type) {
	case Request:
		return requestFrame(&m)
	case *Request:
		if m != nil {
			return requestFrame(m)
		}
	case Response:
		return responseFrame(nil, &m, false)
	case *Response:
		if m != nil {
			return responseFrame(nil, m, false)
		}
	}
	return nil, false
}

func requestFrame(r *Request) ([]byte, bool) {
	e := newFrameEncoder(nil, requestEnvelope+len(r.Token)+len(r.Sig)+len(r.Node))
	e.request(r)
	return e.b, e.ok
}

// responseFrame appends r's frame to dst; stored skips the raw-value
// checks (see frameEncoder).
func responseFrame(dst []byte, r *Response, stored bool) ([]byte, bool) {
	n := responseEnvelope + len(r.Detail) + len(r.Role) + len(r.Primary) +
		elementEnvelope*(len(r.Fences)+len(r.Entries))
	for _, s := range r.Sigs {
		n += len(s) + 1
	}
	for _, en := range r.Entries {
		n += len(en.Sig)
	}
	e := newFrameEncoder(dst, n)
	e.stored = stored
	e.response(r)
	return e.b, e.ok
}

// frameDecoder walks one payload in the canonical subset. Every method
// reports false, leaving the position unspecified, at the first byte
// outside it.
type frameDecoder struct {
	b []byte
	i int
}

func (d *frameDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object walks an object, calling member with each key once the colon
// after it is consumed; member consumes the value. bit maps a key to its
// field's bit, 0 for a key outside the struct; a key seen twice declines.
func (d *frameDecoder) object(bit func(key []byte) uint32, member func(bit uint32) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := d.str()
		if !ok || !d.consume(':') {
			return false
		}
		b := bit(key)
		if b == 0 || seen&b != 0 || !member(b) {
			return false
		}
		seen |= b
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array walks an array, calling elem to consume each element.
func (d *frameDecoder) array(elem func() bool) bool {
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

// str returns the bytes of a plain string, without quotes.
func (d *frameDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	i := d.i + jsonscan.Plain(d.b[d.i:])
	if i == len(d.b) || d.b[i] != '"' {
		return nil, false
	}
	s := d.b[d.i:i]
	d.i = i + 1
	return s, true
}

// maxPlainDigits keeps every plain integer inside int64 and uint64.
const maxPlainDigits = 18

// int parses a plain integer; signed allows a minus sign.
func (d *frameDecoder) int(signed bool) (int64, bool) {
	neg := signed && d.consume('-')
	start := d.i
	var n int64
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		n = n*10 + int64(d.b[d.i]-'0')
		d.i++
	}
	digits := d.i - start
	if digits == 0 || digits > maxPlainDigits || digits > 1 && d.b[start] == '0' || neg && n == 0 {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// goInt parses a plain integer that fits Go's int.
func (d *frameDecoder) goInt() (int, bool) {
	n, ok := d.int(true)
	return int(n), ok && int64(int(n)) == n
}

func (d *frameDecoder) uint() (uint64, bool) {
	n, ok := d.int(false)
	return uint64(n), ok
}

func (d *frameDecoder) bool() (bool, bool) {
	switch {
	case d.i+4 <= len(d.b) && string(d.b[d.i:d.i+4]) == "true":
		d.i += 4
		return true, true
	case d.i+5 <= len(d.b) && string(d.b[d.i:d.i+5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

func (d *frameDecoder) string() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

// raw returns the raw value at the cursor, aliasing the payload with its
// capacity cut at the value's end, so an append never writes into the
// bytes after it. The value is delimited, not validated (rawEnd).
func (d *frameDecoder) raw() (json.RawMessage, bool) {
	if d.i < len(d.b) && strings.IndexByte(" \t\n\r", d.b[d.i]) >= 0 {
		return nil, false // json.Unmarshal would drop the space
	}
	return d.rawTo(rawEnd(d.b, d.i))
}

// rawTo returns the raw value from the cursor to end, as raw does.
func (d *frameDecoder) rawTo(end int) (json.RawMessage, bool) {
	if end <= d.i {
		return nil, false
	}
	v := d.b[d.i:end:end]
	d.i = end
	return v, true
}

// pageSig returns the page signature at the cursor: the raw value, as
// raw returns it, and the signature decoded from it where it is a valid
// signature in sig's canonical subset, nil elsewhere. On valid JSON the
// end sig.DecodePrefix reports is the one rawEnd finds, so the raw value
// is the same either way.
func (d *frameDecoder) pageSig() (json.RawMessage, *sig.Signature, bool) {
	if d.i < len(d.b) && d.b[d.i] == '{' {
		if s, n := sig.DecodePrefix(d.b[d.i:]); s != nil {
			v, ok := d.rawTo(d.i + n)
			return v, s, ok
		}
	}
	v, ok := d.raw()
	return v, nil, ok
}

// rawEnd returns the index just past the value starting at b[i], or -1
// if b ends inside it. It tracks only strings, escapes and bracket
// depth, skipping runs of plain string bytes with jsonscan: a string or
// a container ends where its quote or its bracket at depth zero closes
// it, and any other value at the first ',', '}', ']' or whitespace. On
// valid JSON that is exactly where the value ends; on any other bytes
// the end it finds is unspecified, and the value is for its consumer to
// reject.
func rawEnd(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; ; i++ {
				if i += jsonscan.Plain(b[i:]); i >= len(b) {
					return -1
				}
				if b[i] == '"' {
					break
				}
				if b[i] == '\\' {
					// The escaped byte cannot close the string.
					if i++; i >= len(b) {
						return -1
					}
				}
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i // the envelope's bracket ends a scalar
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// Field bits of the frame decoder, one per key of each struct.
const (
	fType uint32 = 1 << iota
	fID
	fToken
	fSig
	fFrom
	fVersion
	fEpoch
	fNode
	fCursor
	fLastEpoch
	fStatus
	fDetail
	fSigs
	fNext
	fMore
	fRole
	fPrimary
	fFence
	fFences
	fEntries
	fUser
	fUnix
	fE
	fN
)

func requestBit(key []byte) uint32 {
	switch string(key) {
	case "type":
		return fType
	case "id":
		return fID
	case "token":
		return fToken
	case "sig":
		return fSig
	case "from":
		return fFrom
	case "version":
		return fVersion
	case "epoch":
		return fEpoch
	case "node":
		return fNode
	case "cursor":
		return fCursor
	case "last_epoch":
		return fLastEpoch
	}
	return 0
}

func responseBit(key []byte) uint32 {
	switch string(key) {
	case "status":
		return fStatus
	case "id":
		return fID
	case "type":
		return fType
	case "detail":
		return fDetail
	case "sigs":
		return fSigs
	case "next":
		return fNext
	case "more":
		return fMore
	case "version":
		return fVersion
	case "epoch":
		return fEpoch
	case "role":
		return fRole
	case "primary":
		return fPrimary
	case "fence":
		return fFence
	case "fences":
		return fFences
	case "entries":
		return fEntries
	case "cursor":
		return fCursor
	}
	return 0
}

func entryBit(key []byte) uint32 {
	switch string(key) {
	case "user":
		return fUser
	case "unix":
		return fUnix
	case "sig":
		return fSig
	}
	return 0
}

func fenceBit(key []byte) uint32 {
	switch string(key) {
	case "e":
		return fE
	case "n":
		return fN
	}
	return 0
}

// decodeRequest decodes a canonical payload into the zero Request r.
func decodeRequest(p []byte, r *Request) bool {
	d := frameDecoder{b: p}
	ok := d.object(requestBit, func(bit uint32) (ok bool) {
		var n int
		switch bit {
		case fType:
			n, ok = d.goInt()
			r.Type = MsgType(n)
		case fID:
			r.ID, ok = d.uint()
		case fToken:
			var s string
			s, ok = d.string()
			r.Token = ids.Token(s)
		case fSig:
			r.Sig, ok = d.raw()
		case fFrom:
			r.From, ok = d.goInt()
		case fVersion:
			r.Version, ok = d.goInt()
		case fEpoch:
			r.Epoch, ok = d.uint()
		case fNode:
			r.Node, ok = d.string()
		case fCursor:
			r.Cursor, ok = d.goInt()
		case fLastEpoch:
			r.LastEpoch, ok = d.uint()
		}
		return ok
	})
	return ok && d.i == len(p)
}

// decodeResponse decodes a canonical payload into the zero Response r.
func decodeResponse(p []byte, r *Response) bool {
	d := frameDecoder{b: p}
	ok := d.object(responseBit, func(bit uint32) (ok bool) {
		var n int
		switch bit {
		case fStatus:
			n, ok = d.goInt()
			r.Status = Status(n)
		case fID:
			r.ID, ok = d.uint()
		case fType:
			n, ok = d.goInt()
			r.Type = MsgType(n)
		case fDetail:
			r.Detail, ok = d.string()
		case fSigs:
			r.Sigs = []json.RawMessage{}
			ok = d.array(func() bool {
				raw, s, ok := d.pageSig()
				if s != nil && r.decoded == nil {
					r.decoded = make([]*sig.Signature, len(r.Sigs), cap(r.Sigs)+1)
				}
				r.Sigs = append(r.Sigs, raw)
				if r.decoded != nil {
					r.decoded = append(r.decoded, s)
				}
				return ok
			})
		case fNext:
			r.Next, ok = d.goInt()
		case fMore:
			r.More, ok = d.bool()
		case fVersion:
			r.Version, ok = d.goInt()
		case fEpoch:
			r.Epoch, ok = d.uint()
		case fRole:
			r.Role, ok = d.string()
		case fPrimary:
			r.Primary, ok = d.string()
		case fFence:
			r.Fence, ok = d.goInt()
		case fFences:
			r.Fences = []EpochFence{}
			ok = d.array(func() bool {
				var f EpochFence
				ok := d.object(fenceBit, func(bit uint32) (ok bool) {
					if bit == fE {
						f.E, ok = d.uint()
					} else {
						f.N, ok = d.goInt()
					}
					return ok
				})
				r.Fences = append(r.Fences, f)
				return ok
			})
		case fEntries:
			r.Entries = []Entry{}
			ok = d.array(func() bool {
				var en Entry
				ok := d.object(entryBit, func(bit uint32) (ok bool) {
					switch bit {
					case fUser:
						var u uint64
						u, ok = d.uint()
						en.User = ids.UserID(u)
					case fUnix:
						en.Unix, ok = d.int(true)
					case fSig:
						en.Sig, ok = d.raw()
					}
					return ok
				})
				r.Entries = append(r.Entries, en)
				return ok
			})
		case fCursor:
			r.Cursor, ok = d.goInt()
		}
		return ok
	})
	return ok && d.i == len(p)
}

// isZero reports whether r is the zero Request — the only target the
// decoder fills, because json.Unmarshal merges into what is there.
func (r *Request) isZero() bool {
	return r.Type == 0 && r.ID == 0 && r.Token == "" && r.Sig == nil && r.From == 0 &&
		r.Version == 0 && r.Epoch == 0 && r.Node == "" && r.Cursor == 0 &&
		r.LastEpoch == 0
}

// isZero reports whether r is the zero Response.
func (r *Response) isZero() bool {
	return r.Status == 0 && r.ID == 0 && r.Type == 0 && r.Detail == "" && r.Sigs == nil &&
		r.Next == 0 && !r.More && r.Version == 0 && r.Epoch == 0 && r.Role == "" &&
		r.Primary == "" && r.Fence == 0 && r.Fences == nil && r.Entries == nil &&
		r.Cursor == 0
}

// decodeCanonical decodes payload into v when v is a pointer to a zero
// Request or Response and payload is in the canonical subset. On false v
// is still zero, apart from a Response's decoded signatures, which are
// dropped whatever the outcome: they describe the Sigs of an earlier
// read.
func decodeCanonical(payload []byte, v any) bool {
	switch m := v.(type) {
	case *Request:
		if m == nil || !m.isZero() {
			return false
		}
		if !decodeRequest(payload, m) {
			*m = Request{}
			return false
		}
	case *Response:
		if m == nil {
			return false
		}
		m.decoded = nil
		if !m.isZero() {
			return false
		}
		if !decodeResponse(payload, m) {
			*m = Response{}
			return false
		}
	default:
		return false
	}
	return true
}
