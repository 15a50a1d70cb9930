package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"communix/internal/ids"
	"communix/internal/sig"
)

// frameOf wraps a payload in its length prefix.
func frameOf(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// checkDecode holds ReadMessage to json.Unmarshal on one payload, for a
// zero Request and a zero Response target:
//   - where json.Unmarshal accepts, ReadMessage accepts with a DeepEqual
//     value, once the Response's decoded signatures, which
//     json.Unmarshal never sets, are held to checkDecodedSigs and
//     cleared;
//   - where json.Unmarshal rejects and ReadMessage accepts, some raw
//     value is not valid JSON, and the signature decoders every consumer
//     validates with reject it;
//   - where both reject, the error text is json.Unmarshal's.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	for _, pair := range [][2]any{{new(Request), new(Request)}, {new(Response), new(Response)}} {
		got, want := pair[0], pair[1]
		err := ReadMessage(bytes.NewReader(frameOf(payload)), got)
		if r, ok := got.(*Response); ok && err == nil {
			checkDecodedSigs(t, payload, r)
			r.decoded = nil
		}
		wantErr := json.Unmarshal(payload, want)
		switch {
		case wantErr == nil && err != nil:
			t.Fatalf("ReadMessage(%q) into %T: %v; json.Unmarshal accepts", payload, got, err)
		case wantErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("ReadMessage(%q) =\n%#v\njson.Unmarshal:\n%#v", payload, got, want)
		case err != nil && err.Error() != "wire: unmarshal: "+wantErr.Error():
			t.Fatalf("ReadMessage(%q) into %T: err %q; json.Unmarshal: %q", payload, got, err, wantErr)
		case wantErr != nil && err == nil:
			checkConsumersReject(t, payload, got, wantErr)
		}
	}
}

// checkDecodedSigs holds the signatures ReadMessage decoded on read
// into r to the delimit-then-decode path they replace: each decoded slot
// is sig.DecodeShared's value for its raw value, that raw value is the
// one rawEnd delimits in payload, and a slot is left nil only where
// sig.DecodePrefix declines the raw value.
func checkDecodedSigs(t *testing.T, payload []byte, r *Response) {
	t.Helper()
	if len(r.decoded) != 0 && len(r.decoded) != len(r.Sigs) {
		t.Fatalf("ReadMessage(%q) decoded %d signatures for %d raw values", payload, len(r.decoded), len(r.Sigs))
	}
	decoded := make([]*sig.Signature, len(r.Sigs))
	copy(decoded, r.DecodedSigs())
	// The same payload decoded in place, so raw values alias it.
	var direct Response
	if !decodeCanonical(payload, &direct) {
		if r.decoded != nil {
			t.Fatalf("ReadMessage(%q) decoded signatures through encoding/json", payload)
		}
		return
	}
	for i, raw := range r.Sigs {
		d := direct.Sigs[i]
		if !bytes.Equal(raw, d) {
			t.Fatalf("sigs[%d] of %q: ReadMessage %q, in place %q", i, payload, raw, d)
		}
		if s, _ := sig.DecodePrefix(raw); (s == nil) != (decoded[i] == nil) {
			t.Fatalf("sigs[%d] of %q: decoded on read %v; DecodePrefix %v", i, payload, decoded[i], s)
		}
		if decoded[i] == nil {
			continue
		}
		want, err := sig.DecodeShared(raw)
		if err != nil || !reflect.DeepEqual(decoded[i], want) {
			t.Fatalf("sigs[%d] of %q decoded on read as %v; DecodeShared %v, %v", i, payload, decoded[i], want, err)
		}
		off := int(uintptr(unsafe.Pointer(unsafe.SliceData(d))) - uintptr(unsafe.Pointer(unsafe.SliceData(payload))))
		if end := rawEnd(payload, off); end != off+len(d) {
			t.Fatalf("sigs[%d] of %q decoded on read up to %d; rawEnd delimits it at %d", i, payload, off+len(d), end)
		}
	}
}

// checkConsumersReject: ReadMessage decoded into v a payload that
// json.Unmarshal rejects with wantErr, so one of v's raw values must be
// invalid JSON that both consumer-side signature decoders refuse.
func checkConsumersReject(t *testing.T, payload []byte, v any, wantErr error) {
	t.Helper()
	var raws []json.RawMessage
	switch m := v.(type) {
	case *Request:
		raws = append(raws, m.Sig)
	case *Response:
		raws = append(raws, m.Sigs...)
		for _, en := range m.Entries {
			raws = append(raws, en.Sig)
		}
	}
	invalid := false
	for _, raw := range raws {
		if raw == nil || json.Valid(raw) {
			continue
		}
		invalid = true
		if _, err := sig.DecodeShared(raw); err == nil {
			t.Fatalf("DecodeShared accepted the invalid raw value %q of %q", raw, payload)
		}
		if _, _, err := sig.DecodeVerbatim(raw); err == nil {
			t.Fatalf("DecodeVerbatim accepted the invalid raw value %q of %q", raw, payload)
		}
	}
	if !invalid {
		t.Fatalf("ReadMessage(%q) into %T accepted with every raw value valid JSON; json.Unmarshal: %v", payload, v, wantErr)
	}
}

// checkEncode holds EncodeFrame to json.Marshal on one value: the same
// payload bytes or an error from both, and a frame decoder that, on the
// encoder's output, agrees with json.Unmarshal.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if f, ok := canonicalFrame(v); ok && (wantErr != nil || !bytes.Equal(f[4:], want)) {
		t.Fatalf("frame encoder wrote %q for %#v; json.Marshal: %q, %v", f[4:], v, want, wantErr)
	}
	frame, err := EncodeFrame(v)
	if wantErr != nil || len(want) > MaxFrameSize {
		if err == nil {
			t.Fatalf("EncodeFrame(%#v) succeeded; json.Marshal: %v (%d bytes)", v, wantErr, len(want))
		}
		return
	}
	if err != nil || !bytes.Equal(frame[4:], want) {
		t.Fatalf("EncodeFrame(%#v) = %q, %v; json.Marshal: %q", v, frame, err, want)
	}
	checkDecode(t, want)
}

// frameCorpus seeds FuzzFrameDifferential with payloads at the edges of
// the canonical subset.
func frameCorpus() []string {
	const sigJSON = `{"threads":[{"outer":[{"class":"C","method":"m","line":1,"hash":"h"}],"inner":[{"class":"C","method":"m","line":2}]}]}`
	escLT := `\` + `u003c` // how json.Marshal writes '<'
	out := []string{
		// Frames the program writes.
		`{"type":1,"token":"00ff","sig":` + sigJSON + `}`,
		`{"type":2,"id":7,"from":12}`,
		`{"type":9,"id":3,"epoch":4,"node":"127.0.0.1:19201","cursor":40,"last_epoch":3}`,
		`{"type":7,"id":2,"from":31,"epoch":1,"node":"127.0.0.1:19201"}`,
		`{"status":1,"id":1,"version":2,"epoch":3,"role":"follower","primary":"127.0.0.1:19200","fence":12,"fences":[{"e":1,"n":0},{"e":3,"n":12}]}`,
		`{"status":1,"type":6,"sigs":[` + sigJSON + `,` + sigJSON + `],"next":3}`,
		`{"status":1,"type":6,"next":4,"more":true}`,
		`{"status":1,"type":6,"entries":[{"user":5,"unix":1760000000,"sig":` + sigJSON + `}],"next":2}`,
		`{"status":4,"id":9,"detail":"ingestion queue full, retry"}`,
		`{"status":2,"epoch":3,"cursor":17}`,
		`{}`,
		// Frames peers from before SNAPSHOT's removal write: a raw SNAPSHOT
		// request and reply, a REPLICATE with the bootstrap bit, and a
		// REPLICATE reply demanding a reset. Their keys are unknown now.
		`{"type":11,"id":2,"from":1,"raw":true,"offset":4096,"snap_version":7}`,
		`{"type":7,"id":2,"from":31,"epoch":1,"bootstrap":true,"node":"127.0.0.1:19201"}`,
		`{"status":1,"id":4,"next":8193,"more":true,"data":"AAECAwQ=","snap_version":2}`,
		`{"status":1,"id":3,"epoch":3,"bootstrap":true,"detail":"cursor predates snapshot boundary; reset and re-replicate from 1"}`,
		// Case-folded, duplicate and unknown keys.
		`{"Status":1}`, `{"TYPE":2,"from":1}`, "{\"ſig\":1}", `{"status":1,"status":2}`,
		`{"type":1,"sig":{},"sig":[]}`, `{"status":1,"evil":true}`, `{"type":2,"Type":3}`,
		// null, empty and odd raw values.
		`{"status":1,"sigs":null}`, `{"status":1,"sigs":[null]}`, `{"status":1,"sigs":[]}`,
		`{"type":1,"sig":null}`, `{"type":1,"sig":""}`, `{"type":1,"sig":-0.5e+3}`, `{"status":1,"sigs":[1,"a",true,false,{},[]]}`,
		`{"status":1,"entries":[{}]}`, `{"status":1,"entries":[null]}`, `{"status":1,"entries":[]}`,
		`{"status":1,"fences":[{}]}`, `{"status":1,"fences":null}`, `{"status":null}`, `{"status":1,"detail":null}`,
		`{"status":1,"entries":[{"user":1,"unix":2,"sig":null}]}`, `{"status":1,"data":""}`, `{"status":1,"data":null}`,
		// Whitespace, inside raw values and between tokens.
		`{"type":1,"sig":{ "threads" : [ ] }}`, `{"type":1,"sig": {}}`, ` {"type":1}`, `{"type":1} `, "{\"type\":1,\n\"from\":2}",
		// Escapes.
		`{"status":1,"sigs":["` + escLT + `init>"]}`, `{"status":1,"detail":"` + escLT + `"}`, `{"status":1,"detail":"a\"b"}`,
		`{"status":1,"sigs":["\"\\\/\b\f\n\r\t"]}`, `{"status":1,"sigs":["\x"]}`, `{"status":1,"sigs":["\u12"]}`,
		`{"status":1,"sigs":["` + `\` + `uD800"]}`, "{\"status\":1,\"sigs\":[\"\x01\"]}", `{"status":1,"detail":"<&>"}`,
		// Non-ASCII.
		`{"status":1,"detail":"é"}`, "{\"status\":1,\"detail\":\"\xff\"}", `{"status":1,"sigs":["é"]}`,
		"{\"status\":1,\"sigs\":[\"\xe2\x80\xa8\"]}", "{\"status\":1,\"sigs\":[\"\xff\"]}",
		// Number forms.
		`{"status":1e2}`, `{"status":1.0}`, `{"status":-0}`, `{"status":-1}`, `{"status":01}`, `{"status":+1}`,
		`{"id":-1}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`, `{"next":9223372036854775808}`,
		`{"id":999999999999999999}`, `{"id":1000000000000000000}`, `{"status":"1"}`, `{"more":1}`, `{"more":tru}`,
		// Base64 data, the removed raw SNAPSHOT page.
		`{"status":1,"data":"AA=="}`, `{"status":1,"data":"AA"}`, `{"status":1,"data":"!!!!"}`, `{"status":1,"data":"QUJD\nREVG"}`,
		// Raw values at the edges of delimiting: brackets that do not pair
		// up, a bracket inside a string, a string left open or closed only
		// by an escaped quote, a cut literal, a scalar run into a string,
		// and a space inside a value.
		`{"sig":{[]}}`, `{"sigs":[{"k":[1}]}]}`, `{"sigs":[{"a":"]"}]}`, `{"status":1,"sigs":[{"a":"b}]}`,
		`{"type":1,"sig":{"a":"\"}}`, `{"type":1,"sig":tru}`, `{"type":1,"sig":1"a"}`, `{"status":1,"entries":[{"user":1,"unix":2,"sig":{"a" 1}}]}`,
		// A payload that ends on the backslash of an escape inside a raw value.
		`{"sig":"\`, `{"sigs":["a\`, `{"sig":{"a":"\`, `{"entries":[{"sig":"a\`,
		// Trailing bytes and truncation.
		`{"status":1}garbage`, `{"status":1}}`, `{"status":1}{"status":2}`, `{"status":1`, `{"status":`, `{"sigs":[1,]}`,
		`{"status":1,}`, `{,}`, `[]`, `null`, `1`, `"x"`, ``, `{"status":1,"sigs":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
	}
	return out
}

// pageCorpus seeds FuzzFrameDifferential with pages of valid signatures,
// which the frame decoder decodes on read: canonical ones, one laid out
// with whitespace, one with its threads out of order, one with an escape
// (left to the consumer), beside values that are not signatures.
func pageCorpus() []string {
	frame := func(class string, line int) string {
		return fmt.Sprintf(`{"class":"%s","method":"m","line":%d,"hash":"h"}`, class, line)
	}
	thread := func(class string) string {
		return `{"outer":[` + frame(class, 1) + `,` + frame(class, 2) + `],"inner":[` + frame(class, 3) + `]}`
	}
	canonical := `{"threads":[` + thread("A") + `,` + thread("B") + `]}`
	spaced := `{ "threads" : [` + thread("C") + ` , ` + thread("D") + `] }`
	reversed := `{"threads":[` + thread("F") + `,` + thread("E") + `]}`
	escaped := strings.Replace(canonical, `"A"`, `"\u0041"`, 1)
	oneThread := `{"threads":[` + thread("G") + `]}`
	return []string{
		`{"status":1,"id":4,"sigs":[` + canonical + `],"next":2}`,
		`{"status":1,"type":6,"sigs":[` + canonical + `,` + spaced + `,` + oneThread + `,` + reversed + `],"next":5}`,
		`{"status":1,"id":4,"sigs":[` + escaped + `,` + canonical + `,[1],"x",null],"next":6,"more":true}`,
		`{"status":1,"id":4,"sigs":[` + canonical + `,{"threads":[1}]],"next":3}`,
		`{"status":1,"id":4,"sigs":[` + canonical + `,` + canonical[:len(canonical)-2] + `],"next":3}`,
		`{"status":1,"id":4,"sigs":[` + canonical + `]}garbage`,
		`{"status":1,"id":4,"sigs":[` + canonical + ` ],"next":2}`,
	}
}

// FuzzFrameDifferential holds the frame codec to encoding/json. For
// arbitrary payload bytes, ReadMessage into a zero Request or Response
// meets checkDecode's contract: it accepts what json.Unmarshal accepts,
// with a DeepEqual value, and what else it accepts carries a raw value
// that is not JSON and that every consumer rejects. Every page
// signature it decodes on read is the one the consumer would decode
// from the raw value rawEnd delimits (checkDecodedSigs).
// For Requests and Responses built from the inputs — the payload also
// standing in as every raw value — EncodeFrame writes json.Marshal's
// bytes.
func FuzzFrameDifferential(f *testing.F) {
	for _, p := range frameCorpus() {
		f.Add([]byte(p), int64(1), uint64(0xFFFF), "token", true)
	}
	f.Add([]byte(`{}`), int64(-7), uint64(1<<63), "é", false)
	f.Add([]byte(` [1, 2]`), int64(0), uint64(5), "a<b", true)
	for _, p := range pageCorpus() {
		f.Add([]byte(p), int64(1), uint64(0xFFFF), "token", true)
	}
	f.Fuzz(func(t *testing.T, payload []byte, n int64, u uint64, s string, flag bool) {
		checkDecode(t, payload)

		// u's bits choose which fields are set, so omitempty is exercised.
		on := func(bit uint) bool { return u>>bit&1 != 0 }
		req := Request{Type: MsgType(n)}
		if on(0) {
			req.ID, req.Token, req.Sig, req.From = u, ids.Token(s), payload, int(n)
		}
		if on(1) {
			req.Version, req.Epoch, req.Node = int(n>>8), u>>1, s
		}
		if on(2) {
			req.Cursor, req.LastEpoch = -int(n), u>>3
		}
		checkEncode(t, req)

		resp := Response{Status: Status(n)}
		if on(0) {
			resp.ID, resp.Type, resp.Detail, resp.Next, resp.More = u, MsgType(n>>4), s, int(n), flag
			resp.Sigs = []json.RawMessage{payload}
		}
		if on(1) {
			resp.Sigs = append(resp.Sigs, nil, payload)
			resp.Version, resp.Epoch, resp.Role, resp.Primary, resp.Fence = int(n>>8), u, s, s, int(u>>2)
			resp.Fences = []EpochFence{{E: u, N: int(n)}, {}}
		}
		if on(2) {
			resp.Entries = []Entry{{User: ids.UserID(u), Unix: n, Sig: payload}, {}}
			resp.Cursor = int(n)
		}
		checkEncode(t, resp)
		checkEncode(t, &resp)
		checkStored(t, resp)
	})
}

// checkStored holds EncodeStoredFrame to EncodeFrame on a Response
// whose raw values are all ones json.Marshal writes unchanged (or nil,
// written as null) — the values a store holds: the same frame, or an
// error from both.
func checkStored(t *testing.T, r Response) {
	t.Helper()
	raws := append([]json.RawMessage(nil), r.Sigs...)
	for _, en := range r.Entries {
		raws = append(raws, en.Sig)
	}
	for _, v := range raws {
		if m, err := json.Marshal(v); v != nil && (err != nil || !bytes.Equal(m, v)) {
			return
		}
	}
	want, wantErr := EncodeFrame(r)
	got, err := EncodeStoredFrame(r)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("EncodeStoredFrame(%#v) = %q, %v; EncodeFrame %q, %v", r, got, err, want, wantErr)
	}
	// Appended after other bytes, in storage with room to spare or none.
	for _, room := range []int{0, len(want) + 64} {
		dst := append(make([]byte, 0, 3+room), "dst"...)
		appended, aErr := AppendStoredFrame(dst, r)
		if (aErr == nil) != (err == nil) || aErr == nil && !bytes.Equal(appended, append([]byte("dst"), got...)) || string(dst) != "dst" {
			t.Fatalf("AppendStoredFrame(%q, %#v) = %q, %v; EncodeStoredFrame %q, %v", dst, r, appended, aErr, got, err)
		}
	}
}

// TestSkipValue holds the skipper to json.Valid, and its compact verdict
// to json.Marshal's treatment of a RawMessage.
func TestSkipValue(t *testing.T) {
	inputs := frameCorpus()
	for _, p := range frameCorpus() {
		for _, cut := range []int{1, 2, len(p) / 2, len(p) - 1} {
			if cut > 0 && cut < len(p) {
				inputs = append(inputs, p[cut:], p[:cut])
			}
		}
	}
	for _, p := range inputs {
		b := []byte(p)
		end, compact := skipValue(b, 0)
		whole := end >= 0 && len(bytes.TrimLeft(b[end:], " \t\r\n")) == 0
		// Deeper than maxSkipDepth the skipper declines valid JSON.
		deep := strings.Count(p, "[")+strings.Count(p, "{") > maxSkipDepth
		if valid := json.Valid(b); valid != whole && !(deep && end < 0) {
			t.Errorf("skipValue(%q) = %d of %d; json.Valid %v", p, end, len(b), valid)
		}
		if end != len(b) {
			continue
		}
		marshaled, err := json.Marshal(json.RawMessage(b))
		if err != nil {
			t.Fatal(err)
		}
		if same := bytes.Equal(marshaled, b); compact != same {
			t.Errorf("skipValue(%q) compact %v; json.Marshal writes %q", p, compact, marshaled)
		}
	}
}

// TestRawEndDelimitsValidJSON: on every valid JSON value of the corpus
// and its cuts, followed by each byte that may end a value, rawEnd finds
// the end skipValue finds.
func TestRawEndDelimitsValidJSON(t *testing.T) {
	var inputs []string
	for _, p := range frameCorpus() {
		for _, cut := range []int{0, 1, 2, len(p) / 2, len(p) - 1} {
			if cut >= 0 && cut < len(p) {
				inputs = append(inputs, p[cut:], p[:cut])
			}
		}
	}
	for _, p := range inputs {
		if len(p) == 0 || strings.IndexByte(" \t\r\n", p[0]) >= 0 || !json.Valid([]byte(p)) {
			continue
		}
		for _, tail := range []string{"}", "]", ",", " "} {
			b := []byte(strings.TrimRight(p, " \t\r\n") + tail)
			want, _ := skipValue(b, 0)
			if got := rawEnd(b, 0); got != want && want >= 0 {
				t.Errorf("rawEnd(%q) = %d; the value ends at %d", b, got, want)
			}
		}
	}
}

// TestRawEndStaysInBounds: on every prefix of every corpus payload,
// valid JSON or not, and from every start index, rawEnd returns -1 or an
// index within the payload, without panicking.
func TestRawEndStaysInBounds(t *testing.T) {
	for _, p := range frameCorpus() {
		for n := 0; n <= len(p); n++ {
			b := []byte(p[:n])
			for i := 0; i < len(b); i++ {
				if got := rawEnd(b, i); got < -1 || got > len(b) {
					t.Errorf("rawEnd(%q, %d) = %d; out of range", b, i, got)
				}
			}
		}
	}
}

// skipStringBytewise is skipString's byte-at-a-time reference.
func skipStringBytewise(b []byte, i int, compact *bool) int {
	for i++; i < len(b); i++ {
		switch strClass[b[i]] {
		case strPlain, strHigh:
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

// TestStringScansEveryByteEveryOffset puts each byte value at each
// offset 0–15 of a plain string body, of every length up to 24, and
// holds the word-at-a-time scanners to their byte-at-a-time references:
// skipString's end and compact verdict, plainString, and the frame
// decoder's string. Each body is tried closed by a quote, followed by
// what may complete an escape or a U+2028, and cut short.
func TestStringScansEveryByteEveryOffset(t *testing.T) {
	for n := 1; n <= 24; n++ {
		for off := 0; off < 16 && off < n; off++ {
			for c := 0; c < 256; c++ {
				body := bytes.Repeat([]byte{'a'}, n)
				body[off] = byte(c)
				if want, got := strClass[c] == strPlain, plainString(string(body)); got != want {
					t.Fatalf("plainString(%q) = %v, want %v", body, got, want)
				}
				for _, tail := range []string{`"`, "\x80\xa8\"", `u0041"`, ``} {
					b := append(append([]byte{'"'}, body...), tail...)
					gotCompact, wantCompact := true, true
					got := skipString(b, 0, &gotCompact)
					want := skipStringBytewise(b, 0, &wantCompact)
					if got != want || gotCompact != wantCompact {
						t.Fatalf("skipString(%q) = %d, compact %v; byte by byte %d, %v", b, got, gotCompact, want, wantCompact)
					}
					end := 1
					for end < len(b) && strClass[b[end]] == strPlain {
						end++
					}
					wantOK := end < len(b) && b[end] == '"'
					d := frameDecoder{b: b}
					s, ok := d.str()
					if ok != wantOK || ok && (string(s) != string(b[1:end]) || d.i != end+1) {
						t.Fatalf("frameDecoder.str(%q) = %q, %v at %d; want ok %v", b, s, ok, d.i, wantOK)
					}
				}
			}
		}
	}
}

// prevResponse is a Response holding a value in every field.
func prevResponse() Response {
	return Response{
		Status: StatusBusy, ID: 9, Type: MsgPush, Detail: "old", Sigs: []json.RawMessage{[]byte(`1`), []byte(`2`)},
		Next: 4, More: true, Version: 1, Epoch: 2, Role: "follower", Primary: "p:1", Fence: 3,
		Fences: []EpochFence{{1, 0}}, Entries: []Entry{{User: 1, Unix: 2, Sig: []byte(`3`)}},
		Cursor: 5,
	}
}

// TestReadMessageNonZeroTarget: a frame read into a value that already
// holds data merges exactly as json.Unmarshal merges — fields the frame
// omits keep their previous value.
func TestReadMessageNonZeroTarget(t *testing.T) {
	for _, p := range []string{
		`{"status":1}`,
		`{"status":1,"sigs":["x"],"next":8}`,
		`{"status":1,"entries":[{"sig":null}],"fences":[{"e":4}]}`,
		`{}`,
	} {
		got, want := prevResponse(), prevResponse()
		if err := ReadMessage(bytes.NewReader(frameOf([]byte(p))), &got); err != nil {
			t.Fatalf("ReadMessage(%s): %v", p, err)
		}
		if err := json.Unmarshal([]byte(p), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ReadMessage(%s) into a filled Response =\n%#v\njson.Unmarshal:\n%#v", p, got, want)
		}
		if got.Detail != "old" || got.Role != "follower" {
			t.Errorf("ReadMessage(%s) dropped fields the frame omits: %+v", p, got)
		}
	}
	prev := func() Request { return Request{Type: MsgAdd, Token: "t", Sig: []byte(`{}`), Node: "n", From: 3} }
	got, want := prev(), prev()
	p := []byte(`{"type":2,"from":9}`)
	if err := ReadMessage(bytes.NewReader(frameOf(p)), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(p, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Token != "t" || string(got.Sig) != `{}` {
		t.Errorf("ReadMessage into a filled Request = %+v; json.Unmarshal %+v", got, want)
	}
}

// sample returns a non-zero value of type typ with every field set.
func sample(typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch {
	case typ == reflect.TypeOf(json.RawMessage(nil)):
		v.SetBytes([]byte(`{"k":[1,"s",null]}`))
	case typ.Kind() == reflect.Slice:
		v.Set(reflect.Append(v, sample(typ.Elem())))
	case typ.Kind() == reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				v.Field(i).Set(sample(typ.Field(i).Type))
			}
		}
	case typ.Kind() == reflect.String:
		v.SetString("x")
	case typ.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(-7)
	case v.CanUint():
		v.SetUint(9)
	default:
		panic("no sample for " + typ.String())
	}
	return v
}

// TestCodecCoversEveryField: each wire field of Request and Response
// (every exported one), set alone and all together, takes the frame
// codec both ways and makes the value non-zero — so a field added to the
// structs without the codec learning it fails here rather than silently
// taking the fallback.
func TestCodecCoversEveryField(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Request{}), reflect.TypeOf(Response{})} {
		values := []reflect.Value{sample(typ)}
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				continue
			}
			v := reflect.New(typ).Elem()
			v.Field(i).Set(sample(typ.Field(i).Type))
			values = append(values, v)
		}
		for _, v := range values {
			ptr := v.Addr().Interface()
			if z, ok := ptr.(interface{ isZero() bool }); !ok || z.isZero() {
				t.Fatalf("%#v reads as zero", ptr)
			}
			frame, ok := canonicalFrame(ptr)
			want, err := json.Marshal(ptr)
			if err != nil || !ok || !bytes.Equal(frame[4:], want) {
				t.Fatalf("frame encoder on %#v: %q, %v; json.Marshal %q, %v", ptr, frame, ok, want, err)
			}
			got := reflect.New(typ).Interface()
			if !decodeCanonical(want, got) {
				t.Fatalf("frame decoder declined %s", want)
			}
			if !reflect.DeepEqual(got, ptr) {
				t.Fatalf("frame decoder on %s = %#v, want %#v", want, got, ptr)
			}
		}
	}
}

// TestDecodedRawAliasesPayload: decoded raw values share the payload
// without exposing the bytes after them to an append.
func TestDecodedRawAliasesPayload(t *testing.T) {
	p := []byte(`{"status":1,"sigs":[{"a":1},{"b":2}],"entries":[{"user":1,"unix":2,"sig":[3]}]}`)
	var r Response
	if !decodeCanonical(p, &r) {
		t.Fatal("frame decoder declined a canonical payload")
	}
	if &r.Sigs[0][0] != &p[bytes.Index(p, []byte(`{"a"`))] {
		t.Error("decoded signature does not alias the payload")
	}
	for _, raw := range append(r.Sigs, r.Entries[0].Sig) {
		if cap(raw) != len(raw) {
			t.Errorf("raw value %s has capacity %d past its end", raw, cap(raw)-len(raw))
		}
	}
	_ = append(r.Sigs[0], 'x')
	if string(r.Sigs[1]) != `{"b":2}` {
		t.Errorf("append to one raw value overwrote the next: %s", r.Sigs[1])
	}
}
