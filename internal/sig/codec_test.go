package sig

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestCodecRoundTrip(t *testing.T) {
	s := twoThreadSig(5)
	s.Threads[0].Outer[0].Hash = "deadbeef"
	s.Normalize()

	data, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, s)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode(&Signature{}); err == nil {
		t.Error("encoding an empty signature should fail")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "not json"},
		{"empty object", "{}"},
		{"one thread", `{"threads":[{"outer":[{"class":"C","method":"m","line":1}],"inner":[{"class":"C","method":"m","line":2}]}]}`},
		{"unknown field", `{"threads":[],"evil":true}`},
		{"empty stack", `{"threads":[{"outer":[],"inner":[{"class":"C","method":"m","line":1}]},{"outer":[{"class":"C","method":"m","line":1}],"inner":[{"class":"C","method":"m","line":1}]}]}`},
		{"bad line", `{"threads":[{"outer":[{"class":"C","method":"m","line":0}],"inner":[{"class":"C","method":"m","line":1}]},{"outer":[{"class":"C","method":"m","line":1}],"inner":[{"class":"C","method":"m","line":1}]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode([]byte(tc.data)); err == nil {
				t.Errorf("Decode(%q) should fail", tc.data)
			}
		})
	}
}

// TestDecodeRejectsTrailingBytes: a signature is exactly one JSON value;
// the fast path and the encoding/json fallback both refuse anything but
// whitespace after it.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	good, err := Encode(twoThreadSig(5))
	if err != nil {
		t.Fatal(err)
	}
	// A non-ASCII class name forces the fallback decoder.
	fallback := bytes.Replace(good, []byte(`"app/T1"`), []byte(`"app/Té"`), -1)
	for name, data := range map[string][]byte{"fast": good, "fallback": fallback} {
		if _, ok, _ := decodeCanonical(data, false); ok != (name == "fast") {
			t.Fatalf("%s input: decodeCanonical ok = %v", name, ok)
		}
		if _, err := Decode(append(append([]byte(" \n"), data...), " \t\r\n"...)); err != nil {
			t.Errorf("%s: surrounding whitespace rejected: %v", name, err)
		}
		for _, tail := range []string{" garbage", "]]]", "}", "0", string(data)} {
			in := append(append([]byte(nil), data...), tail...)
			_, err := Decode(in)
			if err == nil || !strings.Contains(err.Error(), "after top-level value") {
				t.Errorf("%s + %q: err = %v, want trailing-bytes rejection", name, tail, err)
			}
		}
	}
}

// TestDecodeSharedAliasesInput: DecodeShared and DecodeVerbatim take a
// canonical signature's strings from the input bytes; Decode copies
// them.
func TestDecodeSharedAliasesInput(t *testing.T) {
	data, err := Encode(twoThreadSig(5))
	if err != nil {
		t.Fatal(err)
	}
	inData := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		start := uintptr(unsafe.Pointer(&data[0]))
		return start <= p && p < start+uintptr(len(data))
	}
	shared, err := DecodeShared(data)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if class := shared.Threads[0].Outer[0].Class; !inData(class) {
		t.Errorf("DecodeShared copied class %q", class)
	}
	verbatim, exact, err := DecodeVerbatim(data)
	if err != nil || !exact {
		t.Fatalf("DecodeVerbatim(Encode(s)) = exact %v, %v", exact, err)
	}
	if class := verbatim.Threads[0].Outer[0].Class; !inData(class) {
		t.Errorf("DecodeVerbatim copied class %q", class)
	}
	if class := copied.Threads[0].Outer[0].Class; inData(class) {
		t.Errorf("Decode aliased class %q into its input", class)
	}
}

func TestDecodeEnforcesSizeLimit(t *testing.T) {
	huge := append([]byte(`{"threads":[`), bytes.Repeat([]byte(" "), MaxEncodedSize)...)
	if _, err := Decode(huge); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized input should be rejected with a limit error, got %v", err)
	}
}

func TestDecodeNormalizes(t *testing.T) {
	// Threads deliberately out of canonical order in the wire form.
	data := []byte(`{"threads":[
		{"outer":[{"class":"Z","method":"m","line":1}],"inner":[{"class":"Z","method":"m","line":2}]},
		{"outer":[{"class":"A","method":"m","line":1}],"inner":[{"class":"A","method":"m","line":2}]}
	]}`)
	s, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Threads[0].Outer.Top().Class != "A" {
		t.Error("Decode should normalize thread order")
	}
}

func TestEncodedSizeMatchesPaperScale(t *testing.T) {
	// The paper reports signatures of roughly 1.7 KB (§IV-A). A two-thread
	// signature with depth-15 stacks and 64-char hashes should land within
	// the same order of magnitude.
	mk := func(tag string) ThreadSpec {
		var outer, inner Stack
		for i := 0; i < 15; i++ {
			h := strings.Repeat("a", 64)
			outer = append(outer, Frame{Class: "com/app/pkg/" + tag, Method: "handleRequest", Line: 100 + i, Hash: h})
			inner = append(inner, Frame{Class: "com/app/pkg/" + tag, Method: "flushBuffers", Line: 200 + i, Hash: h})
		}
		return ThreadSpec{Outer: outer, Inner: inner}
	}
	s := New(mk("Alpha"), mk("Beta"))
	n := EncodedSize(s)
	if n < 1024 || n > 16*1024 {
		t.Errorf("EncodedSize = %d bytes; expected the paper's order of magnitude (1-16 KB)", n)
	}
}

func TestEncodedSizeZeroForInvalid(t *testing.T) {
	if n := EncodedSize(&Signature{}); n != 0 {
		t.Errorf("EncodedSize(invalid) = %d, want 0", n)
	}
}

// strBytewise is canonDecoder.str's byte-at-a-time reference, from the
// opening quote at d.src[d.pos].
func strBytewise(d *canonDecoder) (string, bool) {
	d.pos++
	start := d.pos
	for i := start; i < len(d.src); i++ {
		switch c := d.src[i]; {
		case c == '"':
			d.pos = i + 1
			return d.src[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		case c == '<' || c == '>' || c == '&':
			d.inexact = true
		}
	}
	return "", false
}

// TestStrEveryByteEveryOffset puts each byte value at each offset 0–15
// of a plain string body, of every length up to 24, closed by a quote or
// cut short, and holds the word-at-a-time str to its byte-at-a-time
// reference: the same string, verdict, position and exactness.
func TestStrEveryByteEveryOffset(t *testing.T) {
	for n := 1; n <= 24; n++ {
		for off := 0; off < 16 && off < n; off++ {
			for c := 0; c < 256; c++ {
				body := bytes.Repeat([]byte{'a'}, n)
				body[off] = byte(c)
				for _, tail := range []string{`"`, `<"`, ``} {
					src := `"` + string(body) + tail
					got, want := canonDecoder{src: src}, canonDecoder{src: src}
					s, ok := got.str()
					ws, wok := strBytewise(&want)
					if s != ws || ok != wok || got.pos != want.pos || got.inexact != want.inexact {
						t.Fatalf("str(%q) = %q, %v, pos %d, inexact %v; byte by byte %q, %v, %d, %v",
							src, s, ok, got.pos, got.inexact, ws, wok, want.pos, want.inexact)
					}
				}
			}
		}
	}
}

// TestExactFrameTakesOnlyEncodersLayout: exactFrame decodes every frame
// Encode writes, and declines each near-exact frame with the cursor and
// the frame untouched, so the member loop judges it.
func TestExactFrameTakesOnlyEncodersLayout(t *testing.T) {
	for _, s := range []*Signature{twoThreadSig(5), chanSig(5, KindChanSelect), protectSig("")} {
		for _, th := range s.Threads {
			for _, f := range append(append(Stack(nil), th.Outer...), th.Inner...) {
				data := string(appendStackJSON(nil, Stack{f}, false))
				d := canonDecoder{src: data[1 : len(data)-1]}
				var got Frame
				if !d.exactFrame(&got) || got != f || d.pos != len(d.src) {
					t.Fatalf("exactFrame(%s) = %+v at %d, want %+v at the end", d.src, got, d.pos, f)
				}
			}
		}
	}
	for _, src := range nearExactFrames() {
		d := canonDecoder{src: src}
		var got Frame
		if d.exactFrame(&got) || got != (Frame{}) || d.pos != 0 {
			t.Errorf("exactFrame(%s) took it: %+v at %d", src, got, d.pos)
		}
	}
}

// TestDecodePrefix: a canonical signature followed by whatever a page
// puts after it decodes as DecodeShared decodes the signature alone;
// anything outside the canonical subset, invalid or over the size bound
// is declined.
func TestDecodePrefix(t *testing.T) {
	s := benchSig(6)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeShared(data)
	if err != nil {
		t.Fatal(err)
	}
	spaced := bytes.ReplaceAll(data, []byte(`,`), []byte(`, `))
	for _, sigBytes := range [][]byte{data, spaced} {
		for _, tail := range []string{"", ",", "]", "}", `,{"threads":[]}]`, "garbage", " "} {
			in := append(append([]byte(nil), sigBytes...), tail...)
			got, end := DecodePrefix(in)
			if got == nil || end != len(sigBytes) || !reflect.DeepEqual(got, want) {
				t.Errorf("DecodePrefix(%.40q…%q) = %v, %d; want the signature up to %d", sigBytes, tail, got, end, len(sigBytes))
			}
		}
	}
	// Threads out of canonical order decode normalized, as DecodeShared's do.
	rev, err := Encode(&Signature{Threads: []ThreadSpec{s.Threads[1], s.Threads[0]}})
	if err != nil || bytes.Equal(rev, data) {
		t.Fatalf("reversed encoding %q, %v", rev, err)
	}
	if got, _ := DecodePrefix(rev); got == nil || !reflect.DeepEqual(got, want) {
		t.Errorf("DecodePrefix(%q) = %v, want it normalized to %v", rev, got, want)
	}
	escaped := bytes.Replace(data, []byte(`"class":"`), []byte(`"class":"\u0041`), 1)
	big := append(append([]byte(`{"threads":[{"outer":[{"class":"`), bytes.Repeat([]byte("x"), MaxEncodedSize)...), data[len(`{"threads":[{"outer":[{"class":"`):]...)
	for name, in := range map[string][]byte{
		"escape":         escaped,
		"one thread":     []byte(`{"threads":[{"outer":[{"class":"C","method":"m","line":1}],"inner":[{"class":"C","method":"m","line":2}]}]}`),
		"no threads":     []byte(`{}`),
		"unknown key":    []byte(`{"threads":[],"x":1}`),
		"cut":            data[:len(data)-1],
		"leading zero":   bytes.Replace(data, []byte(`"line":1`), []byte(`"line":01`), 1),
		"over the bound": big,
		"not an object":  []byte(`[1]`),
		"empty":          nil,
	} {
		if got, end := DecodePrefix(in); got != nil || end != 0 {
			t.Errorf("%s: DecodePrefix accepted %.60q… up to %d", name, in, end)
		}
	}
	if _, err := DecodeShared(escaped); err != nil {
		t.Errorf("the escaped signature is valid and must be left to DecodeShared: %v", err)
	}
}

// TestIDAllocs: ID's hash input comes from a pool, so the returned
// string is its one allocation in the steady state; one more is allowed
// for a pool miss.
func TestIDAllocs(t *testing.T) {
	s := protectSig("")
	want := s.ID()
	if n := testing.AllocsPerRun(200, func() {
		if s.ID() != want {
			t.Fatal("ID changed between calls")
		}
	}); n > 2 {
		t.Errorf("ID allocates %.1f times per call, want at most 2", n)
	}
}

// TestDecodeInPlaceAllocs: a canonical signature is parsed into the
// pooled decoder's scratch, so lending it allocates nothing once the
// pool is warm; the same input through DecodeVerbatim allocates the
// signature, its threads and its frame array.
func TestDecodeInPlaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop decoders")
	}
	data, err := Encode(protectSig(""))
	if err != nil {
		t.Fatal(err)
	}
	use := func(s *Signature, exact bool) {
		if !exact || len(s.Threads) != 2 {
			t.Fatalf("lent %v, exact %v", s, exact)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeInPlace(data, use); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInPlace allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _, _ = DecodeVerbatim(data) }); n < 3 {
		t.Errorf("DecodeVerbatim allocates %.1f times per call; the baseline is at least 3", n)
	}
}
