package sig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// DecodeCorpus returns the seed inputs shared by the decode fuzz targets
// and the golden-ID test (exported for the external sig_test package).
func DecodeCorpus() [][]byte {
	var out [][]byte
	add := func(s string) { out = append(out, []byte(s)) }
	for _, s := range []*Signature{twoThreadSig(5), chanSig(5, KindChanSend), chanSig(5, KindChanRecv), chanSig(5, KindChanSelect), protectSig("")} {
		data, err := Encode(s)
		if err != nil {
			panic(err)
		}
		out = append(out, data)
	}
	// Channel-kind corpus: valid signatures for every chan op kind, plus
	// malformed kinds the decoder must reject (unknown kind, kind in the
	// wrong case, empty-string kind encoded explicitly).
	add(`{"threads":[{"outer":[{"class":"C","method":"m","line":1,"kind":"chan-send"}],"inner":[{"class":"C","method":"m","line":1,"kind":"chan-recv"}]},{"outer":[{"class":"D","method":"m","line":1,"kind":"chan-send"}],"inner":[{"class":"D","method":"m","line":1,"kind":"chan-select"}]}]}`)
	add(`{"threads":[{"outer":[{"class":"C","method":"m","line":1,"kind":"chan-warp"}],"inner":[{"class":"C","method":"m","line":1}]}]}`)
	add(`{"threads":[{"outer":[{"class":"C","method":"m","line":1,"kind":"CHAN-SEND"}],"inner":[{"class":"C","method":"m","line":1}]}]}`)
	add(`{"threads":[{"outer":[{"class":"C","method":"m","line":1,"kind":""}],"inner":[{"class":"C","method":"m","line":1}]}]}`)
	add(`{}`)
	add(`{"threads":[]}`)
	add(`{"threads":[{"outer":[{"class":"C","method":"m","line":1}],"inner":[{"class":"C","method":"m","line":1}]}]}`)
	add(`not json at all`)

	// Inputs at the edge of the canonical subset the fast decoder takes:
	// each must decode exactly as encoding/json decodes it.
	good := sig2(f1, f2)
	add(good + ` garbage`) // trailing bytes
	add(good + `]]]`)
	add(good + good)
	add(good + " \t\r\n")
	add(" \n" + good)
	add(`{ "threads" : [ { "outer" : [ { "class" : "C" , "method" : "m" , "line" : 1 } ] , "inner" : [ ] } ] }`)
	for _, f := range []string{
		`{"CLASS":"C","method":"m","line":1}`,                              // case-folded key
		"{\"cla\u017fs\":\"C\",\"method\":\"m\",\"line\":1}",               // ſ folds to s
		"{\"class\":\"C\",\"method\":\"m\",\"line\":1,\"\u212aind\":\"\"}", // Kelvin sign folds to k
		`{"class":"C\u0041","method":"m","line":1}`,                        // escapes
		`{"class":"C\\D","method":"m","line":1}`,
		`{"class":"C\/D","method":"m","line":1}`,
		`{"class":"Cé","method":"m","line":1}`, // non-ASCII
		"{\"class\":\"C\xff\",\"method\":\"m\",\"line\":1}",
		"{\"class\":\"C\x7f\",\"method\":\"m\",\"line\":1}",
		"{\"class\":\"C\tD\",\"method\":\"m\",\"line\":1}",
		`{"class":null,"method":"m","line":1}`, // null
		`{"class":"C","method":"m","line":null}`,
		`{"class":"C","class":"D","method":"m","line":1}`, // duplicate key
		`{"class":"C","method":"m","line":1,"line":2}`,
		`{"class":"C","method":"m","line":-0}`, // number forms
		`{"class":"C","method":"m","line":-1}`,
		`{"class":"C","method":"m","line":0}`,
		`{"class":"C","method":"m","line":01}`,
		`{"class":"C","method":"m","line":1e2}`,
		`{"class":"C","method":"m","line":1.0}`,
		`{"class":"C","method":"m","line":999999999999999999}`,
		`{"class":"C","method":"m","line":9223372036854775807}`,
		`{"class":"C","method":"m","line":9223372036854775808}`, // int overflow
		`{"class":"C","method":"m","line":"1"}`,
		`{"class":1,"method":"m","line":1}`,
		`{"method":"m","line":1}`, // missing fields
		`{}`,
		`{"class":"C","method":"m","line":1,}`,
		`{"class":"C","method":"m","line":1,"evil":true}`,
	} {
		add(sig2(f, f2))
	}
	add(`{"threads":[{"outer":[],"inner":[]},{"outer":[],"inner":[]}]}`) // empty arrays
	add(`{"threads":[{},{}]}`)
	add(`{"threads":null}`)
	add(`{"threads":[` + `{"outer":[` + f1 + `],"inner":[` + f1 + `]}` + `],"threads":[]}`)
	add(`{"threads":[{"outer":[` + f1 + `],"outer":[` + f2 + `],"inner":[` + f1 + `]}]}`)
	add(`{"Threads":[]}`)
	add(`[]`)
	add(``)
	add(`   `)
	for _, seed := range inexactCorpus() {
		add(seed.data)
	}
	for _, f := range nearExactFrames() {
		add(sig2(f, f2))
	}
	return out
}

// nearExactFrames are frames one step from the layout Encode writes:
// each must leave exactFrame's literal-key path for the member loop,
// and decode there as the oracle does.
func nearExactFrames() []string {
	return []string{
		`{"method":"m","class":"C","line":1,"hash":"h"}`, // swapped keys
		`{"class":"C","method":"m","line":1,"hash":""}`,  // empty hash
		`{"class":"C","method":"m","line":1,"hash":"h","kind":""}`,
		`{"class":"C","method":"m","line":1,"kind":"chan-send","hash":"h"}`,
		`{"class":"C", "method":"m","line":1,"hash":"h"}`, // whitespace
		`{ "class":"C","method":"m","line":1,"hash":"h"}`,
		`{"class":"C","method":"m","line":1 ,"hash":"h"}`,
		`{"class":"C","method":"m","line":1,"hash":"h" }`,
		`{"class":"C","method":"m","line":007,"hash":"h"}`, // leading zeros
		`{"class":"C","method":"m","line":0,"hash":"h"}`,
		`{"class":"C","method":"m","line":1234567890123456789,"hash":"h"}`,
		`{"class":"C","class":"D","method":"m","line":1}`, // repeated class
		`{"class":"C","method":"m","line":1,"class":"D"}`,
		`{"class":"C","method":"m<n","line":1,"hash":"h"}`, // HTML bytes
		`{"class":"C","method":"m&n","line":1,"hash":"h"}`,
		`{"class":"C","line":1,"hash":"h"}`, // missing method
		`{"class":"","method":"m","line":1}`,
		`{"class":"C","method":"m","line":1,"hash":"h","evil":1}`,
		`{"class":"C\u0041","method":"m","line":1}`,
	}
}

// Frames and a two-thread signature builder for hand-written seeds; f1
// sorts before f2, so sig2(f1, f2) is in canonical order.
const (
	f1 = `{"class":"C","method":"m","line":1,"hash":"h"}`
	f2 = `{"class":"D","method":"n","line":2,"hash":"h"}`
)

func sig2(a, b string) string {
	return `{"threads":[{"outer":[` + a + `],"inner":[` + a + `]},{"outer":[` + b + `],"inner":[` + b + `]}]}`
}

// inexactSeed is an input that decodes, or at least scans, but is not
// byte for byte what Encode writes for the result.
type inexactSeed struct{ rule, data string }

// inexactCorpus holds one seed per rule that clears DecodeVerbatim's
// exact flag. Seeds that are invalid signatures (a missing field) can
// only be checked in the scanner.
func inexactCorpus() []inexactSeed {
	frame := func(fields string) string { return sig2(`{`+fields+`}`, f2) }
	return []inexactSeed{
		{"whitespace", frame(`"class":"C", "method":"m","line":1,"hash":"h"`)},
		{"trailing whitespace", sig2(f1, f2) + " "},
		{"frame key order", frame(`"method":"m","class":"C","line":1,"hash":"h"`)},
		{"kind before hash", frame(`"class":"C","method":"m","line":1,"kind":"chan-send","hash":"h"`)},
		{"missing class", frame(`"method":"m","line":1,"hash":"h"`)},
		{"missing method", frame(`"class":"C","line":1,"hash":"h"`)},
		{"missing line", frame(`"class":"C","method":"m","hash":"h"`)},
		{"empty hash", frame(`"class":"C","method":"m","line":1,"hash":""`)},
		{"empty kind", frame(`"class":"C","method":"m","line":1,"hash":"h","kind":""`)},
		{"inner before outer", `{"threads":[{"inner":[` + f1 + `],"outer":[` + f1 + `]},{"outer":[` + f2 + `],"inner":[` + f2 + `]}]}`},
		{"missing outer", `{"threads":[{"inner":[` + f1 + `]},{"outer":[` + f2 + `],"inner":[` + f2 + `]}]}`},
		{"missing inner", `{"threads":[{"outer":[` + f1 + `]},{"outer":[` + f2 + `],"inner":[` + f2 + `]}]}`},
		{"missing threads", `{}`},
		{"<", frame(`"class":"C<D","method":"m","line":1,"hash":"h"`)},
		{">", frame(`"class":"C","method":"m>","line":1,"hash":"h"`)},
		{"&", frame(`"class":"C","method":"m","line":1,"hash":"h&"`)},
		{"thread order", sig2(f2, f1)},
		// Canonical bytes (Encode escapes a backslash just so) that only
		// the encoding/json fallback decodes: not-exact is the safe answer.
		{"fallback", frame(`"class":"C\\D","method":"m","line":1,"hash":"h"`)},
	}
}

// TestDecodeVerbatimInexactSeeds: every clearing rule has a seed that
// comes out not-exact — from DecodeVerbatim when the seed is a valid
// signature, from the scanner when only the scanner can see it.
func TestDecodeVerbatimInexactSeeds(t *testing.T) {
	for _, seed := range inexactCorpus() {
		data := []byte(seed.data)
		_, exact, err := DecodeVerbatim(data)
		switch {
		case err == nil && exact:
			t.Errorf("%s: DecodeVerbatim(%s) reported exact", seed.rule, data)
		case err != nil:
			if _, ok, exact := decodeCanonical(data, true); !ok || exact {
				t.Errorf("%s: invalid seed %s: scanner ok %v, exact %v; want ok and not exact", seed.rule, data, ok, exact)
			}
		}
	}
	// Encode's own output is exact.
	for _, s := range []*Signature{twoThreadSig(5), chanSig(5, KindChanSend), protectSig("")} {
		data, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, exact, err := DecodeVerbatim(data); err != nil || !exact {
			t.Errorf("DecodeVerbatim(Encode(s)) = exact %v, %v", exact, err)
		}
	}
}

// FuzzDecode: the signature decoder consumes bytes from the network (via
// GET replies); arbitrary input must never panic, and anything that
// decodes must be valid, canonical, and re-encodable to an equal value.
func FuzzDecode(f *testing.F) {
	for _, seed := range DecodeCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if vErr := s.Valid(); vErr != nil {
			t.Fatalf("Decode returned invalid signature: %v", vErr)
		}
		// Canonical: re-normalizing must not change identity.
		id := s.ID()
		s.Normalize()
		if s.ID() != id {
			t.Fatal("decoded signature was not canonical")
		}
		// Round trip.
		out, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !back.Equal(s) {
			t.Fatal("round trip changed the signature")
		}
	})
}

// oracleDecode is the reference the fast decoder is checked against:
// encoding/json's strict decoder (unknown fields disallowed) and a
// token-level check that nothing follows the value. trailing reports a
// value that decoded but was followed by more input.
func oracleDecode(data []byte) (s *Signature, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s = new(Signature)
	if err := dec.Decode(s); err != nil {
		return nil, false, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, true, nil
	}
	return s, false, nil
}

// FuzzDecodeDifferential: the single-pass canonical decoder must agree
// with encoding/json on every input it accepts, and Decode as a whole
// must accept, reject, and decode exactly as the oracle does. Input
// reported exact must be exactly what the encoder writes.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range DecodeCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxEncodedSize {
			return
		}
		want, trailing, oErr := oracleDecode(data)
		if fast, ok, exact := decodeCanonical(data, false); ok {
			if oErr != nil || trailing {
				t.Fatalf("fast path accepted %q; oracle: err %v, trailing %v", data, oErr, trailing)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as\n%#v\noracle:\n%#v", data, fast, want)
			}
			// Exactness, one way: the scanner may call exact bytes
			// inexact, never the reverse.
			if enc, _ := encodeCanonical(fast); exact && !bytes.Equal(enc, data) {
				t.Fatalf("fast path reported %q exact; the encoder writes %q", data, enc)
			}
		}
		checkPrefix(t, data)
		got, err := Decode(data)
		shared, sErr := DecodeShared(data)
		if !reflect.DeepEqual(shared, got) || fmt.Sprint(sErr) != fmt.Sprint(err) {
			t.Fatalf("DecodeShared(%q) = %v, %v; Decode %v, %v", data, shared, sErr, got, err)
		}
		verbatim, exact, vErr := DecodeVerbatim(data)
		if !reflect.DeepEqual(verbatim, got) || fmt.Sprint(vErr) != fmt.Sprint(err) {
			t.Fatalf("DecodeVerbatim(%q) = %v, %v; Decode %v, %v", data, verbatim, vErr, got, err)
		}
		if exact {
			if enc, err := Encode(verbatim); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("DecodeVerbatim reported %q exact; Encode writes %q, %v", data, enc, err)
			}
		}
		switch {
		case oErr != nil:
			if err == nil || err.Error() != "decode signature: "+oErr.Error() {
				t.Fatalf("Decode(%q) error %v; oracle %v", data, err, oErr)
			}
			return
		case trailing:
			if err == nil {
				t.Fatalf("Decode(%q) accepted trailing bytes", data)
			}
			return
		}
		if vErr := want.Valid(); vErr != nil {
			if err == nil || err.Error() != fmt.Sprintf("decode signature: %v", vErr) {
				t.Fatalf("Decode(%q) error %v; oracle invalid: %v", data, err, vErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Decode(%q) = %v; oracle accepted", data, err)
		}
		want.Normalize()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%q) =\n%#v\noracle:\n%#v", data, got, want)
		}
	})
}

// checkPrefix holds DecodePrefix to DecodeShared on data: what it
// decodes is DecodeShared's value for the bytes up to the end it
// reports, and it declines nothing that decodeCanonical takes whole as a
// valid signature.
func checkPrefix(t *testing.T, data []byte) {
	t.Helper()
	if s, end := DecodePrefix(data); s != nil {
		want, err := DecodeShared(data[:end])
		if err != nil || !reflect.DeepEqual(s, want) {
			t.Fatalf("DecodePrefix(%q) = %v up to %d; DecodeShared of those bytes %v, %v", data, s, end, want, err)
		}
	}
	if whole, ok, _ := decodeCanonical(data, true); ok && whole.Valid() == nil {
		s, end := DecodePrefix(data)
		if trimmed := len(bytes.TrimRight(data, " \t\r\n")); s == nil || end != trimmed {
			t.Fatalf("DecodePrefix(%q) = %v up to %d; the canonical signature ends at %d", data, s, end, trimmed)
		}
	}
}
