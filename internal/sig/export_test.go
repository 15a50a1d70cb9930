package sig

// EncodeCanonical exposes the appending encoder to the external tests,
// which need sigtest (an importer of this package).
var EncodeCanonical = encodeCanonical

// decodeCanonical is the canonical parser alone over the whole of data
// (whole): ok false for anything outside the canonical subset, exact
// as DecodeVerbatim reports it before thread order is judged.
func decodeCanonical(data []byte, shared bool) (s *Signature, ok, exact bool) {
	d := newDecoder(data, shared)
	defer d.release()
	s, exact = d.whole(false)
	return s, s != nil, exact
}
