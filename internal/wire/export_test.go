package wire

// Hooks for the external tests, which import the benchmark's generators
// (importers of this package).
var (
	CanonicalFrame  = canonicalFrame
	DecodeCanonical = decodeCanonical
)

// ClearDecoded drops the signatures the frame decoder decoded on read,
// which json.Unmarshal never sets, so r compares with its value.
func ClearDecoded(r *Response) { r.decoded = nil }
