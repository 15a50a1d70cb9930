package wire

// Hooks for the external tests, which import the benchmark's generators
// (importers of this package).
var (
	CanonicalFrame  = canonicalFrame
	DecodeCanonical = decodeCanonical
)
