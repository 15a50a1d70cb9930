package sig

// EncodeCanonical exposes the appending encoder to the external tests,
// which need sigtest (an importer of this package).
var EncodeCanonical = encodeCanonical
