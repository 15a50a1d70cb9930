// Package jsonscan finds the end of a run of plain bytes inside a JSON
// string eight bytes at a time. Plain bytes are the ones json.Marshal
// copies into a string unchanged and that neither end nor escape it:
// printable ASCII other than '"', '\\', '<', '>' and '&'. The string
// scanners of the wire and signature codecs skip such runs with Plain
// and judge each other byte one at a time.
package jsonscan

import "math/bits"

const (
	ones = 0x0101010101010101
	high = 0x8080808080808080
)

// stops sets the high bit of every byte of w that is not plain and
// clears every other bit. Each byte is judged on its own: the bytes of a
// are below 0x80, so adding at most 0x7F to each never carries into the
// next, and a + 0x60 has its high bit set exactly where a is at least
// 0x20.
func stops(w uint64) uint64 {
	a := w &^ high
	plain := (a + 0x60*ones) & // not a control byte
		nonzero((a|0x04*ones)^0x26*ones) & // not '"' (0x22) or '&' (0x26)
		nonzero((a|0x02*ones)^0x3E*ones) & // not '<' (0x3C) or '>' (0x3E)
		nonzero(a^0x5C*ones) // not '\\'
	return (w | ^plain) & high // a byte at or above 0x80 stops on its own bit
}

// nonzero sets the high bit of every byte of x that is not zero; every
// byte of x must be below 0x80.
func nonzero(x uint64) uint64 { return x + 0x7F*ones }

// load reads the first eight bytes of s as a little-endian word. The
// byte loads combine into one.
func load[T string | []byte](s T) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Plain returns the length of the longest prefix of s made of plain
// bytes: the index of the first byte that is not, or len(s).
func Plain[T string | []byte](s T) int {
	n := len(s)
	for ; len(s) >= 8; s = s[8:] {
		if m := stops(load(s)); m != 0 {
			return n - len(s) + bits.TrailingZeros64(m)/8
		}
	}
	for i := 0; i < len(s); i++ {
		if stops(uint64(s[i]))&0x80 != 0 {
			return n - len(s) + i
		}
	}
	return n
}
