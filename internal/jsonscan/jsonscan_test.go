package jsonscan

import (
	"bytes"
	"testing"
)

// plainByte is the per-byte definition Plain must agree with.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// TestPlainEveryByteEveryOffset puts each byte value at each offset
// 0–15 of plain buffers of every length up to 24 — so the byte lands in
// the first word, the second, or the per-byte tail — and requires Plain
// to stop exactly where a byte-at-a-time scan stops.
func TestPlainEveryByteEveryOffset(t *testing.T) {
	for n := 0; n <= 24; n++ {
		for off := 0; off < 16 && off < n; off++ {
			for c := 0; c < 256; c++ {
				b := bytes.Repeat([]byte{'a'}, n)
				b[off] = byte(c)
				want := n
				if !plainByte(byte(c)) {
					want = off
				}
				if got := Plain(b); got != want {
					t.Fatalf("Plain(%q) = %d, want %d", b, got, want)
				}
				if got := Plain(string(b)); got != want {
					t.Fatalf("Plain(string %q) = %d, want %d", b, got, want)
				}
			}
		}
	}
}

// TestPlainFirstOfSeveral: with several stop bytes in one word, Plain
// reports the first, whatever follows it.
func TestPlainFirstOfSeveral(t *testing.T) {
	for off := 0; off < 8; off++ {
		for c := 0; c < 256; c++ {
			if plainByte(byte(c)) {
				continue
			}
			b := []byte("abcdefghijklmnop")
			b[off] = byte(c)
			for j := off + 1; j < len(b); j++ {
				b[j] = byte(c) ^ byte(j)
			}
			if got := Plain(b); got != off {
				t.Fatalf("Plain(%q) = %d, want %d", b, got, off)
			}
		}
	}
}

var sink int

func BenchmarkPlain(b *testing.B) {
	s := []byte(`app/proto/Flows1","method":"flow_a_v3_12"`)
	for b.Loop() {
		sink += Plain(s)
	}
}
