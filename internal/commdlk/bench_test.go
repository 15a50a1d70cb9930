package commdlk

import (
	"math/rand"
	"testing"

	"communix/internal/dimmunix"
	"communix/internal/sig/sigtest"
)

// BenchmarkChanSendRecv times one Send and one Recv on a capacity-1
// channel, from one goroutine, under two histories:
//
//   - unmatched: 256 mutex signatures and none at the channel's sites,
//     the shape of lockpath's per-iteration channel op;
//   - matched: a channel signature one of whose outer stacks ends at the
//     send's site while its other slot stays empty, so the send passes
//     the threat check, its deposit occupies the slot, and the recv that
//     drains the deposit gives the slot back.
func BenchmarkChanSendRecv(b *testing.B) {
	for _, tc := range []struct {
		name    string
		history func() *dimmunix.History
		send    func(*Chan[int]) error
	}{
		{"unmatched", func() *dimmunix.History {
			r, h := rand.New(rand.NewSource(1)), dimmunix.NewHistory()
			for i := range 256 {
				h.Add(sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 5, 9))
			}
			return h
		}, func(c *Chan[int]) error { return c.Send(1) }},
		{"matched", func() *dimmunix.History {
			h := dimmunix.NewHistory()
			h.Add(windowSignature(b))
			return h
		}, windowFillA},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rt := NewRuntime(dimmunix.NewRuntime(dimmunix.Config{History: tc.history()}), Config{})
			defer rt.Close()
			c := NewChan[int](rt, "bench", 1)
			b.ReportAllocs()
			for b.Loop() {
				if err := tc.send(c); err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			if st := rt.Stats(); st.Yields != 0 || st.Blocked != 0 {
				b.Fatalf("%d yields and %d blocked ops; want none", st.Yields, st.Blocked)
			}
		})
	}
}
