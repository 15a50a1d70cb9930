package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, Start: 35, End: 45},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	got := SelfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 30 - 10, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("l", "n", 0, 0)
	r.End(id)
	r.Add("l", "n", 0, 0, time.Now(), time.Now())
	if len(r.Spans()) != 0 || len(r.Summary()) != 0 {
		t.Fatal("nil recorder recorded spans")
	}
	if err := r.WriteFile(filepath.Join(t.TempDir(), "x.json")); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	r := New()
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	for round := int64(0); round < 3; round++ {
		root := r.Add("stage", "round", 0, round, at(0), at(100))
		r.Add("stage", "a", root, round, at(0), at(30))
		r.Add("stage", "b", root, round, at(30), at(90))
	}
	id := r.Begin("store", "getpage", 0, 0)
	r.EndUnits(id, 256)
	sum := r.Summary()
	if a := sum["stage.round"]; a.Count != 3 || a.Self != 3*10_000 {
		t.Errorf("round: %+v, want 3 spans with 10µs of self time each", a)
	}
	if a := sum["store.getpage"]; a.Units != 256 {
		t.Errorf("getpage units = %d, want 256", a.Units)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

// frame builds one length-prefixed frame.
func frame(payload string) []byte {
	b := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b
}

// TestTapSplitsFrames pushes frames through a tapped connection in
// awkward chunks — headers split across reads, several frames per write,
// one frame far larger than a read buffer — and checks that each is
// logged once with its size, direction and envelope.
func TestTapSplitsFrames(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	var log FrameLog
	conn, err := log.Dial(func() (net.Conn, error) { return client, nil })()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	big := `{"status":1,"type":6,"sigs":["` + string(bytes.Repeat([]byte("x"), 20000)) + `"]}`
	inbound := append(frame(`{"status":1,"id":7}`), frame(big)...)
	inbound = append(inbound, frame(`{"status":2,"id":8,"detail":"no"}`)...)
	go func() {
		// Dribble: 3 bytes, then the rest in 1000-byte pieces.
		srv.Write(inbound[:3])
		for rest := inbound[3:]; len(rest) > 0; {
			n := min(1000, len(rest))
			srv.Write(rest[:n])
			rest = rest[n:]
		}
	}()
	go io.Copy(io.Discard, srv)

	out := append(frame(`{"type":1,"id":7,"token":"t","sig":{}}`), frame(`{"type":5,"id":8}`)...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 700)
	for got := 0; got < len(inbound); {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}

	var in, outb []Frame
	for _, f := range log.Frames() {
		if f.Out {
			outb = append(outb, f)
		} else {
			in = append(in, f)
		}
	}
	if len(outb) != 2 || outb[0].Type() != TypeAdd || outb[0].ID() != 7 || outb[1].Type() != TypePing {
		t.Fatalf("outbound frames: %+v", outb)
	}
	if len(in) != 3 {
		t.Fatalf("logged %d inbound frames, want 3", len(in))
	}
	if in[0].ID() != 7 || in[0].Type() != 0 || in[0].Bytes != 4+len(`{"status":1,"id":7}`) {
		t.Errorf("reply frame: type %d id %d bytes %d", in[0].Type(), in[0].ID(), in[0].Bytes)
	}
	if in[1].Type() != TypePush || in[1].ID() != 0 || in[1].Bytes != 4+len(big) {
		t.Errorf("push frame: type %d id %d bytes %d, want %d bytes", in[1].Type(), in[1].ID(), in[1].Bytes, 4+len(big))
	}
	if in[2].ID() != 8 {
		t.Errorf("third frame id = %d, want 8", in[2].ID())
	}
	n, total := log.Bytes(func(f *Frame) bool { return !f.Out && f.Type() == TypePush })
	if n != 1 || total != 4+len(big) {
		t.Errorf("push bytes = %d in %d frames", total, n)
	}
}
