package trace

import (
	"bytes"
	"encoding/binary"
	"net"
	"strconv"
	"sync"
	"time"
)

// Frame is one length-prefixed protocol frame a Tap saw cross a socket.
type Frame struct {
	// At is when the frame crossed: for an outbound frame, when the
	// program handed its first byte to the socket; for an inbound one,
	// when the program had read its last byte.
	At time.Time
	// Out is true for client→server frames.
	Out bool
	// Bytes is the frame's size on the wire, header included.
	Bytes int
	// head keeps the first bytes of the JSON payload, enough to read the
	// envelope fields (type, id, status) after the run.
	head    [headLen]byte
	headLen int
}

const headLen = 64

// Message types and the PUSH marker of the wire protocol, as they appear
// in a frame's envelope.
const (
	TypeAdd  = 1
	TypePing = 5
	TypePush = 6
)

// field reads the integer value of a top-level envelope field from the
// kept payload prefix; ok is false when the prefix does not hold it.
func (f *Frame) field(name string) (int, bool) {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(f.head[:f.headLen], key)
	if i < 0 {
		return 0, false
	}
	rest := f.head[i+len(key) : f.headLen]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	v, err := strconv.Atoi(string(rest[:end]))
	return v, err == nil
}

// Type is the envelope's message type: the request type of an outbound
// frame, TypePush for a server-initiated inbound frame, 0 for a reply.
func (f *Frame) Type() int {
	v, _ := f.field("type")
	return v
}

// ID is the request id the frame carries (0 on PUSH frames).
func (f *Frame) ID() int {
	v, _ := f.field("id")
	return v
}

// FrameLog collects the frames of every connection one party opens.
type FrameLog struct {
	mu     sync.Mutex
	frames []Frame
}

// Frames returns the frames seen so far, in the order they crossed.
func (l *FrameLog) Frames() []Frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Frame(nil), l.frames...)
}

// Bytes sums the wire size of the frames matching keep.
func (l *FrameLog) Bytes(keep func(*Frame) bool) (frames, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.frames {
		if keep(&l.frames[i]) {
			frames++
			bytes += l.frames[i].Bytes
		}
	}
	return frames, bytes
}

// Dial wraps a dialer so that every connection it opens is tapped into
// the log. It fits NodeConfig.Dial and client.Config.Dial.
func (l *FrameLog) Dial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &tap{Conn: c, log: l, in: splitter{}, out: splitter{out: true}}, nil
	}
}

// tap is a net.Conn that follows the frame boundaries of both byte
// streams without altering or delaying them.
type tap struct {
	net.Conn
	log *FrameLog
	// in is touched only by the reading goroutine, out only under the
	// writer's own serialization, as net.Conn users must already ensure.
	in, out splitter
}

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.in.feed(p[:n], time.Now(), t.log)
	}
	return n, err
}

func (t *tap) Write(p []byte) (int, error) {
	t.out.feed(p, time.Now(), t.log)
	return t.Conn.Write(p)
}

// splitter cuts one direction's byte stream into frames: a four-byte
// big-endian length, then that many payload bytes.
type splitter struct {
	out  bool
	hdr  [4]byte
	hdrN int
	left int // payload bytes still to come
	cur  Frame
}

func (s *splitter) feed(p []byte, now time.Time, log *FrameLog) {
	for len(p) > 0 {
		if s.left == 0 && s.hdrN < 4 {
			if s.hdrN == 0 {
				s.cur = Frame{Out: s.out, At: now}
			}
			n := copy(s.hdr[s.hdrN:], p)
			s.hdrN += n
			p = p[n:]
			if s.hdrN < 4 {
				return
			}
			s.left = int(binary.BigEndian.Uint32(s.hdr[:]))
			s.cur.Bytes = 4 + s.left
			if s.left > 0 {
				continue
			}
		}
		n := len(p)
		if n > s.left {
			n = s.left
		}
		if s.cur.headLen < headLen {
			s.cur.headLen += copy(s.cur.head[s.cur.headLen:], p[:n])
		}
		s.left -= n
		p = p[n:]
		if s.left == 0 {
			if !s.out {
				s.cur.At = now
			}
			log.mu.Lock()
			log.frames = append(log.frames, s.cur)
			log.mu.Unlock()
			s.hdrN = 0
		}
	}
}
