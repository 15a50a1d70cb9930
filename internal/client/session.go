// Managed connection: the client side of a session (docs/PROTOCOL.md).
// dialSession opens a connection and negotiates the session with HELLO;
// a reader goroutine then matches responses to round trips by request
// ID and hands server-initiated PUSH frames to the caller. A server that
// refuses the HELLO fails the dial, so the caller's rotation moves on to
// the next peer. A managed value caches one session and re-dials it.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"communix/internal/wire"
)

// errSessionClosed reports use of a session after close or failure.
var errSessionClosed = errors.New("client: session closed")

// errClientClosed reports a session requested after Client.Close.
var errClientClosed = errors.New("client: closed")

// errServerBusy marks a HELLO the server refused with StatusBusy: it is
// at its session cap. Upload treats it as a busy ADD.
var errServerBusy = errors.New("server busy")

// session is one managed connection to the server.
type session struct {
	conn net.Conn
	wc   *wire.Conn
	// Replication fields from the HELLO reply: the server's promotion
	// epoch, its role ("primary" or "follower"), the primary's advertised
	// address, and — when our epoch was older — the fence our local
	// state must not exceed.
	epoch   uint64
	role    string
	primary string
	fence   int

	// writeMu serializes frame writes.
	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wire.Response
	err     error

	// onPush receives server-initiated frames (ID 0) on the reader
	// goroutine; it must be fast and must not call back into the
	// session.
	onPush func(wire.Response)

	done     chan struct{}
	failOnce sync.Once
}

// handshakeTimeout bounds the HELLO round trip on a fresh connection.
const handshakeTimeout = 30 * time.Second

// dialSession establishes a connection and opens a session, announcing
// the caller's last-adopted promotion epoch in the HELLO. Any HELLO
// reply but ok at version 2 or later fails the dial; a busy one wraps
// errServerBusy. onPush may be nil when the caller never subscribes.
func dialSession(dial func() (net.Conn, error), onPush func(wire.Response), epoch uint64) (*session, error) {
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("client: dial: %w", err)
	}
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	s := &session{
		conn:    conn,
		wc:      wire.NewConn(conn),
		nextID:  2, // HELLO used 1
		pending: make(map[uint64]chan wire.Response),
		onPush:  onPush,
		done:    make(chan struct{}),
	}
	hello, err := s.wc.Hello(epoch, "")
	if err != nil {
		conn.Close()
		if hello.Status == wire.StatusBusy {
			return nil, fmt.Errorf("client: hello: %w: %s", errServerBusy, hello.Detail)
		}
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	s.epoch, s.role, s.primary, s.fence = hello.Epoch, hello.Role, hello.Primary, hello.Fence
	go s.readLoop()
	return s, nil
}

// alive reports whether the session can still carry requests.
func (s *session) alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err == nil
}

// close tears the session down; safe to call more than once.
func (s *session) close() { s.fail(errSessionClosed) }

// fail marks the session dead with err, closes the connection (which
// unblocks the reader), and wakes every in-flight round trip through the
// done channel.
func (s *session) fail(err error) {
	s.failOnce.Do(func() {
		s.mu.Lock()
		s.err = err
		s.pending = nil
		s.mu.Unlock()
		s.conn.Close()
		close(s.done)
	})
}

// failErr returns the error the session died with.
func (s *session) failErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		return errSessionClosed
	}
	return s.err
}

// readLoop demultiplexes inbound frames: responses are matched to their
// round trip by ID, ID-0 frames are server pushes.
func (s *session) readLoop() {
	for {
		var resp wire.Response
		if err := s.wc.Recv(&resp); err != nil {
			s.fail(fmt.Errorf("client: session read: %w", err))
			return
		}
		if resp.ID == 0 {
			if s.onPush != nil {
				s.onPush(resp)
			}
			continue
		}
		s.mu.Lock()
		ch := s.pending[resp.ID]
		delete(s.pending, resp.ID)
		s.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// roundTrip performs one request/response exchange, bounded by timeout.
// Any transport failure (including the timeout) kills the session — the
// caller discards it and dials a fresh one.
func (s *session) roundTrip(req wire.Request, timeout time.Duration) (wire.Response, error) {
	ch := make(chan wire.Response, 1)
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return wire.Response{}, err
	}
	id := s.nextID
	s.nextID++
	s.pending[id] = ch
	s.mu.Unlock()
	req.ID = id

	s.writeMu.Lock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := s.wc.Send(req)
	s.writeMu.Unlock()
	if err != nil {
		err = fmt.Errorf("client: send: %w", err)
		s.fail(err)
		return wire.Response{}, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-s.done:
		return wire.Response{}, s.failErr()
	case <-timer.C:
		err := fmt.Errorf("client: %s timed out after %v", req.Type, timeout)
		s.fail(err)
		return wire.Response{}, err
	}
}

// managed caches one session — the client's read rotation or its
// redirected primary — dialed lazily and re-dialed when the cached one
// died or was dialed for another address. After close, get refuses: a
// session dialed then would outlive the client with nobody left to tear
// it down. get dials under the lock, so a dial in flight completes and
// caches before close can run, and close then tears it down.
type managed struct {
	mu     sync.Mutex
	s      *session
	addr   string
	closed bool
}

// get returns the cached session if it is alive and was dialed for addr;
// otherwise it closes the cached one and caches what dial(addr) opens.
func (m *managed) get(addr string, dial func(addr string) (*session, error)) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClientClosed
	}
	if m.s != nil && m.addr == addr && m.s.alive() {
		return m.s, nil
	}
	if m.s != nil {
		m.s.close()
		m.s = nil
	}
	s, err := dial(addr)
	if err != nil {
		return nil, err
	}
	m.s, m.addr = s, addr
	return s, nil
}

// discard closes s, uncaching it if it is still the cached session.
func (m *managed) discard(s *session) {
	m.mu.Lock()
	if m.s == s {
		m.s = nil
	}
	m.mu.Unlock()
	s.close()
}

// fail kills whatever session is cached with err, so the next get
// re-dials. Safe to call from that session's own reader goroutine.
func (m *managed) fail(err error) {
	m.mu.Lock()
	s := m.s
	m.s = nil
	m.mu.Unlock()
	if s != nil {
		s.fail(err)
	}
}

// close tears the cached session down, unblocking any round trips in
// flight on it, and bars future dials.
func (m *managed) close() {
	m.mu.Lock()
	m.closed = true
	s := m.s
	m.s = nil
	m.mu.Unlock()
	if s != nil {
		s.close()
	}
}
