package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"communix/internal/wire"
)

// rawSession is a protocol-v2 session driven frame by frame: the load
// generator's own client, so that request pacing and in-flight depth
// are the benchmark's decisions, not the product client's. One
// goroutine may send while another receives.
type rawSession struct {
	conn   net.Conn
	wc     *wire.Conn
	nextID uint64
}

// openSession dials and negotiates protocol v2.
func openSession(dial func() (net.Conn, error)) (*rawSession, error) {
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s := &rawSession{conn: conn, wc: wire.NewConn(conn), nextID: 1}
	resp, err := s.roundTrip(wire.NewHello(0))
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("session: hello: %w", err)
	}
	if resp.Status != wire.StatusOK || resp.Version < wire.V2 {
		conn.Close()
		return nil, fmt.Errorf("session: server refused protocol v2 (%s, version %d)", resp.Status, resp.Version)
	}
	return s, nil
}

// send writes one request under a fresh id and returns the id.
func (s *rawSession) send(req wire.Request) (uint64, error) {
	req.ID = s.nextID
	s.nextID++
	return req.ID, s.wc.Send(req)
}

// replyTimeout is how long a session waits for the next frame while
// requests are outstanding. A reply that takes longer is lost as far as
// the benchmark is concerned: the requests still outstanding count as
// failed operations.
const replyTimeout = 10 * time.Second

// recv reads the next frame, reply or push. timedOut reports that none
// arrived within replyTimeout.
func (s *rawSession) recv() (resp wire.Response, timedOut bool, err error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return resp, false, err
	}
	err = s.wc.Recv(&resp)
	return resp, errors.Is(err, os.ErrDeadlineExceeded), err
}

// roundTrip sends one request and waits for its reply, skipping pushes.
func (s *rawSession) roundTrip(req wire.Request) (wire.Response, error) {
	id, err := s.send(req)
	if err != nil {
		return wire.Response{}, err
	}
	for {
		resp, _, err := s.recv()
		if err != nil {
			return wire.Response{}, err
		}
		if resp.ID == id {
			return resp, nil
		}
	}
}

func (s *rawSession) close() { s.conn.Close() }
