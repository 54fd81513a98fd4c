package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mux is a shared-connection multiplexing client: N goroutines each own
// a MuxSession (one sid, one open transaction — the same session model
// as a Client) but all sessions ride one TCP connection and one ODE2
// wire. One writer loop coalesces their small request frames, one
// reader loop fans responses back out by request ID, and the server
// processes different sids concurrently — so sessions complete out of
// order without costing a connection each.
//
// A transport failure (or one session's request timeout) fails the
// shared wire and with it every session's in-flight calls; the next
// call on any session transparently redials. As with Client, nothing is
// ever re-sent: each session's open transaction died with the old
// connection, so callers retry at the transaction level.
type Mux struct {
	addr string
	opts ClientOptions

	mu         sync.Mutex
	w          *wire
	nextSid    uint32
	dialed     bool
	reconnects int
	closed     bool
}

// DialMux connects a multiplexing client. The binary protocol is
// implied — multiplexing is meaningless over newline-delimited JSON —
// so opts.Binary is forced on.
func DialMux(addr string, opts ClientOptions) (*Mux, error) {
	if opts.DialAttempts <= 0 {
		opts.DialAttempts = 1
	}
	opts.Binary = true
	m := &Mux{addr: addr, opts: opts}
	if _, err := m.ensureWire(); err != nil {
		return nil, err
	}
	return m, nil
}

// Session allocates a new session (sid) on the shared connection. The
// returned MuxSession is itself single-threaded like a Client, but any
// number of sessions can run concurrently. Sessions are cheap: no
// handshake, no server state until the first request arrives.
func (m *Mux) Session() *MuxSession {
	m.mu.Lock()
	m.nextSid++
	sid := m.nextSid
	m.mu.Unlock()
	s := &MuxSession{m: m, sid: sid}
	s.ops = ops{c: s}
	return s
}

// Reconnects counts how many times the mux re-established its
// connection after the initial dial.
func (m *Mux) Reconnects() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reconnects
}

// Close drops the shared connection; every session's in-flight calls
// fail with ErrClosed and the server aborts their open transactions.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	w := m.w
	m.w = nil
	m.mu.Unlock()
	if w != nil {
		w.fail(ErrClosed)
	}
	return nil
}

// ensureWire (re)establishes the shared connection with the same
// backoff schedule as Client.ensureConn.
func (m *Mux) ensureWire() (*wire, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.w != nil && m.w.broken() {
		m.w = nil
	}
	if m.w != nil {
		return m.w, nil
	}
	bo := Backoff{Base: m.opts.RedialBase, Max: m.opts.RedialMax}
	var err error
	for i := 0; i < m.opts.DialAttempts; i++ {
		if i > 0 {
			time.Sleep(bo.Next())
		}
		var w *wire
		w, err = dialWire(m.addr, m.opts.RequestTimeout)
		if err == nil {
			if m.dialed {
				m.reconnects++
			}
			m.dialed = true
			m.w = w
			return w, nil
		}
		if errors.Is(err, ErrBinaryDisabled) {
			break
		}
	}
	return nil, fmt.Errorf("server: dial %s: %w", m.addr, err)
}

// dropWire discards the shared wire after a request timeout.
func (m *Mux) dropWire(w *wire) {
	w.fail(errors.New("server: connection dropped"))
	m.mu.Lock()
	if m.w == w {
		m.w = nil
	}
	m.mu.Unlock()
}

// MuxSession is one session (sid) on a Mux: at most one open
// transaction, the full Session API, synchronous methods not safe for
// concurrent use — exactly a Client, minus the private connection.
type MuxSession struct {
	ops

	m   *Mux
	sid uint32
}

// SID returns the session's wire id (diagnostics; it appears in frame
// dumps).
func (s *MuxSession) SID() uint32 { return s.sid }

func (s *MuxSession) call(req *Request) (*Response, error) {
	call := s.Go(req)
	return s.Await(call)
}

// Await is call.Wait under the mux's RequestTimeout: how a caller that
// pipelined with Go settles a call with the same timeout contract a
// synchronous Call has.
func (s *MuxSession) Await(call *Call) (*Response, error) {
	if s.m.opts.RequestTimeout <= 0 {
		return call.Wait()
	}
	select {
	case <-call.Done():
	case <-time.After(s.m.opts.RequestTimeout):
		// Same contract as Client: a timeout is a transport failure, and
		// the transport here is shared — every session redials.
		s.m.mu.Lock()
		w := s.m.w
		s.m.mu.Unlock()
		if w != nil {
			s.m.dropWire(w)
		}
	}
	return call.Wait()
}

// Go sends req on the session without waiting; the returned Call
// completes when the response arrives. Requests on one session complete
// in order, requests on different sessions complete as the server
// finishes them.
func (s *MuxSession) Go(req *Request) *Call {
	w, err := s.m.ensureWire()
	if err != nil {
		call := newCall(req)
		call.complete(nil, err)
		return call
	}
	return w.send(s.sid, req)
}

// Close ends the session: the server aborts its open transaction (the
// same contract as a Client disconnect) and retires its state, while
// the shared connection stays up for every other session. Closing a
// session that never sent a request is a no-op server-side.
func (s *MuxSession) Close() error {
	s.m.mu.Lock()
	w := s.m.w
	closed := s.m.closed
	s.m.mu.Unlock()
	if closed || w == nil || w.broken() {
		return nil // no live connection: no server state to retire
	}
	_, err := s.Await(w.sendClose(s.sid))
	return err
}
