package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ode/internal/obs"
)

// Front is the connection layer every Ode listener runs: accept and
// track connections, sniff the ODE2 upgrade, decode requests with the
// line-JSON codec or the frame codec (binary.go), hand each session's
// requests to its SessionHandler in order, and write the responses
// back. Request limits, idle deadlines, oversize and malformed-request
// handling, panic isolation, graceful drain and the server.* wire
// counters live here and nowhere else; a front differs from another
// only in what its sessions do with a request — a Server's session runs
// ops against its database, a shard router's session forwards them.
type Front struct {
	opts       Options
	newSession func(proto string, reply ReplyFunc) SessionHandler
	m          *serverMetrics

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// SessionHandler is what one session — a JSON connection, or one sid of
// a binary connection — does with its requests. The front calls it from
// a single goroutine, in arrival order.
type SessionHandler interface {
	// Handle answers one request by returning its response. A session
	// that pipelines (the router's relay) may instead return nil and
	// deliver the response later through the ReplyFunc it was created
	// with: in request order, and no later than its next Drain.
	Handle(id uint64, req *Request) *Response
	// Drain tells the session its queue ran dry — nothing further is
	// waiting behind the request just handled — so every deferred
	// response must be delivered before Drain returns.
	Drain()
	// Abort rolls back the session's open transaction, delivering
	// anything deferred first, and reports whether one was open. The
	// front calls it on a close frame, a disconnect, and a handler
	// panic; the session must stay usable for a fresh begin.
	Abort() bool
}

// ReplyFunc delivers a response a SessionHandler deferred; id is the
// one Handle was given.
type ReplyFunc func(id uint64, resp *Response)

// NewFront builds a connection layer whose wire counters register in
// reg. Of opts it reads the limits (MaxRequestBytes, IdleTimeout,
// DrainTimeout), DisableBinary and the Stream bindings in ExtraOps;
// PrimaryAddr and the Answer bindings are session matters. newSession is
// called once per session with the negotiated protocol, "json" or
// "binary".
func NewFront(reg *obs.Registry, opts Options, newSession func(proto string, reply ReplyFunc) SessionHandler) *Front {
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = DefaultMaxRequestBytes
	}
	return &Front{
		opts:       opts,
		newSession: newSession,
		m:          newServerMetrics(reg),
		conns:      make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close, serving each on its own
// goroutine. It blocks; it returns nil once Close has run, the accept
// error otherwise. A front that is already closed closes ln and says so.
func (f *Front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ln.Close()
		return errors.New("server: front closed")
	}
	f.listener = ln
	f.wg.Add(1)
	f.mu.Unlock()
	defer f.wg.Done()
	for {
		conn, err := ln.Accept()
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			f.mu.Unlock()
			return err
		}
		f.conns[conn] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			f.serve(conn)
			f.mu.Lock()
			delete(f.conns, conn)
			f.mu.Unlock()
		}()
	}
}

// Close stops the listener and shuts connections down. With a
// DrainTimeout it first gives sessions that long to finish their
// in-flight response (idle readers are woken by an expired read
// deadline and exit cleanly); connections still alive after the grace
// period — and all of them when DrainTimeout is zero — are hard-closed,
// aborting their open transactions. Close waits for every handler.
func (f *Front) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return nil
	}
	f.closed = true
	ln := f.listener
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	if f.opts.DrainTimeout > 0 {
		now := time.Now()
		for _, c := range conns {
			c.SetReadDeadline(now)
		}
		done := make(chan struct{})
		go func() { f.wg.Wait(); close(done) }()
		select {
		case <-done:
			return err
		case <-time.After(f.opts.DrainTimeout):
		}
	}
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
	return err
}

// ProtoStatus is the proto op's answer for a session that negotiated
// proto: the front's limits and its wire counters.
func (f *Front) ProtoStatus(proto string) ProtoStatus {
	return ProtoStatus{
		Protocol:        proto,
		BinaryEnabled:   !f.opts.DisableBinary,
		MaxRequestBytes: f.opts.MaxRequestBytes,
		ConnsJSON:       f.m.connsJSON.Value(),
		ConnsBinary:     f.m.connsBinary.Value(),
		FramesIn:        f.m.framesIn.Value(),
		FramesOut:       f.m.framesOut.Value(),
		BytesIn:         f.m.bytesIn.Value(),
		BytesOut:        f.m.bytesOut.Value(),
	}
}

// serve sniffs the protocol for one connection — the first four bytes
// upgrade to binary framing if they are the ODE2 magic (every JSON
// request line starts with '{', so the magic cannot collide) — and runs
// the matching request loop.
func (f *Front) serve(conn net.Conn) {
	defer conn.Close()
	if f.opts.IdleTimeout > 0 {
		// Cover the handshake sniff itself; the per-protocol loops
		// re-arm the deadline per request.
		conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
	}
	br := bufio.NewReader(&countingReader{r: conn, c: f.m.bytesIn})
	cw := &countingWriter{w: conn, c: f.m.bytesOut}
	if magic, err := br.Peek(len(protoMagic)); err == nil && string(magic) == protoMagic {
		if f.opts.DisableBinary {
			json.NewEncoder(cw).Encode(&Response{Error: ErrBinaryDisabled.Error()})
			return
		}
		br.Discard(len(protoMagic))
		if _, err := cw.Write([]byte(protoMagic)); err != nil {
			return
		}
		f.m.connsBinary.Inc()
		f.serveBinary(conn, br, cw)
		return
	}
	f.m.connsJSON.Inc()
	f.serveJSON(conn, br, cw)
}

// serveJSON runs the newline-delimited JSON request loop: one session,
// one request at a time. Requests are read a line at a time so the size
// cap applies before any JSON is parsed.
func (f *Front) serveJSON(conn net.Conn, br *bufio.Reader, cw *countingWriter) {
	enc := json.NewEncoder(cw)
	var werr error
	reply := func(_ uint64, resp *Response) {
		if werr == nil {
			werr = enc.Encode(resp)
		}
	}
	sess := f.newSession("json", reply)
	defer sess.Abort()
	var buf []byte
	for werr == nil {
		if f.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
		}
		line, err := readLine(br, buf[:0], f.opts.MaxRequestBytes)
		if err == ErrRequestTooLarge {
			// Typed so clients can match it; then hang up — with the
			// oversized line half-consumed, line framing is gone.
			f.m.oversized.Inc()
			reply(0, &Response{Error: fmt.Sprintf("%v: exceeds %d bytes", ErrRequestTooLarge, f.opts.MaxRequestBytes)})
			return
		}
		buf = line
		if line = bytes.TrimSpace(line); len(line) == 0 {
			if err != nil {
				return // disconnect or idle deadline
			}
			continue
		}
		req, stream, malformed := f.decode(line)
		if malformed != nil {
			// Can't trust the framing anymore: report and hang up.
			reply(0, malformed)
			return
		}
		if stream != nil {
			// The handler owns the connection from here. Clear the idle
			// deadline: a subscriber may legitimately send nothing for
			// the rest of the connection's life.
			conn.SetReadDeadline(time.Time{})
			if err := stream(&streamConn{Conn: conn, br: br}, req); err != nil {
				reply(0, &Response{Error: err.Error()})
			}
			return
		}
		if resp := safeHandle(sess, 0, req); resp != nil {
			reply(0, resp)
		}
		sess.Drain() // one request in flight at a time: the queue is always dry
	}
}

// decode parses one request payload, identically for both codecs: a
// payload that is not a Request comes back as the error response to
// send, a stream op comes back with the handler that wants the
// connection.
func (f *Front) decode(payload []byte) (*Request, StreamHandler, *Response) {
	req := new(Request)
	if err := json.Unmarshal(payload, req); err != nil {
		return nil, nil, &Response{Error: "malformed request: " + err.Error()}
	}
	return req, f.opts.ExtraOps[req.Op].Stream, nil
}

// readLine appends the next newline-terminated request to buf and
// returns it, newline included. A final unterminated line comes back
// with the read error; a line longer than max is ErrRequestTooLarge.
func readLine(br *bufio.Reader, buf []byte, max int) ([]byte, error) {
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > max+1 { // +1: the newline is framing, not request
			return buf, ErrRequestTooLarge
		}
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// streamConn is the connection a StreamHandler takes over. Its reads
// drain the sniffing reader first, so bytes the client sent right
// behind the request line reach the handler instead of dying in the
// buffer.
type streamConn struct {
	net.Conn
	br *bufio.Reader
}

func (c *streamConn) Read(p []byte) (int, error) { return c.br.Read(p) }

// safeHandle isolates a handler panic (a bad type assertion in an
// application method, say) to the request that caused it: the session's
// open transaction is aborted, the client gets an error response, and
// the front — and every other session — keeps running.
func safeHandle(sess SessionHandler, id uint64, req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Error: fmt.Sprintf("internal error in %q handler: %v", req.Op, r), Aborted: sess.Abort()}
		}
	}()
	return sess.Handle(id, req)
}
