package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

// ErrRemoteAborted reports that the server rolled the transaction back
// (tabort from a trigger, or deadlock victimization).
var ErrRemoteAborted = errors.New("server: transaction aborted")

// ErrClosed reports a call on a Client after Close.
var ErrClosed = errors.New("server: client closed")

// RedirectError reports a write rejected by a read replica, carrying
// the primary's address so callers can re-issue the request there.
type RedirectError struct {
	Primary string
	Msg     string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("server: read-only replica (primary at %s): %s", e.Primary, e.Msg)
}

// respError maps a non-OK response onto the client's typed errors. It
// is shared by both transports so a caller cannot tell from the error
// which protocol carried the request.
func respError(resp *Response) error {
	if resp.OK {
		return nil
	}
	if resp.Redirect != "" {
		return &RedirectError{Primary: resp.Redirect, Msg: resp.Error}
	}
	if resp.Aborted {
		return fmt.Errorf("%w: %s", ErrRemoteAborted, resp.Error)
	}
	if strings.HasPrefix(resp.Error, ErrRequestTooLarge.Error()) {
		return fmt.Errorf("%w: %s", ErrRequestTooLarge, strings.TrimPrefix(resp.Error, ErrRequestTooLarge.Error()+": "))
	}
	return errors.New(resp.Error)
}

// Backoff produces capped exponential waits: Base, 2*Base, 4*Base, ...
// up to Max. The zero value is usable (defaults 10ms..1s). It is shared
// by the client redial loop and the replication reconnect loop.
type Backoff struct {
	Base time.Duration // first wait (default 10ms)
	Max  time.Duration // cap (default 1s)
	next time.Duration
}

// Next returns the wait before the upcoming retry and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if b.next <= 0 {
		b.next = base
	}
	d := b.next
	if d > max {
		d = max
	}
	b.next = d * 2
	return d
}

// Reset restarts the schedule from Base (call after a success).
func (b *Backoff) Reset() { b.next = 0 }

// ClientOptions hardens a client against a flaky server/network.
type ClientOptions struct {
	// RequestTimeout, when positive, bounds each call's send+receive; an
	// expired deadline drops the connection (the next call redials).
	RequestTimeout time.Duration
	// DialAttempts is how many times a call may try to (re)establish the
	// connection before giving up, with capped exponential backoff
	// between tries. Default 1: fail fast, exactly like the pre-options
	// client.
	DialAttempts int
	// RedialBase/RedialMax shape the backoff between dial attempts
	// (defaults 10ms / 1s).
	RedialBase time.Duration
	RedialMax  time.Duration
	// Binary upgrades the connection to the ODE2 binary framing
	// (docs/PROTOCOL.md): length-prefixed frames with request IDs,
	// which is what makes Go (send-without-waiting pipelining) overlap
	// requests instead of degenerating to one in flight. Zero value
	// keeps the newline-delimited JSON protocol.
	Binary bool
}

// Client is a single-session client: one connection, at most one open
// transaction — an "application" in the paper's sense. A transport
// failure (send/receive error, request timeout) drops the connection;
// the next call transparently redials with capped backoff. Redialing
// never re-sends the failed request — the server may or may not have
// executed it, and any transaction open on the old connection has been
// aborted server-side — so callers retry at the transaction level.
//
// With ClientOptions.Binary the same API runs over ODE2 framing, and
// Go additionally pipelines: requests are written without waiting and
// responses matched by request ID. Synchronous methods remain not safe
// for concurrent use (one session is one single-threaded application);
// overlapping work wants either Go or a Mux.
type Client struct {
	ops // Begin/Commit/Invoke/... op wrappers, shared with MuxSession

	addr string
	opts ClientOptions

	// JSON transport.
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder

	// Binary transport.
	w *wire

	dialed     bool // a connection has existed at some point
	closed     bool
	reconnects int
}

// Dial connects to an Ode server with default options (fail-fast, no
// timeouts, JSON protocol).
func Dial(addr string) (*Client, error) { return DialOptions(addr, ClientOptions{}) }

// DialOptions connects to an Ode server, retrying the initial dial per
// opts.DialAttempts.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	if opts.DialAttempts <= 0 {
		opts.DialAttempts = 1
	}
	c := &Client{addr: addr, opts: opts}
	c.ops = ops{c: c}
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close drops the connection (the server aborts any open transaction).
func (c *Client) Close() error {
	c.closed = true
	if c.w != nil {
		c.w.fail(ErrClosed)
		c.w = nil
		return nil
	}
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Reconnects counts how many times the client re-established its
// connection after the initial dial.
func (c *Client) Reconnects() int { return c.reconnects }

// dropConn discards a connection known (or suspected) broken; the next
// call redials.
func (c *Client) dropConn() {
	if c.w != nil {
		c.w.fail(errors.New("server: connection dropped"))
		c.w = nil
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// ensureConn (re)establishes the connection, waiting with capped
// exponential backoff between attempts.
func (c *Client) ensureConn() error {
	if c.closed {
		return ErrClosed
	}
	if c.w != nil && c.w.broken() {
		c.w = nil // background transport failure: redial below
	}
	if c.conn != nil || c.w != nil {
		return nil
	}
	bo := Backoff{Base: c.opts.RedialBase, Max: c.opts.RedialMax}
	var err error
	for i := 0; i < c.opts.DialAttempts; i++ {
		if i > 0 {
			time.Sleep(bo.Next())
		}
		if c.opts.Binary {
			var w *wire
			w, err = dialWire(c.addr, c.opts.RequestTimeout)
			if err == nil {
				if c.dialed {
					c.reconnects++
				}
				c.dialed = true
				c.w = w
				return nil
			}
			if errors.Is(err, ErrBinaryDisabled) {
				break // the server will refuse every retry the same way
			}
			continue
		}
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", c.addr, c.opts.RequestTimeout)
		if err == nil {
			if c.dialed {
				c.reconnects++
			}
			c.dialed = true
			c.conn = conn
			c.enc = json.NewEncoder(conn)
			c.dec = json.NewDecoder(bufio.NewReader(conn))
			return nil
		}
	}
	return fmt.Errorf("server: dial %s: %w", c.addr, err)
}

func (c *Client) call(req *Request) (*Response, error) {
	if c.opts.Binary {
		call := c.Go(req)
		return c.await(call)
	}
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	if c.opts.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	}
	if err := c.enc.Encode(req); err != nil {
		c.dropConn()
		return nil, fmt.Errorf("server: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		c.dropConn()
		return nil, fmt.Errorf("server: recv: %w", err)
	}
	if c.opts.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
	return &resp, respError(&resp)
}

// await applies RequestTimeout to a pipelined call. A timeout is a
// transport failure — the response may yet arrive, but at-most-once
// means we must not leave it matchable — so the whole connection drops,
// failing the call (and everything else in flight).
func (c *Client) await(call *Call) (*Response, error) {
	if c.opts.RequestTimeout <= 0 {
		return call.Wait()
	}
	select {
	case <-call.Done():
	case <-time.After(c.opts.RequestTimeout):
		c.dropConn()
	}
	return call.Wait()
}

// Go sends req without waiting for the response: the returned Call
// completes when the response frame arrives (binary protocol), letting
// a caller keep many requests in flight on one session — per-session
// responses still arrive in order. On the JSON protocol there is no
// request ID to match a response by, so Go degrades to a synchronous
// round trip whose Call is already complete.
func (c *Client) Go(req *Request) *Call {
	if !c.opts.Binary {
		resp, err := c.call(req)
		call := newCall(req)
		call.complete(resp, err)
		return call
	}
	if err := c.ensureConn(); err != nil {
		call := newCall(req)
		call.complete(nil, err)
		return call
	}
	return c.w.send(0, req)
}

// caller is the transport hook behind the shared op wrappers: Client
// and MuxSession each route call through their own session/connection.
type caller interface {
	call(req *Request) (*Response, error)
}

// ops implements the op-level API — one wrapper per wire op — shared by
// Client and MuxSession so the two session kinds cannot drift apart.
type ops struct {
	c caller
}

// Begin opens a transaction.
func (o ops) Begin() error {
	_, err := o.c.call(&Request{Op: "begin"})
	return err
}

// BeginSnapshot opens a lock-free read-only snapshot transaction:
// reads see the store as of the pinned commit LSN, and every mutating
// op fails with the server's snapshot-write error until Commit/Abort.
func (o ops) BeginSnapshot() error {
	_, err := o.c.call(&Request{Op: "begin", Snapshot: true})
	return err
}

// Commit commits the open transaction.
func (o ops) Commit() error {
	_, err := o.c.call(&Request{Op: "commit"})
	return err
}

// Abort rolls the open transaction back.
func (o ops) Abort() error {
	_, err := o.c.call(&Request{Op: "abort"})
	return err
}

// Create makes a persistent object from a JSON-encodable value.
func (o ops) Create(class string, value any) (uint64, error) {
	raw, err := json.Marshal(value)
	if err != nil {
		return 0, err
	}
	resp, err := o.c.call(&Request{Op: "create", Class: class, Value: raw})
	if err != nil {
		return 0, err
	}
	return resp.Ref, nil
}

// Get loads an object's state into out (a JSON-decodable pointer).
func (o ops) Get(ref uint64, out any) error {
	resp, err := o.c.call(&Request{Op: "get", Ref: ref})
	if err != nil {
		return err
	}
	return json.Unmarshal(resp.Value, out)
}

// Invoke calls a member function through the persistent reference.
func (o ops) Invoke(ref uint64, method string, args ...any) (any, error) {
	resp, err := o.c.call(&Request{Op: "invoke", Ref: ref, Method: method, Args: args})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// PostUserEvent posts a declared user event.
func (o ops) PostUserEvent(ref uint64, event string) error {
	_, err := o.c.call(&Request{Op: "post", Ref: ref, Event: event})
	return err
}

// Activate activates a trigger and returns its id.
func (o ops) Activate(ref uint64, trigger string, args ...any) (uint64, error) {
	resp, err := o.c.call(&Request{Op: "activate", Ref: ref, Trigger: trigger, Args: args})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Deactivate removes a trigger activation.
func (o ops) Deactivate(id uint64) error {
	_, err := o.c.call(&Request{Op: "deactivate", ID: id})
	return err
}

// ActiveTriggers lists activations on ref as raw JSON.
func (o ops) ActiveTriggers(ref uint64) (json.RawMessage, error) {
	resp, err := o.c.call(&Request{Op: "triggers", Ref: ref})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// ClusterAdd adds ref to a cluster.
func (o ops) ClusterAdd(cluster string, ref uint64) error {
	_, err := o.c.call(&Request{Op: "clusteradd", Cluster: cluster, Ref: ref})
	return err
}

// ClusterScan lists a cluster's members.
func (o ops) ClusterScan(cluster string) ([]uint64, error) {
	resp, err := o.c.call(&Request{Op: "scan", Cluster: cluster})
	if err != nil {
		return nil, err
	}
	return resp.Refs, nil
}

// Call sends an arbitrary request — the escape hatch for the op table's
// deployment rows (repl.status, repl.promote) bound through
// Options.ExtraOps.
func (o ops) Call(req *Request) (*Response, error) { return o.c.call(req) }

// Session is the op-level API every client session implements: a
// single-connection Client or one MuxSession of a shared-connection
// Mux. The cross-protocol equivalence tests run the whole server suite
// against each implementation.
type Session interface {
	Begin() error
	BeginSnapshot() error
	Commit() error
	Abort() error
	Create(class string, value any) (uint64, error)
	Get(ref uint64, out any) error
	Invoke(ref uint64, method string, args ...any) (any, error)
	PostUserEvent(ref uint64, event string) error
	Activate(ref uint64, trigger string, args ...any) (uint64, error)
	Deactivate(id uint64) error
	ActiveTriggers(ref uint64) (json.RawMessage, error)
	ClusterAdd(cluster string, ref uint64) error
	ClusterScan(cluster string) ([]uint64, error)
	Call(req *Request) (*Response, error)
	Go(req *Request) *Call
	Close() error
}

var (
	_ Session = (*Client)(nil)
	_ Session = (*MuxSession)(nil)
)
