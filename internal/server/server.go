// Package server exposes an Ode database to multiple concurrent client
// applications over TCP, completing the §7 "global composite events"
// story in live form: the paper's composite events "may span more than
// one application" because TriggerStates live in the database — here,
// several network clients interleave transactions against one Database
// and jointly advance each other's trigger patterns.
//
// Two protocols share the listen port (docs/PROTOCOL.md is the
// canonical spec for both). The default is newline-delimited JSON: each
// connection is one session holding at most one open transaction (the
// O++ execution model: a client is a single-threaded application), one
// request in flight at a time. A client whose first four bytes are
// "ODE2" upgrades the connection to length-prefixed binary framing
// (frame.go) with request IDs, pipelining, and multiplexed sessions —
// same ops, same JSON payloads, framed instead of line-delimited.
//
// The package is one connection layer, one op table and two kinds of
// session. Front (front.go, binary.go) owns everything about a
// connection — accept and drain, the protocol sniff, both codecs,
// per-session FIFO, the coalescing writer, limits, idle deadlines, panic
// isolation, wire counters — and hands each session's requests to a
// SessionHandler. The op table (ops.go) declares every op once. A
// Server's handler (this file) dispatches ops through it against its
// database; the shard router's (internal/shard) forwards them where the
// table routes them. Both listen through the same Front, so a client
// cannot tell the two apart by how the connection behaves.
//
// Class definitions — Go functions — cannot travel over the wire; the
// server binary links the application's classes, exactly as an Ode
// application links the object manager (§2).
//
// Request:  {"op":"invoke","ref":18,"method":"Buy","args":[100]}
// Response: {"ok":true,"result":...}  or  {"ok":false,"error":"..."}
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/txn"
)

// MaxTraceRate bounds the trace op's sampling rate: one trace per 2³²
// postings is already indistinguishable from off, and anything larger
// is a client bug (or an overflowed computation) worth rejecting.
const MaxTraceRate = 1 << 32

// ErrInvalidTraceRate reports a trace op whose rate is neither -1
// (disable), 0 (leave unchanged), nor 1..MaxTraceRate.
var ErrInvalidTraceRate = errors.New("server: invalid trace rate (want -1 to disable, 0 to leave unchanged, or 1..2^32)")

// ErrInvalidChainCause reports a trace.chain op whose cause is not a
// parseable cause ID (and raw was not set).
var ErrInvalidChainCause = errors.New(`server: invalid trace.chain cause (want "%016x-%d" form, or raw:true for flat events)`)

// ErrSnapshotWrite reports a mutating op sent on a session whose open
// transaction is a snapshot ({"op":"begin","snapshot":true}): snapshot
// transactions are read-only by construction. Commit (or abort) and
// begin a regular transaction. It mirrors core.ErrReadOnly, but unlike
// the replica gate there is no redirect — the same server accepts the
// write on a regular transaction.
var ErrSnapshotWrite = errors.New("server: transaction is a snapshot (read-only); begin a regular transaction for writes")

// ErrRequestTooLarge reports a request bigger than MaxRequestBytes. On
// the JSON protocol the server sends it as an error response and then
// closes (the line framing can no longer be trusted); on the binary
// protocol the frame header still delimits the request exactly, so the
// payload is skipped, the error response carries the request's id, and
// the connection stays up.
var ErrRequestTooLarge = errors.New("server: request too large")

// ErrBinaryDisabled reports an ODE2 handshake against a server running
// with Options.DisableBinary (ode-server -protocol json). The server
// answers with this error as a JSON response line and closes, so a
// binary client fails fast instead of hanging on the handshake echo.
var ErrBinaryDisabled = errors.New("server: binary protocol disabled (server is JSON-only)")

// ErrStreamOverBinary reports a stream op (a row bound with
// Binding.Stream: repl.subscribe, repl.recon) sent over binary framing.
// Stream ops take over the raw connection with their own frame grammar
// (docs/REPLICATION.md), which cannot nest inside ODE2 frames; dial a
// plain JSON connection instead.
var ErrStreamOverBinary = errors.New("server: stream ops require the JSON protocol")

// Request is one client command.
type Request struct {
	Op      string          `json:"op"`
	Class   string          `json:"class,omitempty"`
	Ref     uint64          `json:"ref,omitempty"`
	Method  string          `json:"method,omitempty"`
	Trigger string          `json:"trigger,omitempty"`
	Event   string          `json:"event,omitempty"`
	Cluster string          `json:"cluster,omitempty"`
	ID      uint64          `json:"id,omitempty"` // trigger id for deactivate; scoping catalog class ID on repl.recon (0 = whole store)
	Args    []any           `json:"args,omitempty"`
	Value   json.RawMessage `json:"value,omitempty"` // object payload for create
	Rate    int64           `json:"rate,omitempty"`  // trace op: >0 sets 1-in-n sampling, <0 disables, 0 leaves unchanged
	LSN     uint64          `json:"lsn,omitempty"`   // stream ops: resume position (repl.subscribe)
	// Recon, on repl.subscribe, offers anti-entropy reconciliation for
	// an out-of-range resume instead of a full snapshot bootstrap.
	Recon bool `json:"recon,omitempty"`
	// Repair, on repl.verify, authorizes in-place repair of whatever
	// divergence the audit confirms.
	Repair bool `json:"repair,omitempty"`
	// Snapshot, on begin, opens a lock-free read-only snapshot
	// transaction instead of a regular one; mutating ops on the session
	// then fail with ErrSnapshotWrite until commit/abort.
	Snapshot bool `json:"snapshot,omitempty"`
	// Origin and Events, on shard.ingest, carry a batch of remote event
	// notifications from the named origin shard (docs/SHARDING.md).
	Origin uint64             `json:"origin,omitempty"`
	Events []core.RemoteEvent `json:"events,omitempty"`
	// Cause, on trace.chain, is the root cause ID whose cascade to
	// assemble (the "%016x-%d" form cause IDs are rendered in).
	Cause string `json:"cause,omitempty"`
	// Raw, on trace.chain, skips assembly and returns this node's flat
	// chain events; the router uses it to collect from every shard
	// before assembling fleet-wide.
	Raw bool `json:"raw,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK       bool            `json:"ok"`
	Error    string          `json:"error,omitempty"`
	Aborted  bool            `json:"aborted,omitempty"`  // txn rolled back (tabort/deadlock)
	Redirect string          `json:"redirect,omitempty"` // write hit a read replica: retry against this primary address
	Ref      uint64          `json:"ref,omitempty"`
	ID       uint64          `json:"id,omitempty"`
	Refs     []uint64        `json:"refs,omitempty"`
	Result   any             `json:"result,omitempty"`
	Value    json.RawMessage `json:"value,omitempty"`
	// Watermark, on shard.ingest, acknowledges every event with
	// seq <= Watermark from the requesting origin (docs/SHARDING.md).
	Watermark uint64 `json:"watermark,omitempty"`
}

// StreamHandler takes over a connection after its request line: the
// handler owns reads and writes until it returns, and the connection is
// closed afterwards. Idle timeouts are cleared first — a streaming
// subscriber is expected to sit quiet for long stretches.
type StreamHandler func(conn net.Conn, req *Request) error

// DefaultMaxRequestBytes caps a single request line when Options leaves
// MaxRequestBytes zero.
const DefaultMaxRequestBytes = 1 << 20

// Options hardens a server against misbehaving clients.
type Options struct {
	// MaxRequestBytes caps one request line; an oversized request gets
	// an error response and the connection is closed. Default
	// DefaultMaxRequestBytes.
	MaxRequestBytes int
	// IdleTimeout, when positive, is the per-connection read deadline
	// between requests: a client silent for longer is disconnected (its
	// open transaction aborted) instead of pinning a handler goroutine
	// and its locks forever.
	IdleTimeout time.Duration
	// DrainTimeout, when positive, makes Close graceful: idle readers
	// are nudged with an expired read deadline, in-flight handlers get
	// up to this long to write their response and exit, and only the
	// stragglers are hard-closed.
	DrainTimeout time.Duration
	// PrimaryAddr, set on a read replica, is attached as Response.
	// Redirect whenever a request fails with core.ErrReadOnly, so
	// clients learn where writes go without out-of-band configuration.
	PrimaryAddr string
	// ExtraOps binds the op table's deployment rows (shard.*, repl.*) by
	// name: shard.Ops, repl.Hub.Ops, repl.Replica.Ops. Binding a name
	// that is not a deployment row panics in NewWithOptions.
	ExtraOps map[string]Binding
	// DisableBinary refuses the ODE2 handshake (ode-server
	// -protocol json): a client attempting the upgrade gets
	// ErrBinaryDisabled as a JSON response line and the connection is
	// closed. The JSON protocol is unaffected.
	DisableBinary bool
}

// Server serves one database to many connections: a Front whose
// sessions run ops against the database.
type Server struct {
	opts  Options
	front *Front
}

// New wraps db in a server with default options.
func New(db *core.Database) *Server { return NewWithOptions(db, Options{}) }

// NewWithOptions wraps db in a server with explicit hardening limits and
// deployment bindings.
func NewWithOptions(db *core.Database, opts Options) *Server {
	for name := range opts.ExtraOps {
		if op, ok := opIndex[name]; !ok || op.handle != nil {
			panic(fmt.Sprintf("server: ExtraOps binds %q, which is not a deployment row of the op table", name))
		}
	}
	s := &Server{opts: opts}
	s.front = NewFront(db.Observability(), opts, func(proto string, _ ReplyFunc) SessionHandler {
		return &session{srv: s, db: db, proto: proto}
	})
	return s
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving happens on background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	go s.front.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and shuts connections down, gracefully when
// Options.DrainTimeout is set (Front.Close has the details). It waits
// for every handler.
func (s *Server) Close() error { return s.front.Close() }

// session is one connection's (or, over binary framing, one sid's)
// state: the SessionHandler that answers every request synchronously.
type session struct {
	srv   *Server
	db    *core.Database
	tx    *txn.Txn
	proto string // negotiated transport, "json" or "binary" (the proto op reports it)
}

// Handle implements SessionHandler through the op table: a built-in row
// runs against the database once the session's transaction meets the
// row's need; a deployment row runs the Answer bound to it, sessionless.
func (sess *session) Handle(_ uint64, req *Request) *Response {
	op, ok := opIndex[req.Op]
	if !ok || op.handle == nil {
		if answer := sess.srv.opts.ExtraOps[req.Op].Answer; answer != nil {
			return answer(req)
		}
		return sess.fail(fmt.Errorf("unknown op %q", req.Op))
	}
	if err := sess.need(op.tx); err != nil {
		return sess.fail(err)
	}
	resp, err := op.handle(sess, req)
	if err != nil {
		return sess.fail(err)
	}
	return resp
}

// Drain implements SessionHandler; nothing is ever deferred.
func (sess *session) Drain() {}

// Abort implements SessionHandler: the open transaction, if any, is
// rolled back.
func (sess *session) Abort() bool {
	open := sess.tx != nil && sess.tx.State() == txn.Active
	if open {
		sess.tx.Abort()
	}
	sess.tx = nil
	return open
}

func (sess *session) fail(err error) *Response {
	r := &Response{Error: err.Error()}
	if errors.Is(err, core.ErrSnapshotWrite) {
		// One wire message for every snapshot-write rejection, whether
		// the session gate caught it (need) or the engine did (invoke of
		// a mutating method).
		r.Error = ErrSnapshotWrite.Error()
	}
	if errors.Is(err, txn.ErrAborted) {
		r.Aborted = true
	}
	if sess.srv.opts.PrimaryAddr != "" && errors.Is(err, core.ErrReadOnly) {
		r.Redirect = sess.srv.opts.PrimaryAddr
	}
	return r
}

// need checks the session's transaction against a row's txNeed. The
// snapshot gate rejects mutating ops up front with the typed error,
// rather than leaking the txn-layer refusal from deeper in the call.
func (sess *session) need(n txNeed) error {
	switch {
	case n == noTx:
		return nil
	case sess.tx == nil || sess.tx.State() != txn.Active:
		return errors.New("no open transaction (send begin first)")
	case n == writeTx && sess.tx.IsSnapshot():
		return ErrSnapshotWrite
	}
	return nil
}

// nodeLabel is the serving database's provenance node rendered in the
// fixed 16-hex form cause IDs use, stamped into metrics/trace/flight
// results so fleet merges stay attributable.
func (sess *session) nodeLabel() string {
	return obs.NodeLabel(sess.db.Causes().Node())
}

// applyTraceRate applies the shared trace/trace.rate rate grammar: rate
// > 0 sets 1-in-rate sampling (1 = every posting), -1 disables tracing,
// 0 leaves the rate untouched. Anything else — other negatives, rates
// past MaxTraceRate — is a typed error rather than a silently
// misconfigured sampler.
func (sess *session) applyTraceRate(rate int64) error {
	switch {
	case rate == 0:
	case rate == -1:
		sess.db.Tracer().SetRate(0)
	case rate > 0 && rate <= MaxTraceRate:
		sess.db.Tracer().SetRate(uint64(rate))
	default:
		return fmt.Errorf("%w: got %d", ErrInvalidTraceRate, rate)
	}
	return nil
}

// chainEvents collects one node's flat cause-chain material: sampled
// firing traces, cause-carrying flight incidents, and committed outbox
// entries (the sending half of cross-shard hops, empty on an unsharded
// database).
func chainEvents(db *core.Database) []obs.ChainEvent {
	label := obs.NodeLabel(db.Causes().Node())
	evs := obs.TraceChainEvents(label, db.Tracer().Snapshot())
	evs = append(evs, obs.IncidentChainEvents(label, obs.Flight().Snapshot())...)
	for _, e := range db.OutboxSnapshot() {
		evs = append(evs, obs.ChainEvent{
			Node:        label,
			Kind:        obs.ChainHop,
			Cause:       e.Cause().String(),
			ParentCause: e.Parent,
			Detail:      fmt.Sprintf("outbox %s for oid %d (awaiting forward)", e.Event, e.Target),
		})
	}
	return evs
}

// TraceRateAck is the trace.rate op's result: the answering node and
// the sampling rate now in effect there. Documented in
// docs/PROTOCOL.md.
type TraceRateAck struct {
	Node string `json:"node"`
	Rate uint64 `json:"rate"`
}

// ChainEvents wraps the flat chain-event list a raw trace.chain
// returns, so the result is a JSON object (extensible) rather than a
// bare array.
type ChainEvents struct {
	Events []obs.ChainEvent `json:"events"`
}

// ProtoStatus is the proto op's result: which transport the asking
// connection negotiated, and the server-wide wire counters. Every JSON
// field here is documented in docs/PROTOCOL.md (enforced by the
// protocol doc-coverage test).
type ProtoStatus struct {
	Protocol        string `json:"protocol"` // "json" or "binary"
	BinaryEnabled   bool   `json:"binary_enabled"`
	MaxRequestBytes int    `json:"max_request_bytes"`
	ConnsJSON       uint64 `json:"conns_json"`
	ConnsBinary     uint64 `json:"conns_binary"`
	FramesIn        uint64 `json:"frames_in"`
	FramesOut       uint64 `json:"frames_out"`
	BytesIn         uint64 `json:"bytes_in"`
	BytesOut        uint64 `json:"bytes_out"`
}
