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
// The package is one connection layer and two kinds of session. Front
// (front.go, binary.go) owns everything about a connection — accept and
// drain, the protocol sniff, both codecs, per-session FIFO, the
// coalescing writer, limits, idle deadlines, panic isolation, wire
// counters — and hands each session's requests to a SessionHandler. A
// Server's handler (this file) dispatches ops against its database; the
// shard router's (internal/shard) forwards them to the owning shard.
// Both listen through the same Front, so a client cannot tell the two
// apart by how the connection behaves.
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
	"ode/internal/storage"
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

// ErrStreamOverBinary reports a StreamOps op (repl.subscribe,
// repl.recon) sent over binary framing. Stream ops take over the raw
// connection with their own frame grammar (docs/REPLICATION.md), which
// cannot nest inside ODE2 frames; dial a plain JSON connection instead.
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
	// ExtraOps adds sessionless ops (admin/introspection; the repl
	// status and promote ops) dispatched before the built-ins. The
	// handler runs with no transaction attached and must not retain req.
	ExtraOps map[string]func(req *Request) *Response
	// StreamOps adds connection-consuming ops (the repl subscribe op):
	// after the request line the handler owns the connection and the
	// normal request loop never resumes.
	StreamOps map[string]StreamHandler
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

// NewWithOptions wraps db in a server with explicit hardening limits.
func NewWithOptions(db *core.Database, opts Options) *Server {
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

// Handle implements SessionHandler. ExtraOps are sessionless and
// dispatched before the built-ins.
func (sess *session) Handle(_ uint64, req *Request) *Response {
	if fn, ok := sess.srv.opts.ExtraOps[req.Op]; ok {
		return fn(req)
	}
	return sess.handle(req)
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
		// the session gate caught it (needWriteTx) or the engine did
		// (invoke of a mutating method).
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

// handle dispatches one request.
func (sess *session) handle(req *Request) *Response {
	switch req.Op {
	case "begin":
		if sess.tx != nil && sess.tx.State() == txn.Active {
			return sess.fail(errors.New("transaction already open"))
		}
		if req.Snapshot {
			tx, err := sess.db.BeginSnapshot()
			if err != nil {
				return sess.fail(err)
			}
			sess.tx = tx
			return &Response{OK: true}
		}
		sess.tx = sess.db.Begin()
		return &Response{OK: true}
	case "commit":
		if err := sess.needTx(); err != nil {
			return sess.fail(err)
		}
		err := sess.tx.Commit()
		sess.tx = nil
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true}
	case "abort":
		if err := sess.needTx(); err != nil {
			return sess.fail(err)
		}
		err := sess.tx.Abort()
		sess.tx = nil
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true}
	case "create":
		if err := sess.needWriteTx(); err != nil {
			return sess.fail(err)
		}
		bc, ok := sess.db.ClassOf(req.Class)
		if !ok {
			return sess.fail(fmt.Errorf("unknown class %q", req.Class))
		}
		val := bc.Def.NewInstance()
		if len(req.Value) > 0 {
			if err := json.Unmarshal(req.Value, val); err != nil {
				return sess.fail(fmt.Errorf("decode value: %w", err))
			}
		}
		ref, err := sess.db.Create(sess.tx, req.Class, val)
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true, Ref: uint64(ref.OID())}
	case "get":
		if err := sess.needTx(); err != nil {
			return sess.fail(err)
		}
		v, err := sess.db.Get(sess.tx, core.RefFromOID(storage.OID(req.Ref)))
		if err != nil {
			return sess.fail(err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true, Value: raw}
	case "invoke":
		if err := sess.needTx(); err != nil {
			return sess.fail(err)
		}
		ret, err := sess.db.Invoke(sess.tx, core.RefFromOID(storage.OID(req.Ref)), req.Method, req.Args...)
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true, Result: ret}
	case "post":
		if err := sess.needWriteTx(); err != nil {
			return sess.fail(err)
		}
		if err := sess.db.PostUserEvent(sess.tx, core.RefFromOID(storage.OID(req.Ref)), req.Event); err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true}
	case "activate":
		if err := sess.needWriteTx(); err != nil {
			return sess.fail(err)
		}
		id, err := sess.db.Activate(sess.tx, core.RefFromOID(storage.OID(req.Ref)), req.Trigger, req.Args...)
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true, ID: uint64(id.OID())}
	case "deactivate":
		if err := sess.needWriteTx(); err != nil {
			return sess.fail(err)
		}
		id := core.TriggerIDFromOID(storage.OID(req.ID))
		if err := sess.db.Deactivate(sess.tx, id); err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true}
	case "triggers":
		if err := sess.needTx(); err != nil {
			return sess.fail(err)
		}
		infos, err := sess.db.ActiveTriggers(sess.tx, core.RefFromOID(storage.OID(req.Ref)))
		if err != nil {
			return sess.fail(err)
		}
		raw, err := json.Marshal(infos)
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true, Value: raw}
	case "clusteradd":
		if err := sess.needWriteTx(); err != nil {
			return sess.fail(err)
		}
		if err := sess.db.ClusterAdd(sess.tx, req.Cluster, core.RefFromOID(storage.OID(req.Ref))); err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true}
	case "scan":
		if err := sess.needTx(); err != nil {
			return sess.fail(err)
		}
		var refs []uint64
		err := sess.db.ClusterScan(sess.tx, req.Cluster, func(r core.Ref) error {
			refs = append(refs, uint64(r.OID()))
			return nil
		})
		if err != nil {
			return sess.fail(err)
		}
		return &Response{OK: true, Refs: refs}
	case "metrics":
		// The full observability snapshot: every registered counter and
		// histogram (docs/OBSERVABILITY.md documents each name), tagged
		// with this node's provenance label so merged fleet views stay
		// attributable. No transaction needed.
		return &Response{OK: true, Result: obs.TagMetrics(sess.nodeLabel(), sess.db.Observability().Snapshot())}
	case "trace":
		// Export the firing-trace ring, oldest first, node-tagged.
		// rate > 0 first sets 1-in-rate sampling (1 = every posting),
		// rate -1 disables tracing, rate 0 leaves the current rate
		// untouched. Anything else — other negatives, rates past
		// MaxTraceRate — used to silently misconfigure the sampler; now
		// it is a typed error.
		if resp := sess.applyTraceRate(req.Rate); resp != nil {
			return resp
		}
		return &Response{OK: true, Result: obs.TagTraces(sess.nodeLabel(), sess.db.Tracer().Snapshot())}
	case "trace.rate":
		// Set (or just read, rate 0) the sampling rate without paying for
		// a ring snapshot, and ack with this node's resulting rate. The
		// router broadcasts it to every shard and reports per-shard acks.
		if resp := sess.applyTraceRate(req.Rate); resp != nil {
			return resp
		}
		return &Response{OK: true, Result: TraceRateAck{Node: sess.nodeLabel(), Rate: sess.db.Tracer().Rate()}}
	case "trace.chain":
		// Serve the cause-chain view: raw → this node's flat chain
		// events (traces, cause-carrying incidents, outbox hops);
		// otherwise the tree assembled for req.Cause. The router fans the
		// raw form out to every shard and assembles fleet-wide.
		evs := chainEvents(sess.db)
		if req.Raw {
			return &Response{OK: true, Result: ChainEvents{Events: evs}}
		}
		if _, ok := obs.ParseCause(req.Cause); !ok {
			return sess.fail(fmt.Errorf("%w: got %q", ErrInvalidChainCause, req.Cause))
		}
		return &Response{OK: true, Result: obs.AssembleChain(req.Cause, evs)}
	case "flight":
		// Export the process-wide flight recorder's ring, oldest first,
		// tagged with the serving node's label. No transaction needed;
		// the recorder is always on.
		return &Response{OK: true, Result: obs.TagIncidents(sess.nodeLabel(), obs.Flight().Snapshot())}
	case "proto":
		// Report the transport this very connection negotiated plus the
		// front's wire counters (ode-inspect -wire). No transaction
		// needed.
		return &Response{OK: true, Result: sess.srv.front.ProtoStatus(sess.proto)}
	default:
		return sess.fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// nodeLabel is the serving database's provenance node rendered in the
// fixed 16-hex form cause IDs use, stamped into metrics/trace/flight
// results so fleet merges stay attributable.
func (sess *session) nodeLabel() string {
	return obs.NodeLabel(sess.db.Causes().Node())
}

// applyTraceRate applies the shared trace/trace.rate rate grammar,
// returning a failure response for invalid rates and nil on success.
func (sess *session) applyTraceRate(rate int64) *Response {
	switch {
	case rate == 0:
	case rate == -1:
		sess.db.Tracer().SetRate(0)
	case rate > 0 && rate <= MaxTraceRate:
		sess.db.Tracer().SetRate(uint64(rate))
	default:
		return sess.fail(fmt.Errorf("%w: got %d", ErrInvalidTraceRate, rate))
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

// BuiltinOps returns the name of every op the session dispatcher
// handles, sorted. It exists so the protocol doc-coverage test (and any
// future introspection surface) enumerates the real dispatch table
// instead of a hand-maintained copy; adding a case to handle() without
// extending this list fails TestBuiltinOpsComplete.
func BuiltinOps() []string {
	return []string{
		"abort", "activate", "begin", "clusteradd", "commit", "create",
		"deactivate", "flight", "get", "invoke", "metrics", "post",
		"proto", "scan", "trace", "trace.chain", "trace.rate", "triggers",
	}
}

func (sess *session) needTx() error {
	if sess.tx == nil || sess.tx.State() != txn.Active {
		return errors.New("no open transaction (send begin first)")
	}
	return nil
}

// needWriteTx is needTx plus the snapshot gate: mutating ops are
// rejected up front on a snapshot session with the typed error, rather
// than leaking the txn-layer refusal from deeper in the call. (invoke is
// not gated here — read-only methods are legal on a snapshot, and the
// engine rejects mutators itself.)
func (sess *session) needWriteTx() error {
	if err := sess.needTx(); err != nil {
		return err
	}
	if sess.tx.IsSnapshot() {
		return ErrSnapshotWrite
	}
	return nil
}
