package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/txn"
)

// The op table declares every protocol op once: its name, where
// ode-router sends it, and — for the built-ins — the transaction it needs
// and what a server session does with it. The session dispatches through
// it, the shard router routes by it, and the doc-coverage test checks
// that docs/PROTOCOL.md and docs/SHARDING.md describe every row, so
// adding an op is one row here plus its doc lines.

// Route says where ode-router sends an op (docs/SHARDING.md, "Routing").
// The zero Route goes nowhere: the router answers it as unroutable.
type Route uint8

const (
	RouteRef    Route = iota + 1 // the ring owner of Request.Ref
	RouteID                      // the ring owner of Request.ID
	RouteCreate                  // one shard, chosen round-robin
	RouteFanout                  // every shard; the router merges the answers
	RouteLocal                   // answered by the router itself
	RouteReject                  // refused at the router with Op.Reject
)

// txNeed is what a built-in op requires of its session's transaction.
type txNeed uint8

const (
	noTx    txNeed = iota // sessionless (or begin, which opens one)
	openTx                // an open transaction
	writeTx               // an open transaction that is not a snapshot
)

// ErrIngestViaRouter rejects a shard.ingest sent through the router:
// the op is shard-to-shard (each batch is bound to one origin/owner
// pair) and cannot be meaningfully split by a relay.
var ErrIngestViaRouter = errors.New("shard: shard.ingest must be sent to the owning shard directly, not through the router")

// ErrReplViaRouter rejects a repl.* op sent through the router: each
// shard replicates on its own, so a replica (or an operator) dials the
// shard it follows.
var ErrReplViaRouter = errors.New("shard: repl.* ops must be sent to a shard directly, not through the router; replicate each shard by dialing it")

// Op is one row of the op table.
type Op struct {
	Name  string
	Route Route
	// Reject is the typed error a RouteReject row answers with at the
	// router.
	Reject error
	tx     txNeed
	// handle runs a built-in op on the session's database; an error
	// becomes the failure response. A nil handle marks a deployment row:
	// its handler is bound by name through Options.ExtraOps (shard.Ops,
	// repl.Hub.Ops, repl.Replica.Ops), and a server without the binding
	// answers "unknown op".
	handle func(sess *session, req *Request) (*Response, error)
}

// Binding is a deployment's handler for one of the table's deployment
// rows; exactly one of its fields is set.
type Binding struct {
	// Answer replies to one sessionless request. It runs with no
	// transaction attached and must not retain req.
	Answer func(req *Request) *Response
	// Stream takes the connection over after the request line (JSON
	// protocol only; over ODE2 the op fails with ErrStreamOverBinary).
	Stream StreamHandler
}

// OpTable returns every row, in table order.
func OpTable() []Op { return append([]Op(nil), opTable...) }

// LookupOp returns the row named name.
func LookupOp(name string) (Op, bool) {
	op, ok := opIndex[name]
	return op, ok
}

var opTable = []Op{
	{Name: "begin", Route: RouteLocal, handle: func(sess *session, req *Request) (*Response, error) {
		if sess.tx != nil && sess.tx.State() == txn.Active {
			return nil, errors.New("transaction already open")
		}
		var err error
		if req.Snapshot {
			sess.tx, err = sess.db.BeginSnapshot()
		} else {
			sess.tx = sess.db.Begin()
		}
		return &Response{OK: true}, err
	}},
	{Name: "commit", Route: RouteLocal, tx: openTx, handle: func(sess *session, _ *Request) (*Response, error) {
		err := sess.tx.Commit()
		sess.tx = nil
		return &Response{OK: true}, err
	}},
	{Name: "abort", Route: RouteLocal, tx: openTx, handle: func(sess *session, _ *Request) (*Response, error) {
		err := sess.tx.Abort()
		sess.tx = nil
		return &Response{OK: true}, err
	}},
	{Name: "create", Route: RouteCreate, tx: writeTx, handle: func(sess *session, req *Request) (*Response, error) {
		bc, ok := sess.db.ClassOf(req.Class)
		if !ok {
			return nil, fmt.Errorf("unknown class %q", req.Class)
		}
		val := bc.Def.NewInstance()
		if len(req.Value) > 0 {
			if err := json.Unmarshal(req.Value, val); err != nil {
				return nil, fmt.Errorf("decode value: %w", err)
			}
		}
		ref, err := sess.db.Create(sess.tx, req.Class, val)
		return &Response{OK: true, Ref: uint64(ref.OID())}, err
	}},
	{Name: "get", Route: RouteRef, tx: openTx, handle: func(sess *session, req *Request) (*Response, error) {
		v, err := sess.db.Get(sess.tx, core.RefFromOID(storage.OID(req.Ref)))
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(v)
		return &Response{OK: true, Value: raw}, err
	}},
	// invoke needs no write transaction: read-only methods are legal on a
	// snapshot, and the engine rejects mutators itself.
	{Name: "invoke", Route: RouteRef, tx: openTx, handle: func(sess *session, req *Request) (*Response, error) {
		ret, err := sess.db.Invoke(sess.tx, core.RefFromOID(storage.OID(req.Ref)), req.Method, req.Args...)
		return &Response{OK: true, Result: ret}, err
	}},
	{Name: "post", Route: RouteRef, tx: writeTx, handle: func(sess *session, req *Request) (*Response, error) {
		return &Response{OK: true}, sess.db.PostUserEvent(sess.tx, core.RefFromOID(storage.OID(req.Ref)), req.Event)
	}},
	{Name: "activate", Route: RouteRef, tx: writeTx, handle: func(sess *session, req *Request) (*Response, error) {
		id, err := sess.db.Activate(sess.tx, core.RefFromOID(storage.OID(req.Ref)), req.Trigger, req.Args...)
		return &Response{OK: true, ID: uint64(id.OID())}, err
	}},
	// Trigger-state objects are minted by the anchor's shard, so the
	// trigger id's OID routes like any other ref.
	{Name: "deactivate", Route: RouteID, tx: writeTx, handle: func(sess *session, req *Request) (*Response, error) {
		return &Response{OK: true}, sess.db.Deactivate(sess.tx, core.TriggerIDFromOID(storage.OID(req.ID)))
	}},
	{Name: "triggers", Route: RouteRef, tx: openTx, handle: func(sess *session, req *Request) (*Response, error) {
		infos, err := sess.db.ActiveTriggers(sess.tx, core.RefFromOID(storage.OID(req.Ref)))
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(infos)
		return &Response{OK: true, Value: raw}, err
	}},
	{Name: "clusteradd", Route: RouteRef, tx: writeTx, handle: func(sess *session, req *Request) (*Response, error) {
		return &Response{OK: true}, sess.db.ClusterAdd(sess.tx, req.Cluster, core.RefFromOID(storage.OID(req.Ref)))
	}},
	{Name: "scan", Route: RouteFanout, tx: openTx, handle: func(sess *session, req *Request) (*Response, error) {
		var refs []uint64
		err := sess.db.ClusterScan(sess.tx, req.Cluster, func(r core.Ref) error {
			refs = append(refs, uint64(r.OID()))
			return nil
		})
		return &Response{OK: true, Refs: refs}, err
	}},
	// The full observability snapshot: every registered counter and
	// histogram (docs/OBSERVABILITY.md documents each name), tagged with
	// this node's provenance label so merged fleet views stay
	// attributable.
	{Name: "metrics", Route: RouteFanout, handle: func(sess *session, _ *Request) (*Response, error) {
		return &Response{OK: true, Result: obs.TagMetrics(sess.nodeLabel(), sess.db.Observability().Snapshot())}, nil
	}},
	// Export the firing-trace ring, oldest first, node-tagged, after
	// applying the rate grammar (applyTraceRate).
	{Name: "trace", Route: RouteFanout, handle: func(sess *session, req *Request) (*Response, error) {
		if err := sess.applyTraceRate(req.Rate); err != nil {
			return nil, err
		}
		return &Response{OK: true, Result: obs.TagTraces(sess.nodeLabel(), sess.db.Tracer().Snapshot())}, nil
	}},
	// Set (or just read, rate 0) the sampling rate without paying for a
	// ring snapshot, and ack with this node's resulting rate. The router
	// broadcasts it to every shard and reports per-shard acks.
	{Name: "trace.rate", Route: RouteFanout, handle: func(sess *session, req *Request) (*Response, error) {
		if err := sess.applyTraceRate(req.Rate); err != nil {
			return nil, err
		}
		return &Response{OK: true, Result: TraceRateAck{Node: sess.nodeLabel(), Rate: sess.db.Tracer().Rate()}}, nil
	}},
	// Serve the cause-chain view: raw → this node's flat chain events
	// (traces, cause-carrying incidents, outbox hops); otherwise the tree
	// assembled for req.Cause. The router fans the raw form out to every
	// shard and assembles fleet-wide.
	{Name: "trace.chain", Route: RouteFanout, handle: func(sess *session, req *Request) (*Response, error) {
		evs := chainEvents(sess.db)
		if req.Raw {
			return &Response{OK: true, Result: ChainEvents{Events: evs}}, nil
		}
		if _, ok := obs.ParseCause(req.Cause); !ok {
			return nil, fmt.Errorf("%w: got %q", ErrInvalidChainCause, req.Cause)
		}
		return &Response{OK: true, Result: obs.AssembleChain(req.Cause, evs)}, nil
	}},
	// Export the process-wide flight recorder's ring, oldest first,
	// tagged with the serving node's label. The recorder is always on.
	{Name: "flight", Route: RouteFanout, handle: func(sess *session, _ *Request) (*Response, error) {
		return &Response{OK: true, Result: obs.TagIncidents(sess.nodeLabel(), obs.Flight().Snapshot())}, nil
	}},
	// Report the transport this very connection negotiated plus the
	// front's wire counters (ode-inspect -wire).
	{Name: "proto", Route: RouteLocal, handle: func(sess *session, _ *Request) (*Response, error) {
		return &Response{OK: true, Result: sess.srv.front.ProtoStatus(sess.proto)}, nil
	}},

	// Deployment rows, bound through Options.ExtraOps.
	{Name: "shard.ingest", Route: RouteReject, Reject: ErrIngestViaRouter},
	{Name: "shard.status", Route: RouteFanout},
	{Name: "repl.subscribe", Route: RouteReject, Reject: ErrReplViaRouter},
	{Name: "repl.recon", Route: RouteReject, Reject: ErrReplViaRouter},
	{Name: "repl.status", Route: RouteReject, Reject: ErrReplViaRouter},
	{Name: "repl.promote", Route: RouteReject, Reject: ErrReplViaRouter},
	{Name: "repl.verify", Route: RouteReject, Reject: ErrReplViaRouter},
}

// opIndex finds a row by name.
var opIndex = func() map[string]Op {
	m := make(map[string]Op, len(opTable))
	for _, op := range opTable {
		m[op.Name] = op
	}
	return m
}()
