package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ode/internal/obs"
	"ode/internal/server"
)

// Router fronts a shard fleet with the same connection layer a server
// listens with (server.Front: both protocols, the same limits, the same
// oversize/malformed/close handling); only what a session does with a
// request differs — an rsession sends each op where its row of the
// server op table routes it and relays the shard's reply verbatim,
// aborted and redirect included. The client-visible contract is the
// single-server one — same ops, same JSON payloads, same session model —
// with documented deviations (docs/SHARDING.md):
//
//   - A transaction that touches several shards commits per shard, in
//     shard order, not atomically: a crash mid-commit can land a prefix.
//   - metrics, trace, flight, trace.rate, trace.chain, and shard.status
//     fan out to every shard and answer with the merged, node-tagged
//     fleet view (metrics folds in the router's own registry and a
//     "fleet" aggregate; docs/OBSERVABILITY.md §"Fleet observability").
//   - repl.* and shard.ingest are refused with a typed error: a shard is
//     replicated, and fed remote events, by dialing it directly.
//
// Backends are one Mux per shard: every front session maps to a lazily
// created MuxSession per shard it touches, so backend connections are
// shared while transaction state stays per-session.
type Router struct {
	ring  *Ring
	opts  RouterOptions
	muxes []*server.Mux
	reg   *obs.Registry
	front *server.Front
	rr    atomic.Uint64

	requests *obs.Counter
	fanouts  *obs.Counter
	rejects  *obs.Counter

	routeNs   *obs.Histogram
	forwardNs *obs.Histogram
	mergeNs   *obs.Histogram
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Addrs lists every shard's listen address, indexed by ring slot.
	Addrs []string
	// Client configures the backend muxes (timeouts, redial policy).
	Client server.ClientOptions
	// MaxRequestBytes caps one front request. Default
	// server.DefaultMaxRequestBytes.
	MaxRequestBytes int
}

// ErrUnknownOp rejects an op that is not a row of the server op table.
var ErrUnknownOp = errors.New("shard: unknown op")

// NewRouter dials the backend muxes and returns a router ready to
// Serve.
func NewRouter(ring *Ring, opts RouterOptions) (*Router, error) {
	if len(opts.Addrs) != ring.Shards() {
		return nil, fmt.Errorf("shard: %d addrs for %d shards", len(opts.Addrs), ring.Shards())
	}
	rt := &Router{ring: ring, opts: opts, reg: obs.NewRegistry()}
	rt.front = server.NewFront(rt.reg, server.Options{MaxRequestBytes: opts.MaxRequestBytes}, func(proto string, reply server.ReplyFunc) server.SessionHandler {
		return &rsession{
			rt:       rt,
			proto:    proto,
			reply:    reply,
			backends: make(map[int]*server.MuxSession),
			touched:  make(map[int]struct{}),
		}
	})
	rt.requests = rt.reg.Counter("shard.route_requests", "count", "client requests routed to a shard")
	rt.fanouts = rt.reg.Counter("shard.route_fanouts", "count", "requests fanned out to every shard")
	rt.rejects = rt.reg.Counter("shard.route_rejects", "count", "requests rejected at the router (typed error)")
	rt.routeNs = rt.reg.Histogram("router.route_ns", "ns", "time to classify a request and ready its backend (lazy transaction join included)")
	rt.forwardNs = rt.reg.Histogram("router.forward_ns", "ns", "time from issuing a forwarded call to settling its response (a pipelined batch settles together)")
	rt.mergeNs = rt.reg.Histogram("router.merge_ns", "ns", "time to merge a fan-out's responses into the fleet view")
	rt.muxes = make([]*server.Mux, ring.Shards())
	for i, addr := range opts.Addrs {
		m, err := server.DialMux(addr, opts.Client)
		if err != nil {
			for _, prev := range rt.muxes[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: dial shard %d at %s: %w", i, addr, err)
		}
		rt.muxes[i] = m
	}
	return rt, nil
}

// Observability exposes the router's metric registry: shard.route_*,
// router.*, and its front's server.* wire counters.
func (rt *Router) Observability() *obs.Registry { return rt.reg }

// Serve accepts front connections on ln until Close. It blocks.
func (rt *Router) Serve(ln net.Listener) error { return rt.front.Serve(ln) }

// Close stops accepting, hangs up every front connection, and closes
// the backend muxes (which aborts any open backend transactions).
func (rt *Router) Close() error {
	err := rt.front.Close()
	for _, m := range rt.muxes {
		m.Close()
	}
	return err
}

// --- routing decisions --------------------------------------------------------

// routeOf looks req's op up in the server op table and returns its row
// — an op that is no row comes back as a reject carrying ErrUnknownOp —
// plus, for the owner routes, the owning shard. Pure: no router state,
// no side effects. Exactly one decision exists per request, which is
// what FuzzRouteRequest leans on: no panic, no double-forward, dest
// always in range.
func routeOf(ring *Ring, req *server.Request) (op server.Op, dest int) {
	op, ok := server.LookupOp(req.Op)
	switch {
	case !ok:
		op = server.Op{Name: req.Op, Route: server.RouteReject, Reject: fmt.Errorf("%w %q", ErrUnknownOp, req.Op)}
	case op.Route == server.RouteRef:
		dest = ring.Owner(req.Ref)
	case op.Route == server.RouteID:
		dest = ring.Owner(req.ID)
	}
	return op, dest
}

// --- per-session dispatch -----------------------------------------------------

// rsession is one front session's routing state — the router's
// server.SessionHandler: which backend MuxSessions it holds, which of
// them have an open transaction, and the forwarded calls still in
// flight. Not safe for concurrent use; the front serializes per session.
type rsession struct {
	rt       *Router
	proto    string // "json" | "binary"
	reply    server.ReplyFunc
	backends map[int]*server.MuxSession
	touched  map[int]struct{} // backends holding an open transaction
	inTx     bool
	snapshot bool
	pending  []pend
}

// pend is one forwarded call awaiting its backend response.
type pend struct {
	id   uint64
	dest int
	call *server.Call
	t0   time.Time
}

// forwardWindow caps how many forwarded calls one session keeps in
// flight before settling them — a memory bound, not a pacing knob (the
// batch normally settles when the session's queue runs dry).
const forwardWindow = 64

// Abort implements server.SessionHandler: settle what is in flight,
// retire every backend session (aborting their transactions), and
// start over empty.
func (s *rsession) Abort() bool {
	s.Drain()
	for _, b := range s.backends {
		b.Close()
	}
	clear(s.backends)
	open := s.inTx
	s.endTx()
	return open
}

// endTx forgets the front transaction once every joined backend has
// resolved its part.
func (s *rsession) endTx() {
	clear(s.touched)
	s.inTx = false
	s.snapshot = false
}

// backend returns (lazily creating) the session's MuxSession on shard d.
func (s *rsession) backend(d int) *server.MuxSession {
	if b, ok := s.backends[d]; ok {
		return b
	}
	b := s.rt.muxes[d].Session()
	s.backends[d] = b
	return b
}

// settle turns a backend call's outcome into the response to relay: the
// shard's own reply whenever one arrived — error text, aborted and
// redirect verbatim — and a synthesized error only for a transport
// failure. When shard d reports its transaction rolled back (tabort,
// deadlock victim) the whole front transaction is over, so the other
// joined shards are aborted too: the single-server contract.
func (s *rsession) settle(d int, resp *server.Response, err error) *server.Response {
	if resp == nil {
		return &server.Response{Error: err.Error()}
	}
	if resp.Aborted {
		s.abortTouched(d)
	}
	return resp
}

// enter readies shard d for an op: if the front session has an open
// transaction that d has not joined yet, a begin (with the session's
// snapshot flag) is sent first. This lazy join is what keeps a
// single-shard transaction as cheap through the router as against a
// single server.
func (s *rsession) enter(d int) (*server.MuxSession, *server.Response) {
	b := s.backend(d)
	if !s.inTx {
		return b, nil
	}
	if _, ok := s.touched[d]; ok {
		return b, nil
	}
	resp, err := b.Call(&server.Request{Op: "begin", Snapshot: s.snapshot})
	if resp = s.settle(d, resp, err); !resp.OK {
		return nil, resp
	}
	s.touched[d] = struct{}{}
	return b, nil
}

// Handle implements server.SessionHandler. Single-shard ops are
// forwarded pipelined: issued to their backend without waiting and
// settled by Drain when the session's queue runs dry (or a transaction
// boundary arrives), so the router adds no round trip of its own per op
// a pipelining client already queued. The backend's per-session FIFO
// keeps a batch ordered, so replies settling as a batch are
// indistinguishable from lockstep to the client. Everything else is
// answered on the spot.
func (s *rsession) Handle(id uint64, req *server.Request) *server.Response {
	rt := s.rt
	op, d := routeOf(rt.ring, req)
	if op.Route != server.RouteRef && op.Route != server.RouteID && op.Route != server.RouteCreate {
		// Transaction boundaries, fan-outs, local ops, and typed refusals
		// observe every forwarded response first.
		s.Drain()
	}
	switch op.Route {
	case server.RouteLocal:
		return s.handleLocal(req)
	case server.RouteFanout:
		rt.fanouts.Add(1)
		return s.fanout(req)
	case server.RouteCreate:
		d = int(rt.rr.Add(1)) % rt.ring.Shards()
	case server.RouteRef, server.RouteID:
	default:
		rt.rejects.Add(1)
		if op.Reject == nil {
			return &server.Response{Error: fmt.Sprintf("shard: unroutable op %q", req.Op)}
		}
		return &server.Response{Error: op.Reject.Error()}
	}
	rt.requests.Add(1)
	t0 := time.Now()
	b, failed := s.enter(d)
	t1 := time.Now()
	rt.routeNs.Observe(t1.Sub(t0).Nanoseconds())
	if failed != nil {
		s.Drain()
		return failed
	}
	s.pending = append(s.pending, pend{id: id, dest: d, call: b.Go(req), t0: t1})
	if len(s.pending) >= forwardWindow {
		s.Drain()
	}
	return nil
}

// Drain implements server.SessionHandler: wait for every forwarded call
// and relay its response. Ops in flight behind one whose backend rolled
// the transaction back fail at their backends ("no open transaction"),
// exactly as a pipelining client of a single server would see.
func (s *rsession) Drain() {
	for _, p := range s.pending {
		resp, err := s.backends[p.dest].Await(p.call)
		s.rt.forwardNs.Observe(time.Since(p.t0).Nanoseconds())
		s.reply(p.id, s.settle(p.dest, resp, err))
	}
	s.pending = s.pending[:0]
}

// abortTouched aborts every joined backend except skip (already
// resolved) and closes the front transaction.
func (s *rsession) abortTouched(skip int) {
	for d := range s.touched {
		if d == skip {
			continue
		}
		s.backends[d].Call(&server.Request{Op: "abort"})
	}
	s.endTx()
}

// fanout sends req to every shard and merges the responses. scan joins
// the session's transaction; the observability ops are sessionless and
// merge node-tagged snapshots instead.
func (s *rsession) fanout(req *server.Request) *server.Response {
	if req.Op == "scan" {
		return s.fanoutScan(req)
	}
	return s.fanoutObs(req)
}

// fanoutScan merges scan responses: the union of Refs, sorted for
// determinism.
func (s *rsession) fanoutScan(req *server.Request) *server.Response {
	var refs []uint64
	for d := 0; d < s.rt.ring.Shards(); d++ {
		b, failed := s.enter(d)
		if failed != nil {
			return failed
		}
		t0 := time.Now()
		resp, err := b.Call(req)
		s.rt.forwardNs.Observe(time.Since(t0).Nanoseconds())
		if resp = s.settle(d, resp, err); !resp.OK {
			return resp
		}
		refs = append(refs, resp.Refs...)
	}
	t1 := time.Now()
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	s.rt.mergeNs.Observe(time.Since(t1).Nanoseconds())
	return &server.Response{OK: true, Refs: refs}
}

// fanoutObs broadcasts an observability op to every shard — outside any
// front transaction; the ops are sessionless on the shards too — and
// merges the node-tagged responses into the fleet view. A shard that
// cannot answer fails the whole request by name: a silently partial
// fleet view would read as "nothing happened on shard 3".
func (s *rsession) fanoutObs(req *server.Request) *server.Response {
	rt := s.rt
	breq := *req
	if req.Op == "trace.chain" {
		// Collect flat events from every shard; assembly happens once,
		// here, with the whole fleet's links in hand.
		breq.Raw = true
	}
	calls := make([]*server.Response, rt.ring.Shards())
	for d := 0; d < rt.ring.Shards(); d++ {
		t0 := time.Now()
		resp, err := s.backend(d).Call(&breq)
		rt.forwardNs.Observe(time.Since(t0).Nanoseconds())
		if resp = s.settle(d, resp, err); !resp.OK {
			return &server.Response{Error: fmt.Sprintf("shard %d: %s", d, resp.Error)}
		}
		calls[d] = resp
	}
	t1 := time.Now()
	resp := s.mergeObs(req, calls)
	rt.mergeNs.Observe(time.Since(t1).Nanoseconds())
	return resp
}

// decodeResults re-marshals each fan-out response's Result into out[i]
// (a pointer to a slice or struct): the mux client decodes Result as
// untyped JSON, and a round trip is the protocol-faithful way back to
// the typed form.
func decodeResults[T any](calls []*server.Response) ([]T, error) {
	out := make([]T, len(calls))
	for i, resp := range calls {
		raw, err := json.Marshal(resp.Result)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %v", i, err)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("shard %d: %v", i, err)
		}
	}
	return out, nil
}

// mergeObs builds the fleet view for one observability fan-out.
func (s *rsession) mergeObs(req *server.Request, calls []*server.Response) *server.Response {
	rt := s.rt
	fail := func(err error) *server.Response {
		return &server.Response{Error: fmt.Sprintf("shard: merge %s: %v", req.Op, err)}
	}
	switch req.Op {
	case "metrics":
		// Per-shard entries (node-tagged by each shard), the router's own
		// registry tagged "router", and a bucket-exact aggregate tagged
		// "fleet", sorted by (name, node) for determinism.
		snaps, err := decodeResults[[]obs.MetricValue](calls)
		if err != nil {
			return fail(err)
		}
		merged := obs.TagMetrics("fleet", obs.MergeSnapshots(snaps...))
		merged = append(merged, obs.TagMetrics("router", rt.reg.Snapshot())...)
		for _, snap := range snaps {
			merged = append(merged, snap...)
		}
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].Name != merged[j].Name {
				return merged[i].Name < merged[j].Name
			}
			return merged[i].Node < merged[j].Node
		})
		return &server.Response{OK: true, Result: merged}
	case "trace":
		recs, err := decodeResults[[]obs.TraceRecord](calls)
		if err != nil {
			return fail(err)
		}
		var merged []obs.TraceRecord
		for _, rs := range recs {
			merged = append(merged, rs...)
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].StartUnixNs < merged[j].StartUnixNs })
		return &server.Response{OK: true, Result: merged}
	case "flight":
		recs, err := decodeResults[[]obs.IncidentRecord](calls)
		if err != nil {
			return fail(err)
		}
		merged := obs.TagIncidents("router", obs.Flight().Snapshot())
		for _, rs := range recs {
			merged = append(merged, rs...)
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].TUnixNs < merged[j].TUnixNs })
		return &server.Response{OK: true, Result: merged}
	case "trace.rate":
		acks, err := decodeResults[server.TraceRateAck](calls)
		if err != nil {
			return fail(err)
		}
		out := make([]RateAck, len(acks))
		for d, ack := range acks {
			out[d] = RateAck{Shard: d, Node: ack.Node, Rate: ack.Rate}
		}
		return &server.Response{OK: true, Result: RateAcks{Acks: out}}
	case "trace.chain":
		raws, err := decodeResults[server.ChainEvents](calls)
		if err != nil {
			return fail(err)
		}
		var evs []obs.ChainEvent
		for _, r := range raws {
			evs = append(evs, r.Events...)
		}
		if req.Raw {
			return &server.Response{OK: true, Result: server.ChainEvents{Events: evs}}
		}
		if _, ok := obs.ParseCause(req.Cause); !ok {
			return &server.Response{Error: fmt.Sprintf("%v: got %q", server.ErrInvalidChainCause, req.Cause)}
		}
		return &server.Response{OK: true, Result: obs.AssembleChain(req.Cause, evs)}
	case "shard.status":
		fleet := make([]Status, len(calls))
		for d, resp := range calls {
			if err := json.Unmarshal(resp.Value, &fleet[d]); err != nil {
				return fail(fmt.Errorf("shard %d: %v", d, err))
			}
		}
		st := Status{
			Shards: rt.ring.Shards(),
			Vnodes: rt.ring.Vnodes(),
			Self:   -1,
			Node:   "router",
			Addrs:  append([]string(nil), rt.opts.Addrs...),
			Fleet:  fleet,
		}
		raw, err := json.Marshal(st)
		if err != nil {
			return fail(err)
		}
		return &server.Response{OK: true, Value: raw}
	}
	return fail(fmt.Errorf("unmergeable op"))
}

// RateAck is one shard's acknowledgment of a broadcast trace.rate.
type RateAck struct {
	Shard int    `json:"shard"`
	Node  string `json:"node"`
	Rate  uint64 `json:"rate"`
}

// RateAcks is the router's trace.rate result: every shard's ack, in
// ring order.
type RateAcks struct {
	Acks []RateAck `json:"acks"`
}

// handleLocal answers the ops the router owns: the transaction
// boundary, topology, and router introspection.
func (s *rsession) handleLocal(req *server.Request) *server.Response {
	switch req.Op {
	case "begin":
		if s.inTx {
			return &server.Response{Error: "transaction already open"}
		}
		s.inTx = true
		s.snapshot = req.Snapshot
		return &server.Response{OK: true}
	case "commit", "abort":
		if !s.inTx {
			return &server.Response{Error: "no open transaction (send begin first)"}
		}
		dests := make([]int, 0, len(s.touched))
		for d := range s.touched {
			dests = append(dests, d)
		}
		sort.Ints(dests) // deterministic commit order (docs/SHARDING.md)
		// The front transaction ends here whatever the shards answer, so
		// a commit-time rollback on one shard has nothing left to abort
		// on the others: each resolves its own part below.
		s.endTx()
		var errs []string
		aborted := false
		for _, d := range dests {
			resp, err := s.backends[d].Call(&server.Request{Op: req.Op})
			if resp = s.settle(d, resp, err); !resp.OK {
				errs = append(errs, fmt.Sprintf("shard %d: %s", d, resp.Error))
				aborted = aborted || resp.Aborted
			}
		}
		if len(errs) > 0 {
			return &server.Response{Error: strings.Join(errs, "; "), Aborted: aborted}
		}
		return &server.Response{OK: true}
	case "proto":
		return &server.Response{OK: true, Result: s.rt.front.ProtoStatus(s.proto)}
	}
	return &server.Response{Error: fmt.Sprintf("shard: unroutable local op %q", req.Op)}
}
