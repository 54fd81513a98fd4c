package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// HubOptions tunes the primary side of replication.
type HubOptions struct {
	// PingInterval is how often an idle (caught-up) subscriber gets a
	// heartbeat frame carrying the durable end. Default 500ms.
	PingInterval time.Duration
	// MaxBatchBytes caps one recs frame's worth of log (at least one
	// record is always sent). Default 256 KiB.
	MaxBatchBytes int
}

// Hub is the primary side: it serves repl.subscribe streams off the
// store's WAL and pins checkpoint truncation at the slowest
// subscriber's position so no subscriber's next record is reclaimed
// out from under it.
type Hub struct {
	store *eos.Manager
	opts  HubOptions

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed chan struct{}
	once   sync.Once

	recordsShipped   obs.Counter
	bytesShipped     obs.Counter
	snapshotsShipped obs.Counter
	pingRTT          obs.Histogram

	reconSessions obs.Counter // anti-entropy exchanges served
	reconRejoins  obs.Counter // out-of-range rejoins resolved by recon instead of snapshot
	symbolsSent   obs.Counter // coded symbols shipped
	reconObjects  obs.Counter // divergent objects shipped (incl. gone markers)
}

// subscriber is one live stream's shipping position.
type subscriber struct {
	pos  wal.LSN       // next LSN to ship; guarded by Hub.mu
	wake chan struct{} // buffered(1): durable-commit wakeup
}

// NewHub wires a hub to the store: the hub becomes the store's WAL pin
// (checkpoints keep log from the slowest subscriber onward) and its
// durable observer (commits wake caught-up subscribers immediately
// instead of waiting out the ping interval). Close undoes both.
func NewHub(store *eos.Manager, opts HubOptions) *Hub {
	if opts.PingInterval <= 0 {
		opts.PingInterval = 500 * time.Millisecond
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 256 << 10
	}
	h := &Hub{
		store:  store,
		opts:   opts,
		subs:   make(map[*subscriber]struct{}),
		closed: make(chan struct{}),
	}
	store.SetWALPin(h.pin)
	store.Log().SetDurableObserver(h.wakeAll)
	return h
}

// Close detaches the hub from the store and unblocks idle subscribers;
// their streams end on their next write or wakeup.
func (h *Hub) Close() {
	h.once.Do(func() {
		close(h.closed)
		h.store.SetWALPin(nil)
		h.store.Log().SetDurableObserver(nil)
	})
}

// pin reports the lowest position any subscriber still needs (the
// checkpoint truncation bound). Called by the store with its pool lock
// held — constant work, no locks beyond h.mu.
func (h *Hub) pin() (wal.LSN, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var min wal.LSN
	ok := false
	for s := range h.subs {
		if !ok || s.pos < min {
			min, ok = s.pos, true
		}
	}
	return min, ok
}

// wakeAll nudges every subscriber after a group commit becomes durable.
func (h *Hub) wakeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		select {
		case s.wake <- struct{}{}:
		default: // already pending
		}
	}
}

// Subscribers reports the number of live streams.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// RegisterMetrics exposes the hub's counters on a registry (the
// primary's Observability surface). Names are documented in
// docs/OBSERVABILITY.md.
func (h *Hub) RegisterMetrics(reg *obs.Registry) {
	reg.Func("repl.subscribers", "streams", "live replica subscriptions",
		func() uint64 { return uint64(h.Subscribers()) })
	reg.Func("repl.records_shipped", "records", "WAL records sent to replicas",
		h.recordsShipped.Value)
	reg.Func("repl.bytes_shipped", "bytes", "WAL bytes sent to replicas",
		h.bytesShipped.Value)
	reg.Func("repl.snapshots_shipped", "snapshots", "full-store bootstraps sent to out-of-range subscribers",
		h.snapshotsShipped.Value)
	reg.RegisterHistogram("repl.ping_rtt_ns", "ns", "ping→pong round trip to subscribers, hub clock",
		&h.pingRTT)
	reg.Func("antientropy.sessions", "exchanges", "anti-entropy digest/symbol exchanges served",
		h.reconSessions.Value)
	reg.Func("antientropy.rejoins", "rejoins", "out-of-range rejoins served by reconciliation instead of snapshot",
		h.reconRejoins.Value)
	reg.Func("antientropy.symbols_sent", "symbols", "coded symbols shipped to reconciling peers",
		h.symbolsSent.Value)
	reg.Func("antientropy.objects_shipped", "objects", "divergent object images shipped during reconciliation",
		h.reconObjects.Value)
}

func (h *Hub) addSub(pos wal.LSN) *subscriber {
	s := &subscriber{pos: pos, wake: make(chan struct{}, 1)}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

func (h *Hub) removeSub(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
}

func (h *Hub) setPos(s *subscriber, pos wal.LSN) {
	h.mu.Lock()
	s.pos = pos
	h.mu.Unlock()
}

// Ops binds the primary's rows of the server op table — the stream ops
// repl.subscribe and repl.recon — for server.Options.ExtraOps.
func (h *Hub) Ops() map[string]server.Binding {
	return map[string]server.Binding{
		OpSubscribe: {Stream: h.handleSubscribe},
		OpRecon:     {Stream: h.handleRecon},
	}
}

// handleSubscribe serves OpSubscribe: it owns the connection and ships
// frames until the subscriber disconnects or the hub closes.
func (h *Hub) handleSubscribe(conn net.Conn, req *server.Request) error {
	log := h.store.Log()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	from := wal.LSN(req.LSN)

	s := h.addSub(from)
	defer h.removeSub(s)

	// Out-of-range positions get a rejoin first: below base the records
	// were checkpoint-truncated away; beyond end the replica outlived
	// log the primary no longer has (e.g. the primary was restored from
	// an older state). A reconciling subscriber ships only its drift; a
	// plain one (or an aborted exchange) gets the full snapshot.
	// Registering the subscriber before checking pins the base where we
	// read it.
	if from < log.Base() || from > log.End() {
		wantSnap := true
		if req.Recon {
			lsn, aborted, err := h.serveRecon(conn, enc, dec, true, 0)
			if err != nil {
				return nil // link failed mid-exchange; replica redials
			}
			if !aborted {
				h.reconRejoins.Inc()
				from = lsn
				h.setPos(s, from)
				wantSnap = false
			}
		}
		if wantSnap {
			lsn, nextOID, objs, err := h.store.Export()
			if err != nil {
				enc.Encode((&Frame{T: FrameErr, Err: err.Error()}).seal())
				return nil
			}
			if err := enc.Encode((&Frame{T: FrameSnap, LSN: uint64(lsn), NextOID: uint64(nextOID)}).seal()); err != nil {
				return nil
			}
			for _, o := range objs {
				if err := enc.Encode((&Frame{T: FrameObj, OID: uint64(o.OID), Data: o.Data}).seal()); err != nil {
					return nil
				}
			}
			if err := enc.Encode((&Frame{T: FrameSnapEnd}).seal()); err != nil {
				return nil
			}
			h.snapshotsShipped.Inc()
			from = lsn
			h.setPos(s, from)
		}
	}

	// Pongs are the only upstream frames from here on; a side reader
	// drains them and observes RTT on this clock. It exits when the
	// connection closes (the server closes conn when this handler
	// returns). It starts only after any recon exchange: the exchange
	// owns the shared decoder until it completes, and a replica sends
	// nothing between its last recon frame and the first pong.
	go func() {
		for {
			var f Frame
			if err := dec.Decode(&f); err != nil {
				return
			}
			if f.T == FramePong && f.TS > 0 {
				if d := time.Now().UnixNano() - f.TS; d >= 0 {
					h.pingRTT.Observe(d)
				}
			}
		}
	}()

	ping := time.NewTimer(h.opts.PingInterval)
	defer ping.Stop()
	for {
		recs, next, end, err := log.ReadDurable(from, h.opts.MaxBatchBytes)
		if err != nil {
			if errors.Is(err, wal.ErrTruncatedLSN) {
				// Should be impossible while we hold the pin; surface it
				// rather than ship a gap.
				enc.Encode((&Frame{T: FrameErr, Err: err.Error()}).seal())
				return nil
			}
			enc.Encode((&Frame{T: FrameErr, Err: err.Error()}).seal())
			return fmt.Errorf("repl: read durable at %d: %w", from, err)
		}
		if len(recs) > 0 {
			frame := &Frame{T: FrameRecs, LSN: uint64(from), Next: uint64(next), End: uint64(end)}
			off := from
			frame.Recs = make([]WireRec, len(recs))
			for i := range recs {
				off += wal.LSN(wal.EncodedSize(&recs[i]))
				frame.Recs[i] = WireRec{
					Type: uint8(recs[i].Type),
					Txn:  recs[i].Txn,
					OID:  recs[i].OID,
					Data: recs[i].Data,
					Next: uint64(off),
				}
			}
			if off != next {
				enc.Encode((&Frame{T: FrameErr, Err: "repl: internal: record sizes disagree with batch bounds"}).seal())
				return fmt.Errorf("repl: sized records to %d, batch next is %d", off, next)
			}
			if err := enc.Encode(frame.seal()); err != nil {
				return nil // subscriber gone
			}
			h.recordsShipped.Add(uint64(len(recs)))
			h.bytesShipped.Add(uint64(next - from))
			from = next
			h.setPos(s, from)
			continue
		}
		// Caught up: wait for a commit, the ping tick, or shutdown.
		if !ping.Stop() {
			select {
			case <-ping.C:
			default:
			}
		}
		ping.Reset(h.opts.PingInterval)
		select {
		case <-s.wake:
		case <-ping.C:
			if err := enc.Encode((&Frame{T: FramePing, End: uint64(end), TS: time.Now().UnixNano()}).seal()); err != nil {
				return nil
			}
		case <-h.closed:
			enc.Encode((&Frame{T: FrameErr, Err: "repl: hub closed"}).seal())
			return nil
		}
	}
}
