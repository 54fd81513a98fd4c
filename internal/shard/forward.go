package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/server"
)

// Forwarder drains a shard's settled outbox to the owning shards.
//
// Delivery is at-least-once push: per destination, the forwarder sends
// the settled records in seq order as one shard.ingest batch, and trims
// only what the receiver's returned watermark covers. A cut link, a
// crashed receiver, or a lost ack all resolve the same way — the
// records stay in the outbox and the next round resends them; the
// receiver's per-origin watermark makes the redelivery a no-op. The
// pairing (at-least-once push, idempotent pull-side dedup) is what
// turns the paper's in-process "exactly once per FSM completion"
// guarantee (§5.1.3) into a cross-shard one.
type Forwarder struct {
	db   *core.Database
	ring *Ring

	self  int
	addrs []string
	dial  func(addr string, timeout time.Duration) (net.Conn, error)

	timeout time.Duration
	poll    time.Duration

	batches *obs.Counter
	events  *obs.Counter
	acked   *obs.Counter
	errs    *obs.Counter

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

// ForwarderOptions configures NewForwarder.
type ForwarderOptions struct {
	// Self is this shard's index in the ring; Addrs[Self] is ignored
	// (the engine never captures a locally-owned posting).
	Self int
	// Addrs lists every shard's listen address, indexed by ring slot.
	Addrs []string
	// Dial, when set, replaces net.DialTimeout — the chaos tests insert
	// a fault.NetPlan here.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Timeout bounds each dial and each request/response round trip.
	// Default 5s.
	Timeout time.Duration
	// Poll is the fallback drain interval for records missed between
	// nudges (e.g. after a failed round). Default 50ms.
	Poll time.Duration
}

// NewForwarder wires a forwarder to db's outbox. Sharding must already
// be enabled on db. Call Run (usually in a goroutine) to start it.
func NewForwarder(db *core.Database, ring *Ring, opts ForwarderOptions) (*Forwarder, error) {
	if !db.ShardingEnabled() {
		return nil, fmt.Errorf("shard: forwarder requires EnableSharding first")
	}
	if opts.Self < 0 || opts.Self >= ring.Shards() {
		return nil, fmt.Errorf("shard: self %d out of range for %d shards", opts.Self, ring.Shards())
	}
	if len(opts.Addrs) != ring.Shards() {
		return nil, fmt.Errorf("shard: %d addrs for %d shards", len(opts.Addrs), ring.Shards())
	}
	f := &Forwarder{
		db:      db,
		ring:    ring,
		self:    opts.Self,
		addrs:   append([]string(nil), opts.Addrs...),
		dial:    opts.Dial,
		timeout: opts.Timeout,
		poll:    opts.Poll,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if f.dial == nil {
		f.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if f.timeout <= 0 {
		f.timeout = 5 * time.Second
	}
	if f.poll <= 0 {
		f.poll = 50 * time.Millisecond
	}
	r := db.Observability()
	f.batches = r.EnsureCounter("shard.forward_batches", "count", "cross-shard ingest batches sent")
	f.events = r.EnsureCounter("shard.forward_events", "count", "remote event notifications sent (including resends)")
	f.acked = r.EnsureCounter("shard.forward_acked", "count", "remote event notifications acknowledged and trimmed")
	f.errs = r.EnsureCounter("shard.forward_errors", "count", "failed cross-shard forward rounds")
	return f, nil
}

// Run drains the outbox until Stop. It blocks; callers start it in a
// goroutine.
func (f *Forwarder) Run() {
	defer close(f.done)
	tick := time.NewTicker(f.poll)
	defer tick.Stop()
	for {
		f.drain()
		select {
		case <-f.stop:
			return
		case <-f.db.OutboxNudge():
		case <-tick.C:
		}
	}
}

// Stop halts the forwarder and waits for the current round to finish.
// Idempotent.
func (f *Forwarder) Stop() {
	f.mu.Lock()
	if !f.stopped {
		f.stopped = true
		close(f.stop)
	}
	f.mu.Unlock()
	<-f.done
}

// drain sends every settled record to its owner, one batch per
// destination shard. A failed destination is skipped this round — its
// records stay queued — without blocking the others.
func (f *Forwarder) drain() {
	out := f.db.SettledOutbox()
	if len(out) == 0 {
		return
	}
	byDest := make(map[int][]core.OutboxEntry)
	dests := make([]int, 0, 4)
	for _, e := range out {
		// d == f.self cannot happen through capture (the engine posts
		// local targets directly), but a ring change could strand such
		// a record; sendBatch then applies it through the same
		// idempotent local ingest path a remote shard would use.
		d := f.ring.Owner(e.Target)
		if _, ok := byDest[d]; !ok {
			dests = append(dests, d)
		}
		byDest[d] = append(byDest[d], e)
	}
	sort.Ints(dests) // deterministic order for tests and traces
	for _, d := range dests {
		if err := f.sendBatch(d, byDest[d]); err != nil {
			f.errs.Add(1)
		}
	}
}

// sendBatch delivers one destination's records and trims the acked
// prefix. Entries arrive seq-sorted from SettledOutbox.
func (f *Forwarder) sendBatch(dest int, entries []core.OutboxEntry) error {
	if dest == f.self {
		return f.ingestLocal(entries)
	}
	evs := make([]core.RemoteEvent, len(entries))
	for i, e := range entries {
		evs[i] = e.RemoteEvent
	}
	req := server.Request{Op: "shard.ingest", Origin: f.db.Causes().Node(), Events: evs}
	line, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	conn, err := f.dial(f.addrs[dest], f.timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(f.timeout))
	if _, err := conn.Write(append(line, '\n')); err != nil {
		return err
	}
	f.batches.Add(1)
	f.events.Add(uint64(len(evs)))
	respLine, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return err
	}
	var resp server.Response
	if err := json.Unmarshal(respLine, &resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("shard: ingest rejected by shard %d: %s", dest, resp.Error)
	}
	return f.trimThrough(entries, resp.Watermark)
}

// ingestLocal applies stranded self-owned records through the same
// idempotent ingest path a remote shard would use.
func (f *Forwarder) ingestLocal(entries []core.OutboxEntry) error {
	evs := make([]core.RemoteEvent, len(entries))
	for i, e := range entries {
		evs[i] = e.RemoteEvent
	}
	wm, err := f.db.IngestRemoteEvents(f.db.Causes().Node(), evs)
	if err != nil {
		return err
	}
	f.batches.Add(1)
	f.events.Add(uint64(len(evs)))
	return f.trimThrough(entries, wm)
}

// trimThrough trims every entry with seq <= wm.
func (f *Forwarder) trimThrough(entries []core.OutboxEntry, wm uint64) error {
	var seqs []uint64
	for _, e := range entries {
		if e.Seq <= wm {
			seqs = append(seqs, e.Seq)
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	if err := f.db.TrimOutbox(seqs); err != nil {
		return err
	}
	f.acked.Add(uint64(len(seqs)))
	return nil
}

// Ops binds the shard rows of the server op table, so a shard's peers
// and its router can reach it:
//
//   - shard.ingest: apply a batch of remote event notifications,
//     answering with the per-origin watermark (the ack).
//   - shard.status: report this shard's view of the topology.
//
// Pass them in server.Options.ExtraOps.
func Ops(db *core.Database, ring *Ring, self int, addrs []string) map[string]server.Binding {
	return map[string]server.Binding{
		"shard.ingest": {Answer: func(req *server.Request) *server.Response {
			if req.Origin == 0 {
				return &server.Response{Error: "shard.ingest: missing origin"}
			}
			wm, err := db.IngestRemoteEvents(req.Origin, req.Events)
			if err != nil {
				return &server.Response{Error: err.Error()}
			}
			return &server.Response{OK: true, Watermark: wm}
		}},
		"shard.status": {Answer: func(req *server.Request) *server.Response {
			st := Status{
				Shards:           ring.Shards(),
				Vnodes:           ring.Vnodes(),
				Self:             self,
				Node:             obs.NodeLabel(db.Causes().Node()),
				Addrs:            addrs,
				OutboxPending:    db.OutboxDepth(),
				IngestWatermarks: db.IngestWatermarks(),
			}
			raw, err := json.Marshal(st)
			if err != nil {
				return &server.Response{Error: err.Error()}
			}
			return &server.Response{OK: true, Value: raw}
		}},
	}
}

// Status is the shard.status payload (Response.Value).
type Status struct {
	Shards int      `json:"shards"`
	Vnodes int      `json:"vnodes"`
	Self   int      `json:"self"`           // -1 when answered by the router
	Node   string   `json:"node,omitempty"` // the shard's 16-hex provenance label
	Addrs  []string `json:"addrs,omitempty"`
	// OutboxPending is the shard's not-yet-acked outbox depth
	// (committed queue + open-transaction captures).
	OutboxPending uint64 `json:"outbox_pending,omitempty"`
	// IngestWatermarks maps origin node labels to the highest ingested
	// seq this process has observed from them.
	IngestWatermarks map[string]uint64 `json:"ingest_watermarks,omitempty"`
	// Fleet, on the router's merged status, carries every shard's own
	// status in ring order.
	Fleet []Status `json:"fleet,omitempty"`
}
