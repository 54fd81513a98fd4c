package repl

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// ReplicaOptions tunes the replica side.
type ReplicaOptions struct {
	// PosPath is the stream-position sidecar file (the applied primary
	// LSN, written after the applied records are locally durable).
	// Default: the store path + ".replpos".
	PosPath string
	// DialTimeout bounds each (re)connect attempt. Default 2s.
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for the next frame; the primary pings
	// every HubOptions.PingInterval, so this must comfortably exceed
	// that. On expiry the link is considered cut and redialed. Default 5s.
	ReadTimeout time.Duration
	// RedialBase/RedialMax shape the capped exponential backoff between
	// reconnect attempts (defaults 10ms / 1s; see server.Backoff).
	RedialBase time.Duration
	RedialMax  time.Duration
	// Dial overrides how the replica reaches the primary. Tests and the
	// fault layer inject instrumented or flaky links here; nil means
	// net.DialTimeout over TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// Status is a snapshot of a replica's stream state, served by the
// repl.status wire op.
type Status struct {
	Primary    string `json:"primary"`
	Connected  bool   `json:"connected"`
	AppliedLSN uint64 `json:"applied_lsn"` // resume position in the primary's LSN space
	EndLSN     uint64 `json:"end_lsn"`     // primary durable end, as last heard
	LagBytes   uint64 `json:"lag_bytes"`   // EndLSN - AppliedLSN
	Reconnects uint64 `json:"reconnects"`
	Promoted   bool   `json:"promoted"`
	// LastCause is the primary-side cause ID carried on the most
	// recently applied commit record ("" before the first annotated
	// commit): which primary event this replica last acted on.
	LastCause string `json:"last_cause,omitempty"`
	// SnapshotLSN is the local store's durable commit LSN — the
	// as-of point a snapshot transaction begun on this replica now
	// would pin. It advances as replicated batches apply, so clients
	// can correlate replica snapshot reads with the primary's history.
	SnapshotLSN uint64 `json:"snapshot_lsn"`
}

// Replica follows a primary: it subscribes from its last durable
// position, applies shipped transaction batches through the store's
// log-ordered replicated-apply path, and reconnects with capped backoff
// when the link drops. Promote stops the stream and opens the store
// (and the attached Database, if any) for writes — trigger FSM state
// replicated from the primary then advances in place, so a composite
// event half-matched on the primary completes on the promoted replica.
type Replica struct {
	primary string
	store   *eos.Manager
	opts    ReplicaOptions

	db atomic.Pointer[core.Database] // optional: promoted along with the store

	applied    atomic.Uint64 // resume position (primary LSN space)
	end        atomic.Uint64 // primary durable end, as last heard
	lag        atomic.Uint64 // end - applied, maintained by the apply loop
	connected  atomic.Bool
	promoted   atomic.Bool
	reconnects obs.Counter
	lastCause  atomic.Value // string: cause note of the last applied commit

	recordsApplied  obs.Counter
	batchesApplied  obs.Counter
	snapshotsLoaded obs.Counter
	applyNs         obs.Histogram // ApplyReplicated latency per batch

	symbolsReceived obs.Counter // anti-entropy coded symbols consumed
	diffsDecoded    obs.Counter // divergent items decoded from symbol streams
	objectsRepaired obs.Counter // objects rewritten/freed by recon rejoin or repair
	verifyRuns      obs.Counter // Verify invocations
	diverged        obs.Counter // objects confirmed divergent by Verify

	verifyMu sync.Mutex // one Verify at a time

	// caughtUp is closed the first time applied reaches the end the
	// primary reported at subscribe time — the bootstrap barrier.
	caughtUp  chan struct{}
	caughtOne sync.Once

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewReplica prepares (but does not start) a replica of the primary at
// addr over the local store. The store is flipped read-only here so no
// local write can interleave with the stream; Promote flips it back.
func NewReplica(primaryAddr string, store *eos.Manager, opts ReplicaOptions) (*Replica, error) {
	if opts.PosPath == "" {
		return nil, fmt.Errorf("repl: ReplicaOptions.PosPath is required")
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 5 * time.Second
	}
	r := &Replica{
		primary:  primaryAddr,
		store:    store,
		opts:     opts,
		caughtUp: make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	pos, err := loadPos(opts.PosPath)
	if err != nil {
		return nil, err
	}
	r.applied.Store(pos)
	store.SetReadOnly(true)
	return r, nil
}

// AttachDatabase links the core layer so Promote can open it for
// writes too. Call it after the database is constructed over the
// replica's store (i.e. after WaitCaughtUp).
func (r *Replica) AttachDatabase(db *core.Database) {
	db.SetReadOnly(true)
	r.db.Store(db)
}

// Store returns the replica's local store (read-only until Promote).
func (r *Replica) Store() *eos.Manager { return r.store }

// Start launches the streaming loop.
func (r *Replica) Start() { go r.run() }

// Stop halts streaming without promoting (the store stays read-only).
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Promote stops the stream and opens the store and attached database
// for writes: the replica becomes a primary, resuming trigger
// detection from the exact replicated state. Safe to call once; the
// stream is drained before the gate flips, so no replicated apply can
// race a local commit.
func (r *Replica) Promote() {
	r.Stop()
	r.promoted.Store(true)
	r.store.SetReadOnly(false)
	if db := r.db.Load(); db != nil {
		db.SetReadOnly(false)
	}
	obs.Flight().Record(obs.IncPromotion, obs.Cause{}, obs.Cause{}, r.applied.Load(), "was replica of "+r.primary)
}

// WaitCaughtUp blocks until the replica has applied everything the
// primary had when the stream first connected (or the timeout passes).
// This is the bootstrap barrier: after it, the local store holds the
// catalog and trigger index, so a core.Database can be opened read-only
// over it without writing a thing.
func (r *Replica) WaitCaughtUp(timeout time.Duration) error {
	select {
	case <-r.caughtUp:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("repl: not caught up with %s after %v (applied %d, end %d)",
			r.primary, timeout, r.applied.Load(), r.end.Load())
	}
}

// Status snapshots the stream state.
func (r *Replica) Status() Status {
	lastCause, _ := r.lastCause.Load().(string)
	return Status{
		Primary:     r.primary,
		Connected:   r.connected.Load(),
		AppliedLSN:  r.applied.Load(),
		EndLSN:      r.end.Load(),
		LagBytes:    r.lag.Load(),
		Reconnects:  r.reconnects.Value(),
		Promoted:    r.promoted.Load(),
		LastCause:   lastCause,
		SnapshotLSN: r.store.SnapshotLSN(),
	}
}

// Ops binds the replica's rows of the server op table — repl.status,
// repl.promote and repl.verify — for server.Options.ExtraOps. Serve them
// only after AttachDatabase: repl.verify resolves its class name through
// the attached database, whose class IDs are the primary's because the
// catalog replicates.
func (r *Replica) Ops() map[string]server.Binding {
	status := func(*server.Request) *server.Response {
		return &server.Response{OK: true, Result: r.Status()}
	}
	return map[string]server.Binding{
		OpStatus: {Answer: status},
		OpPromote: {Answer: func(req *server.Request) *server.Response {
			r.Promote()
			return status(req)
		}},
		OpVerify: {Answer: func(req *server.Request) *server.Response {
			opts := VerifyOptions{Repair: req.Repair}
			if req.Class != "" {
				bc, ok := r.db.Load().ClassOf(req.Class)
				if !ok {
					return &server.Response{Error: fmt.Sprintf("verify: unknown class %q", req.Class)}
				}
				opts.Class = bc.ID
			}
			report, err := r.Verify(opts)
			if err != nil {
				return &server.Response{Error: err.Error(), Result: report}
			}
			return &server.Response{OK: true, Result: report}
		}},
	}
}

// RegisterMetrics exposes the replica's counters and gauges on a
// registry. Names are documented in docs/OBSERVABILITY.md.
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	reg.Func("repl.records_applied", "records", "WAL records applied from the stream",
		r.recordsApplied.Value)
	reg.Func("repl.batches_applied", "txns", "replicated transaction batches applied",
		r.batchesApplied.Value)
	reg.Func("repl.snapshots_loaded", "snapshots", "full-store bootstraps loaded",
		r.snapshotsLoaded.Value)
	reg.Func("repl.reconnects", "dials", "stream reconnect attempts after a cut link",
		r.reconnects.Value)
	reg.Func("repl.applied_lsn", "lsn", "resume position in the primary's LSN space",
		r.applied.Load)
	// Served straight from an atomic the apply loop maintains, so a
	// scrape never does more than one load.
	reg.Func("repl.lag_bytes", "bytes", "primary durable end minus applied position",
		r.lag.Load)
	reg.RegisterHistogram("repl.apply_ns", "ns", "ApplyReplicated latency per replicated transaction",
		&r.applyNs)
	reg.Func("antientropy.symbols_received", "symbols", "coded symbols consumed while reconciling",
		r.symbolsReceived.Value)
	reg.Func("antientropy.diffs_decoded", "items", "divergent items decoded from symbol streams",
		r.diffsDecoded.Value)
	reg.Func("antientropy.objects_repaired", "objects", "objects rewritten or freed by rejoin/repair",
		r.objectsRepaired.Value)
	reg.Func("repl.verify_runs", "runs", "online divergence audits executed",
		r.verifyRuns.Value)
	reg.Func("repl.diverged", "objects", "objects confirmed divergent from the primary",
		r.diverged.Value)
}

// updateLag recomputes the lag gauge from the applied/end atomics.
// Called wherever either side moves, so scrapes are a single load.
func (r *Replica) updateLag() {
	applied, end := r.applied.Load(), r.end.Load()
	var lag uint64
	if end > applied {
		lag = end - applied
	}
	r.lag.Store(lag)
}

// run is the reconnect loop: stream until the link drops, back off,
// redial, resubscribe from the durable position.
func (r *Replica) run() {
	defer close(r.done)
	bo := server.Backoff{Base: r.opts.RedialBase, Max: r.opts.RedialMax}
	first := true
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if !first {
			r.reconnects.Inc()
			obs.Flight().Record(obs.IncReplicaRedial, obs.Cause{}, obs.Cause{}, r.reconnects.Value(), "primary "+r.primary)
			select {
			case <-time.After(bo.Next()):
			case <-r.stop:
				return
			}
		}
		first = false
		if err := r.streamOnce(); err == nil {
			bo.Reset()
		}
	}
}

// dial opens a connection to the primary through the configured
// transport (the Dial hook, or TCP).
func (r *Replica) dial() (net.Conn, error) {
	if r.opts.Dial != nil {
		return r.opts.Dial(r.primary, r.opts.DialTimeout)
	}
	return net.DialTimeout("tcp", r.primary, r.opts.DialTimeout)
}

// streamOnce runs one connection's worth of streaming. A nil return
// means the link made progress before dropping (reset the backoff);
// an error means the attempt failed outright.
func (r *Replica) streamOnce() error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))
	// Offer reconciliation when the local store has anything to
	// reconcile against; an empty store bootstraps faster by snapshot.
	recon := r.store.ObjectCount() > 0
	if err := enc.Encode(&server.Request{Op: OpSubscribe, LSN: r.applied.Load(), Recon: recon}); err != nil {
		return err
	}
	r.connected.Store(true)
	defer r.connected.Store(false)

	// pending buffers each in-flight transaction's ops until its commit
	// record arrives; a batch can span recs frames but never a
	// reconnect (we resume from the last commit boundary).
	pending := make(map[uint64][]storage.Op)
	var snapObjs []eos.SnapObject
	var snapNextOID, snapLSN uint64
	inSnap := false
	progressed := false
	firstEnd := uint64(0)

	for {
		select {
		case <-r.stop:
			return nil
		default:
		}
		conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if progressed {
				return nil
			}
			return err
		}
		// A frame that parses but fails its semantic checksum is a
		// corrupt link: drop it before acting on anything it carries and
		// resume from the last commit boundary on the next dial.
		if err := checkSum(&f); err != nil {
			if progressed {
				return nil
			}
			return err
		}
		switch f.T {
		case FrameRecon:
			// Out-of-range rejoin via set reconciliation: decode the
			// drift, fetch only the divergent objects, resume streaming
			// from the capture LSN on this same connection.
			res, err := r.runRecon(&f, conn, enc, dec, true, nil, 0)
			if errors.Is(err, errReconAbort) {
				// The hub falls back to a full snapshot on this stream.
				continue
			}
			if err != nil {
				if progressed {
					return nil
				}
				return err
			}
			if err := r.applyReconResult(res); err != nil {
				return err
			}
			progressed = true
			continue
		case FrameSnap:
			inSnap = true
			snapObjs = snapObjs[:0]
			snapLSN, snapNextOID = f.LSN, f.NextOID
		case FrameObj:
			if !inSnap {
				return fmt.Errorf("repl: obj frame outside snapshot")
			}
			snapObjs = append(snapObjs, eos.SnapObject{OID: storage.OID(f.OID), Data: f.Data})
		case FrameSnapEnd:
			if !inSnap {
				return fmt.Errorf("repl: snapend frame outside snapshot")
			}
			inSnap = false
			if err := r.store.ImportSnapshot(storage.OID(snapNextOID), snapObjs); err != nil {
				return fmt.Errorf("repl: import snapshot: %w", err)
			}
			snapObjs = nil
			r.snapshotsLoaded.Inc()
			// The snapshot position may be *behind* the old applied
			// position (the primary was restored from older state), so
			// force it rather than monotonically advance.
			r.forceApplied(snapLSN)
			progressed = true
		case FrameRecs:
			if err := r.applyBatch(&f, pending); err != nil {
				return err
			}
			r.end.Store(f.End)
			r.updateLag()
			if firstEnd == 0 {
				firstEnd = f.End
			}
			r.checkCaughtUp(firstEnd)
			progressed = true
		case FramePing:
			r.end.Store(f.End)
			r.updateLag()
			if f.TS != 0 {
				// Echo the hub's timestamp so it can observe RTT. Old
				// primaries send no TS and get no pong.
				if err := enc.Encode((&Frame{T: FramePong, TS: f.TS}).seal()); err != nil {
					return err
				}
			}
			if firstEnd == 0 {
				firstEnd = f.End
			}
			r.checkCaughtUp(firstEnd)
		case FrameErr:
			return fmt.Errorf("repl: primary: %s", f.Err)
		default:
			return fmt.Errorf("repl: unknown frame %q", f.T)
		}
	}
}

// applyBatch applies one recs frame: ops accumulate per transaction and
// are committed through the store's replicated-apply path when the
// commit record arrives. The resume position advances only at commit
// boundaries (or to the frame end once no transaction is in flight),
// so a cut link never restarts mid-transaction.
func (r *Replica) applyBatch(f *Frame, pending map[uint64][]storage.Op) error {
	for i := range f.Recs {
		rec := &f.Recs[i]
		switch wal.RecType(rec.Type) {
		case wal.RecUpdate, wal.RecAllocate:
			data := make([]byte, len(rec.Data))
			copy(data, rec.Data)
			pending[rec.Txn] = append(pending[rec.Txn],
				storage.Op{Kind: storage.OpWrite, OID: storage.OID(rec.OID), Data: data})
		case wal.RecFree:
			pending[rec.Txn] = append(pending[rec.Txn],
				storage.Op{Kind: storage.OpFree, OID: storage.OID(rec.OID)})
		case wal.RecCommit:
			ops := pending[rec.Txn]
			delete(pending, rec.Txn)
			// A cause note on the primary's commit record attributes this
			// apply to the primary-side event that caused it. Re-attach
			// it before applying so the replica's own WAL commit record
			// (and flight incident) re-carry the attribution.
			if self, parent, ok := obs.DecodeCauseNote(rec.Data); ok {
				r.store.SetCommitCause(rec.Txn, self, parent)
				r.lastCause.Store(self.String())
			}
			// ApplyReplicated returns once the batch is locally durable
			// (it rides the replica's own group commit), so advancing
			// the resume position here is crash-safe: at worst the
			// sidecar is stale and we re-apply idempotent records.
			applyStart := time.Now()
			if err := r.store.ApplyReplicated(rec.Txn, ops); err != nil {
				return fmt.Errorf("repl: apply txn %d: %w", rec.Txn, err)
			}
			r.applyNs.Observe(time.Since(applyStart).Nanoseconds())
			r.batchesApplied.Inc()
			r.setApplied(rec.Next)
		case wal.RecCheckpoint:
			// The primary's checkpoint marker: nothing to apply.
		default:
			return fmt.Errorf("repl: unknown record type %d", rec.Type)
		}
	}
	r.recordsApplied.Add(uint64(len(f.Recs)))
	if len(pending) == 0 {
		r.setApplied(f.Next)
	}
	return nil
}

func (r *Replica) setApplied(lsn uint64) {
	if lsn <= r.applied.Load() {
		return
	}
	r.applied.Store(lsn)
	r.updateLag()
	savePos(r.opts.PosPath, lsn) // best-effort; stale is safe
}

// forceApplied moves the resume position unconditionally — snapshot
// import and recon rejoin can legitimately move it backward when the
// primary was restored from older state.
func (r *Replica) forceApplied(lsn uint64) {
	r.applied.Store(lsn)
	r.updateLag()
	savePos(r.opts.PosPath, lsn)
}

// applyReconResult lands one fetched exchange as a single replicated
// batch: the primary's images overwrite the divergent objects, frees
// drop what the primary lacks, and the allocator catches up, after
// which the store equals a log replay up to the capture LSN (for the
// objects' final images; intermediate history is intentionally not
// reconstructed — the stream that follows is idempotent over it).
func (r *Replica) applyReconResult(res *reconResult) error {
	ops := res.reconOps(nil)
	if len(ops) > 0 {
		// The synthetic txn id namespaces rejoin batches away from
		// replicated primary transactions in the local WAL.
		if err := r.store.ApplyReplicated(reconTxnBase+res.captureLSN, ops); err != nil {
			return fmt.Errorf("repl: apply recon batch: %w", err)
		}
		r.objectsRepaired.Add(uint64(len(ops)))
	}
	r.store.EnsureNextOID(storage.OID(res.nextOID))
	r.forceApplied(res.captureLSN)
	return nil
}

// reconTxnBase namespaces the synthetic transaction ids recon repair
// batches use in the replica's local WAL.
const reconTxnBase = uint64(1) << 62

func (r *Replica) checkCaughtUp(firstEnd uint64) {
	if r.applied.Load() >= firstEnd {
		r.caughtOne.Do(func() { close(r.caughtUp) })
	}
}

// --- position sidecar --------------------------------------------------------

// The sidecar holds the 8-byte little-endian resume LSN. It is written
// after the applied records are durable in the local store, so it can
// only be stale (never ahead); the stream re-applies the gap
// idempotently. Written to a temp file, fsynced, then renamed into
// place: the fsync keeps a crash from renaming an unwritten (torn)
// temp over a good sidecar, and the rename keeps a torn write from
// ever being visible under the real name. Every reachable state is
// safe: a missing or short sidecar resumes from zero (bootstrap), a
// stale-but-valid one resumes from an old commit boundary and the
// redo-only stream re-applies the gap idempotently.

func loadPos(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: read %s: %w", path, err)
	}
	if len(b) != 8 {
		// Unreadable sidecar: resume from zero (snapshot bootstrap).
		return 0, nil
	}
	return binary.LittleEndian.Uint64(b), nil
}

func savePos(path string, lsn uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], lsn)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	_, werr := f.Write(b[:])
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	os.Rename(tmp, path)
}
