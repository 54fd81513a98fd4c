package core

// shard.go: the engine half of horizontal sharding (internal/shard has
// the ring, router, and forwarder; docs/SHARDING.md is the spec).
//
// A sharded Ode partitions user OIDs across N processes. Most
// operations route cleanly — the router sends each request to the
// owner — but one path crosses shards from *inside* a transaction: a
// method or trigger action posting a user event to an object another
// shard owns (the first half of a composite pattern fires on shard A,
// the trigger anchors on shard B). That posting cannot run here — the
// object, its trigger states, and its locks live on the owner. Instead
// it is captured:
//
//  1. Capture. PostUserEvent on a remote ref writes an outbox record
//     object inside the posting transaction. Abort rolls it back;
//     commit makes it durable atomically with the rest of the
//     transaction's effects. Each record carries a fresh cause ID
//     (node, seq) — seq order is the delivery order.
//  2. Forward. The shard.Forwarder drains committed records in seq
//     order to the owner's `shard.ingest` op. A record becomes
//     eligible ("settled") only when no still-open transaction holds a
//     smaller seq, so the per-origin sequence the owner observes is
//     monotonic.
//  3. Ingest. IngestRemoteEvents applies a batch in one transaction:
//     events at or below the persisted per-origin watermark are
//     skipped, the rest are posted locally (under the origin cause, so
//     provenance chains across shards), and the watermark advances in
//     the same transaction. Redelivery after a lost ack re-skips —
//     apply-exactly-once with no sender/receiver agreement protocol
//     beyond the watermark.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ode/internal/obj"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/txn"
)

// OutboxClassName is the catalog class under which outbox records are
// stored. It is registered by EnableSharding, never by user schemas.
const OutboxClassName = "ode.shard.outbox"

// ErrShardingDisabled reports a sharding entry point called on a
// database that never enabled sharding.
var ErrShardingDisabled = errors.New("core: sharding not enabled on this database")

// RemoteEvent is one captured cross-shard posting: "post Event on
// Target" plus the cause ID minted at capture ((Node, Seq) — Seq is
// the per-origin delivery order) and the capture's provenance parent.
type RemoteEvent struct {
	Seq    uint64 `json:"seq"`
	Node   uint64 `json:"node"`
	Target uint64 `json:"target"`
	Event  string `json:"event"`
	Parent string `json:"parent,omitempty"`
}

// Cause returns the capture's cause ID.
func (e RemoteEvent) Cause() obs.Cause { return obs.Cause{Node: e.Node, Seq: e.Seq} }

// OutboxEntry is a RemoteEvent plus the OID of its persisted record
// (the handle TrimOutbox deletes by).
type OutboxEntry struct {
	RemoteEvent
	OID uint64 `json:"oid"`
}

// shardState is the per-database sharding runtime: the ownership
// predicate, the outbox record class, and the in-memory image of the
// outbox (the store holds the durable truth; this is the index the
// forwarder reads without scanning).
type shardState struct {
	db      *Database
	isLocal func(uint64) bool
	classID uint32

	mu      sync.Mutex
	queue   map[uint64]OutboxEntry // committed records by seq
	pending map[uint64]struct{}    // captured seqs whose txn is still open
	wm      map[uint64]uint64      // per-origin ingest watermarks seen this process
	nudge   chan struct{}

	captured    *obs.Counter
	ingested    *obs.Counter
	ingestDups  *obs.Counter
	ingestDrops *obs.Counter
	trimmed     *obs.Counter
}

// EnableSharding turns this database into one shard of a cluster.
// isLocal is the ownership predicate (the ring's OIDFilter): true for
// OIDs this shard owns (system OIDs are always local). Postings to
// non-local refs are captured to the outbox instead of applied. The
// call registers the outbox class, reloads any outbox records that
// survived a crash, and registers the shard.* metrics. It may be
// called once per database.
func (db *Database) EnableSharding(isLocal func(uint64) bool) error {
	if isLocal == nil {
		return errors.New("core: EnableSharding needs an ownership predicate")
	}
	sh := &shardState{
		db:      db,
		isLocal: isLocal,
		queue:   make(map[uint64]OutboxEntry),
		pending: make(map[uint64]struct{}),
		wm:      make(map[uint64]uint64),
		nudge:   make(chan struct{}, 1),
	}
	if !db.shardSt.CompareAndSwap(nil, sh) {
		return errors.New("core: sharding already enabled")
	}
	tx := db.tm.BeginSystem()
	classID, err := db.om.EnsureClass(tx, OutboxClassName)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	sh.classID = classID
	if err := sh.recover(); err != nil {
		return err
	}
	r := db.obsReg
	sh.captured = r.EnsureCounter("shard.captured", "count", "postings to remote-owned objects captured into the transactional outbox")
	sh.ingested = r.EnsureCounter("shard.ingested", "count", "remote events applied locally by shard.ingest (each is one local posting)")
	sh.ingestDups = r.EnsureCounter("shard.ingest_dups", "count", "remote events skipped as duplicates (at or below the per-origin watermark)")
	sh.ingestDrops = r.EnsureCounter("shard.ingest_dropped", "count", "remote events dropped as invalid (unknown target object or undeclared event)")
	sh.trimmed = r.EnsureCounter("shard.outbox_trimmed", "count", "acked outbox records deleted from the store")
	r.Func("shard.outbox_pending", "records", "outbox records not yet acked (committed queue + open-transaction captures)", func() uint64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return uint64(len(sh.queue) + len(sh.pending))
	})
	return nil
}

// ShardingEnabled reports whether EnableSharding has run.
func (db *Database) ShardingEnabled() bool { return db.shardSt.Load() != nil }

// recover reloads committed outbox records after a restart: whatever
// the crash left in the store is exactly what was captured but not yet
// trimmed, i.e. not yet known-delivered.
func (sh *shardState) recover() error {
	return sh.db.store.Iterate(func(oid storage.OID, img []byte) error {
		ev, ok := decodeOutboxImage(img, sh.classID)
		if !ok {
			return nil
		}
		sh.mu.Lock()
		sh.queue[ev.Seq] = OutboxEntry{RemoteEvent: ev, OID: uint64(oid)}
		sh.mu.Unlock()
		// The cause source must never re-issue a seq that is already in
		// flight.
		sh.db.causes.EnsureSeq(ev.Seq)
		return nil
	})
}

// decodeOutboxImage decodes a stored image iff it is an outbox record
// of the given class.
func decodeOutboxImage(img []byte, classID uint32) (RemoteEvent, bool) {
	h, payload, err := obj.DecodeEnvelope(img)
	if err != nil || h.ClassID != classID {
		return RemoteEvent{}, false
	}
	var ev RemoteEvent
	if json.Unmarshal(payload, &ev) != nil {
		return RemoteEvent{}, false
	}
	return ev, true
}

// capture runs inside PostUserEvent when ref is remote-owned: persist
// the event into the outbox as part of tx and track its seq as
// pending until the transaction resolves.
func (sh *shardState) capture(tx *txn.Txn, ref Ref, name string) error {
	db := sh.db
	st := db.state(tx)
	cause := db.causes.Next()
	ev := RemoteEvent{
		Seq:    cause.Seq,
		Node:   cause.Node,
		Target: uint64(ref.oid),
		Event:  name,
		Parent: st.ctxCause.String(),
	}
	payload, err := json.Marshal(&ev)
	if err != nil {
		return err
	}
	oid, err := db.om.Create(tx, sh.classID, 0, payload)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.pending[ev.Seq] = struct{}{}
	sh.mu.Unlock()
	st.outbox = append(st.outbox, OutboxEntry{RemoteEvent: ev, OID: uint64(oid)})
	sh.captured.Inc()
	db.met.eventsPosted.Inc()
	return nil
}

// resolveOutbox settles a transaction's captured events: committed
// captures enter the forwarder's queue, aborted ones vanish (their
// records rolled back with the transaction).
func (db *Database) resolveOutbox(st *txnState, committed bool) {
	if len(st.outbox) == 0 {
		return
	}
	sh := db.shardSt.Load()
	if sh == nil {
		return
	}
	sh.mu.Lock()
	for _, e := range st.outbox {
		delete(sh.pending, e.Seq)
		if committed {
			sh.queue[e.Seq] = e
		}
	}
	sh.mu.Unlock()
	if committed {
		select {
		case sh.nudge <- struct{}{}:
		default:
		}
	}
}

// OutboxNudge returns a channel that receives (capacity 1, coalesced)
// after each commit that added outbox records — the forwarder's
// wakeup. Nil when sharding is disabled.
func (db *Database) OutboxNudge() <-chan struct{} {
	sh := db.shardSt.Load()
	if sh == nil {
		return nil
	}
	return sh.nudge
}

// SettledOutbox returns committed outbox entries in seq order, up to
// (excluding) the smallest seq still held by an open transaction. The
// cutoff is what makes the forwarded stream monotonic per origin: a
// seq below it can never appear later, so the receiver's watermark
// check is sound.
func (db *Database) SettledOutbox() []OutboxEntry {
	sh := db.shardSt.Load()
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	floor := uint64(math.MaxUint64)
	for seq := range sh.pending {
		if seq < floor {
			floor = seq
		}
	}
	out := make([]OutboxEntry, 0, len(sh.queue))
	for seq, e := range sh.queue {
		if seq < floor {
			out = append(out, e)
		}
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TrimOutbox deletes acked records from the store and the queue. Safe
// to call with already-trimmed seqs (idempotent); an error leaves the
// records for a later retry — redelivery is harmless by design.
func (db *Database) TrimOutbox(seqs []uint64) error {
	sh := db.shardSt.Load()
	if sh == nil {
		return ErrShardingDisabled
	}
	sh.mu.Lock()
	var ents []OutboxEntry
	for _, seq := range seqs {
		if e, ok := sh.queue[seq]; ok {
			ents = append(ents, e)
		}
	}
	sh.mu.Unlock()
	if len(ents) == 0 {
		return nil
	}
	sys := db.tm.BeginSystem()
	for _, e := range ents {
		if err := db.om.Delete(sys, storage.OID(e.OID)); err != nil && !errors.Is(err, storage.ErrNotFound) {
			_ = sys.Abort()
			return err
		}
	}
	if err := sys.Commit(); err != nil {
		return err
	}
	sh.mu.Lock()
	for _, e := range ents {
		delete(sh.queue, e.Seq)
	}
	sh.mu.Unlock()
	for range ents {
		sh.trimmed.Inc()
	}
	return nil
}

// wmName is the catalog name of the per-origin ingest watermark.
func wmName(origin uint64) string { return fmt.Sprintf("shard.wm.%016x", origin) }

// IngestWatermark reads the persisted watermark for origin (0 when
// nothing has ever been ingested from it).
func (db *Database) IngestWatermark(origin uint64) (uint64, error) {
	if db.shardSt.Load() == nil {
		return 0, ErrShardingDisabled
	}
	sys := db.tm.BeginSystem()
	defer sys.Abort()
	raw, ok, err := db.om.ReadNamed(sys, wmName(origin))
	if err != nil {
		return 0, err
	}
	if !ok || len(raw) < 8 {
		return 0, nil
	}
	return binary.LittleEndian.Uint64(raw), nil
}

// IngestRemoteEvents applies a batch of remote events from one origin
// node, exactly once, and returns the origin's watermark after the
// batch (the ack value). Events at or below the watermark are skipped;
// fresh ones are posted locally under their origin cause; the
// watermark advance commits atomically with the postings. Transient
// aborts (deadlock victimization) retry under the detached-firing
// policy, since dropping a delivery would stall the origin's stream.
func (db *Database) IngestRemoteEvents(origin uint64, evs []RemoteEvent) (uint64, error) {
	sh := db.shardSt.Load()
	if sh == nil {
		return 0, ErrShardingDisabled
	}
	if err := db.writable(); err != nil {
		return 0, err
	}
	sorted := make([]RemoteEvent, len(evs))
	copy(sorted, evs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	backoff := detachedBackoffStart
	for attempt := 0; ; attempt++ {
		wm, err := sh.ingestOnce(origin, sorted)
		if err == nil {
			return wm, nil
		}
		if attempt < detachedRetryBudget && retryableDetached(err) {
			db.met.detachedRetries.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > detachedBackoffCap {
				backoff = detachedBackoffCap
			}
			continue
		}
		return 0, err
	}
}

// ingestOnce is one transactional attempt at applying a batch.
func (sh *shardState) ingestOnce(origin uint64, evs []RemoteEvent) (uint64, error) {
	db := sh.db
	name := wmName(origin)
	sys := db.tm.BeginSystem()
	st := db.state(sys)
	var wm uint64
	raw, ok, err := db.om.ReadNamed(sys, name)
	if err != nil {
		_ = sys.Abort()
		return 0, err
	}
	if ok && len(raw) >= 8 {
		wm = binary.LittleEndian.Uint64(raw)
	}
	var applied, dups, drops int
	var hops []RemoteEvent // applied events, reported as ingest_hop incidents post-commit
	for _, ev := range evs {
		if ev.Seq <= wm {
			dups++
			continue
		}
		// The posting runs under the origin cause: masks, actions, and
		// cascades on this shard chain their provenance back to the
		// capture on the origin shard.
		prev := st.ctxCause
		st.ctxCause = ev.Cause()
		err := db.postUserEventLocal(sys, RefFromOID(storage.OID(ev.Target)), ev.Event)
		st.ctxCause = prev
		switch {
		case err == nil:
			applied++
			hops = append(hops, ev)
		case errors.Is(err, ErrNotFound), errors.Is(err, ErrUnknownEvent), errors.Is(err, ErrUnknownClass):
			// Invalid addressing is deterministic: retrying or wedging the
			// stream would not fix it. Drop, count, advance.
			drops++
		default:
			_ = sys.Abort()
			return 0, err
		}
		wm = ev.Seq
	}
	if applied == 0 && drops == 0 {
		// Pure duplicate batch: nothing changed, nothing to persist.
		_ = sys.Abort()
		sh.addIngestCounts(0, dups, 0)
		sh.noteWatermark(origin, wm)
		return wm, nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], wm)
	if err := db.om.WriteNamed(sys, name, buf[:]); err != nil {
		_ = sys.Abort()
		return 0, err
	}
	if err := sys.Commit(); err != nil {
		return 0, err
	}
	sh.addIngestCounts(applied, dups, drops)
	sh.noteWatermark(origin, wm)
	// Incidents only after the commit: a retried attempt must not leave
	// phantom hop records for postings that were rolled back, and the
	// watermark guarantees a committed event is never re-applied.
	for _, ev := range hops {
		parent, _ := obs.ParseCause(ev.Parent)
		obs.Flight().Record(obs.IncIngestHop, ev.Cause(), parent, ev.Seq,
			fmt.Sprintf("applied %s on oid %d from %s", ev.Event, ev.Target, obs.NodeLabel(origin)))
	}
	return wm, nil
}

// noteWatermark caches the latest observed watermark for origin, the
// in-memory image shard.status reports without a store read.
func (sh *shardState) noteWatermark(origin, wm uint64) {
	sh.mu.Lock()
	if wm > sh.wm[origin] {
		sh.wm[origin] = wm
	}
	sh.mu.Unlock()
}

// IngestWatermarks returns the per-origin ingest watermarks observed by
// this process, keyed by the origin's 16-hex node label. Origins this
// process has not ingested from since start are absent (their persisted
// watermarks still gate redelivery; this map is the status view, not
// the source of truth). Nil when sharding is disabled.
func (db *Database) IngestWatermarks() map[string]uint64 {
	sh := db.shardSt.Load()
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]uint64, len(sh.wm))
	for origin, wm := range sh.wm {
		out[obs.NodeLabel(origin)] = wm
	}
	return out
}

// OutboxSnapshot returns every committed, not-yet-trimmed outbox entry
// in seq order — the sending half of in-flight cross-shard hops, which
// the cause-chain assembler renders as "hop" events. Unlike
// SettledOutbox it applies no open-transaction cutoff: a chain view
// should show a captured hop as soon as its transaction commits. Nil
// when sharding is disabled.
func (db *Database) OutboxSnapshot() []OutboxEntry {
	sh := db.shardSt.Load()
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	out := make([]OutboxEntry, 0, len(sh.queue))
	for _, e := range sh.queue {
		out = append(out, e)
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// OutboxDepth returns the number of outbox records not yet acked
// (committed queue + open-transaction captures), the same value the
// shard.outbox_pending metric reports. Zero when sharding is disabled.
func (db *Database) OutboxDepth() uint64 {
	sh := db.shardSt.Load()
	if sh == nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return uint64(len(sh.queue) + len(sh.pending))
}

func (sh *shardState) addIngestCounts(applied, dups, drops int) {
	for i := 0; i < applied; i++ {
		sh.ingested.Inc()
	}
	for i := 0; i < dups; i++ {
		sh.ingestDups.Inc()
	}
	for i := 0; i < drops; i++ {
		sh.ingestDrops.Inc()
	}
}
