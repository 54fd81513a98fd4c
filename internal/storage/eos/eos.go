// Package eos is the disk-based storage manager: the analog of the EOS
// store beneath regular Ode (§2, §5.6). It provides a slotted-page file
// with a fixed-capacity LRU buffer pool, overflow chains for large
// objects, and crash recovery via the redo-only write-ahead log in
// internal/wal.
//
// Commit protocol: ApplyCommit appends the batch plus a commit record to
// the WAL (log-before-apply), waits for a group-commit fsync to cover it,
// then applies the ops to the buffer pool; dirty pages reach the file
// lazily on eviction or at Checkpoint. Recovery replays committed WAL
// batches over the page file — records from concurrently committed
// transactions may interleave in the log, so replay buffers each
// transaction's ops and applies them only when its commit record is
// reached, in commit-record order. Replay is idempotent (records carry
// full after-images), so any prefix of page flushes before the crash is
// harmless.
//
// Locking: the manager splits its state under two locks so readers never
// wait behind an fsync. seqMu (the log-sequencing lock) is held only
// across the buffered WAL append, which fixes the commit order; mu (the
// buffer-pool lock) covers the pool, directory, and counters. A
// committer sequences under seqMu, waits for durability holding no locks
// (coalescing with concurrent committers via the WAL's group commit),
// then drains the apply queue under mu up to its own sequence — so the
// pool state always equals a replay of the log prefix, even for
// overlapping commits, and one committer's drain covers its whole fsync
// batch.
package eos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"ode/internal/antientropy"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/storage/vstore"
	"ode/internal/wal"
)

const (
	headerMagic = "ODE-EOS1"
	// DefaultCacheSize is the default buffer-pool capacity in pages.
	DefaultCacheSize = 256
	// autoCheckpointBytes triggers a checkpoint when the WAL grows past
	// this size, bounding recovery time.
	autoCheckpointBytes = 8 << 20
)

// loc records where an object lives.
type loc struct {
	pageNo   uint32
	slot     uint16
	overflow bool
}

// applyEntry is one sequenced commit waiting to be applied to the pool.
// All fields are written under mu after enqueue.
type applyEntry struct {
	seq  uint64
	lsn  uint64 // commit LSN (WAL position) stamped onto versions
	ops  []storage.Op
	skip bool  // durability failed: consume the sequence, apply nothing
	err  error // apply error, for the owning committer (set by the drainer)
}

// cached is one buffer-pool frame.
type cached struct {
	no    uint32
	buf   page
	dirty bool
	// prev/next form the intrusive LRU list (front = most recent).
	prev, next *cached
}

// Manager is the disk-based storage manager.
type Manager struct {
	// seqMu is the log-sequencing lock: held only while a commit's
	// records are appended to the WAL buffer and its apply entry is
	// enqueued — never across fsync or pool work. Checkpoint and Close
	// take it first to fence out new commits (lock order: seqMu before
	// mu).
	seqMu   sync.Mutex
	nextSeq uint64 // next apply sequence to hand out (under seqMu)

	// mu is the buffer-pool lock: pool frames, directory, free maps,
	// counters. Read/ReserveOID/Exists take only mu, so they are never
	// blocked by a committer waiting on an fsync.
	mu         sync.Mutex
	appliedSeq uint64        // commits applied (or skipped) so far
	applyQueue []*applyEntry // sequenced commits not yet applied, seq order
	applyCond  *sync.Cond    // waits on appliedSeq advancing (with mu)

	f         *os.File
	log       *wal.Log
	pageCount uint32 // includes header page 0

	cache    map[uint32]*cached
	lruHead  *cached // most recently used
	lruTail  *cached // least recently used
	lruLen   int
	capacity int

	dir       map[storage.OID]loc
	freeSpace map[uint32]int // slotted page -> free bytes
	freePages []uint32
	nextOID   storage.OID
	// oidFilter, when set, restricts which OIDs ReserveOID may mint —
	// the sharding hook (see SetOIDFilter).
	oidFilter func(uint64) bool

	// versions holds the commit-LSN-stamped version chains behind
	// storage.Versioned. Externally synchronized: every access is under
	// mu, with stamping done in drainQueueLocked (log order) so the
	// chains always equal a replay of the applied prefix.
	versions *vstore.Store

	stats storage.Stats
	// closed and readOnly are written with both seqMu and mu held, so
	// either lock suffices to read them.
	closed     bool
	readOnly   bool
	noAutoCkpt bool

	// walBase is the global LSN of the WAL's first physical byte, as
	// persisted in the store header: checkpoints advance it so LSNs stay
	// monotonic across truncations (replication depends on that).
	walBase uint64
	// walPin, when set, bounds checkpoint truncation: the log is only
	// dropped below min(pin, end), so records a replication subscriber
	// still needs survive the checkpoint. Called under mu; must be cheap
	// and must not call back into the manager.
	walPin func() (wal.LSN, bool)

	// commitCauses holds each in-flight transaction's causal-provenance
	// note (set by the core layer before commit, or by the replication
	// applier re-attaching a primary-side note). applyCommit consumes
	// the note into the commit record's Data, which the replication
	// stream ships verbatim — so a replica knows which primary-side
	// event each applied transaction originated from. The table is
	// sharded by transaction ID: every committing transaction touches it
	// (set + take), so a single mutex would put one more global
	// serialization point on the commit path.
	commitCauses [causeShards]causeShard
}

// causeShards is the commitCauses shard count (power of two).
const causeShards = 16

type causeShard struct {
	mu    sync.Mutex
	notes map[uint64]causeNote
}

// causeNote is a pending commit-record annotation.
type causeNote struct {
	self, parent obs.Cause
}

// SetCommitCause attaches (self, parent) to txn's eventual commit
// record. Implements the core layer's commitCauser hook.
func (m *Manager) SetCommitCause(txn uint64, self, parent obs.Cause) {
	sh := &m.commitCauses[txn&(causeShards-1)]
	sh.mu.Lock()
	if sh.notes == nil {
		sh.notes = make(map[uint64]causeNote)
	}
	sh.notes[txn] = causeNote{self: self, parent: parent}
	sh.mu.Unlock()
}

// ClearCommitCause drops txn's pending note (the transaction aborted).
func (m *Manager) ClearCommitCause(txn uint64) {
	sh := &m.commitCauses[txn&(causeShards-1)]
	sh.mu.Lock()
	delete(sh.notes, txn)
	sh.mu.Unlock()
}

// takeCommitCause consumes txn's pending note.
func (m *Manager) takeCommitCause(txn uint64) (causeNote, bool) {
	sh := &m.commitCauses[txn&(causeShards-1)]
	sh.mu.Lock()
	n, ok := sh.notes[txn]
	if ok {
		delete(sh.notes, txn)
	}
	sh.mu.Unlock()
	return n, ok
}

// Options configures Open.
type Options struct {
	// CacheSize is the buffer-pool capacity in pages (default
	// DefaultCacheSize).
	CacheSize int
	// NoAutoCheckpoint disables the WAL-size-triggered checkpoint
	// (benchmarks use this to isolate costs).
	NoAutoCheckpoint bool
	// WALFile, when set, is interposed between the write-ahead log and
	// its file: every WAL write, fsync, read, and truncate flows through
	// it. The fault-injection harness (internal/fault) uses this to
	// exercise commit and recovery paths under injected failures.
	WALFile func(wal.File) wal.File
}

var errClosed = errors.New("eos: manager closed")

// ErrSnapshotsPinned reports an ImportSnapshot attempted while snapshot
// transactions still pin version-store LSNs. Importing would silently
// switch those readers to the new state mid-transaction, so the caller
// (the replication stream) must retry after the snapshots close.
var ErrSnapshotsPinned = errors.New("eos: snapshots pinned; retry import after readers close")

// Open opens (creating if needed) the store at path. The WAL lives at
// path+".wal". Recovery runs before Open returns.
func Open(path string, opts Options) (*Manager, error) {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eos: open: %w", err)
	}
	m := &Manager{
		f:          f,
		cache:      make(map[uint32]*cached),
		capacity:   opts.CacheSize,
		dir:        make(map[storage.OID]loc),
		freeSpace:  make(map[uint32]int),
		nextOID:    1,
		noAutoCkpt: opts.NoAutoCheckpoint,
		versions:   vstore.New(),
	}
	m.applyCond = sync.NewCond(&m.mu)
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("eos: size: %w", err)
	}
	if size == 0 {
		if err := m.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		m.pageCount = 1
	} else {
		if size%PageSize != 0 {
			// A torn page append; trim to whole pages.
			size -= size % PageSize
			if err := f.Truncate(size); err != nil {
				f.Close()
				return nil, fmt.Errorf("eos: trim torn page: %w", err)
			}
		}
		m.pageCount = uint32(size / PageSize)
		if err := m.readHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	repaired, err := m.buildDirectory()
	if err != nil {
		f.Close()
		return nil, err
	}
	var walOpts []wal.Option
	if opts.WALFile != nil {
		walOpts = append(walOpts, wal.WithFileWrapper(opts.WALFile))
	}
	m.log, err = wal.Open(path+".wal", walOpts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Restore the global LSN position persisted by the last checkpoint.
	// The header is written (and fsynced) *before* the log is truncated,
	// so after a crash between the two the base can overshoot: the log
	// then still holds pre-checkpoint records, which replay assigns
	// fresh LSNs. That is safe — replay is idempotent and replication
	// apply is too — it only means LSNs name durable history, not that
	// two crashed-over LSNs never carried the same record.
	m.log.SetBase(wal.LSN(m.walBase))
	if err := m.recover(repaired); err != nil {
		m.log.Close()
		f.Close()
		return nil, err
	}
	// Recovery replays straight into the pool without stamping (the
	// replayed state is the oldest state any snapshot can see), so the
	// version store starts empty at the log's current end.
	m.versions.SetDurable(uint64(m.log.End()))
	return m, nil
}

// Name implements storage.Manager.
func (m *Manager) Name() string { return "eos" }

// writeHeader writes page 0: magic + nextOID + the WAL base LSN.
func (m *Manager) writeHeader() error {
	p := make(page, PageSize)
	copy(p, headerMagic)
	putUint64(p[8:16], uint64(m.nextOID))
	putUint64(p[16:24], m.walBase)
	if _, err := m.f.WriteAt(p, 0); err != nil {
		return fmt.Errorf("eos: write header: %w", err)
	}
	return nil
}

func (m *Manager) readHeader() error {
	p := make(page, PageSize)
	if _, err := m.f.ReadAt(p, 0); err != nil {
		return fmt.Errorf("eos: read header: %w", err)
	}
	if string(p[:8]) != headerMagic {
		return fmt.Errorf("eos: bad magic %q (not an Ode EOS store)", p[:8])
	}
	m.nextOID = storage.OID(getUint64(p[8:16]))
	if m.nextOID == 0 {
		m.nextOID = 1
	}
	// Stores from before the replication era have zero here, which is
	// exactly the right base for their logs.
	m.walBase = getUint64(p[16:24])
	return nil
}

// buildDirectory scans every page to rebuild the OID directory, the
// free-space map, and the free-page list.
//
// A crash can interrupt a relocation after only one of its two pages
// reached disk, leaving an OID visible at two locations (the stale slot's
// removal was never flushed). Any such inconsistency postdates the last
// checkpoint — checkpoints flush a consistent image — so the WAL is
// guaranteed to hold the object's authoritative after-image. The rebuild
// therefore drops *every* copy of a duplicated OID and lets WAL replay
// reinstate it; recover() checkpoints afterwards so the repair is
// durable. It returns whether any repair happened.
func (m *Manager) buildDirectory() (repaired bool, err error) {
	locs := make(map[storage.OID][]loc)
	buf := make(page, PageSize)
	for no := uint32(1); no < m.pageCount; no++ {
		if _, err := m.f.ReadAt(buf, int64(no)*PageSize); err != nil {
			return false, fmt.Errorf("eos: scan page %d: %w", no, err)
		}
		switch buf.kind() {
		case kindSlotted:
			for i := 0; i < buf.nslots(); i++ {
				oid, _, _ := buf.slot(i)
				if oid != 0 {
					locs[storage.OID(oid)] = append(locs[storage.OID(oid)], loc{pageNo: no, slot: uint16(i)})
					if storage.OID(oid) >= m.nextOID {
						m.nextOID = storage.OID(oid) + 1
					}
				}
			}
			if buf.liveCount() == 0 {
				m.freePages = append(m.freePages, no)
			} else {
				m.freeSpace[no] = buf.freeSpace()
			}
		case kindOverflowHead:
			oid := storage.OID(buf.ovOID())
			locs[oid] = append(locs[oid], loc{pageNo: no, overflow: true})
			if oid >= m.nextOID {
				m.nextOID = oid + 1
			}
		case kindOverflowCont:
			// Reached via its head; nothing to record.
		case kindFree:
			m.freePages = append(m.freePages, no)
		default:
			return false, fmt.Errorf("eos: page %d has unknown kind %d", no, buf.kind())
		}
	}
	for oid, ls := range locs {
		if len(ls) == 1 {
			m.dir[oid] = ls[0]
			continue
		}
		// Torn relocation: purge every copy; replay re-creates the
		// object from its logged after-image.
		repaired = true
		for _, l := range ls {
			if err := m.removeLoc(oid, l); err != nil {
				return repaired, fmt.Errorf("eos: purge duplicate oid %d: %w", oid, err)
			}
		}
	}
	return repaired, nil
}

// recover replays committed WAL batches, then checkpoints to truncate the
// log. Records from concurrently group-committed transactions interleave
// in the log, so ops are buffered per transaction and applied only when
// that transaction's commit record is reached — transactions with no
// commit record (in flight at the crash) are discarded. force checkpoints
// even without replayed batches (directory repair must be made durable).
func (m *Manager) recover(force bool) error {
	pending := make(map[uint64][]storage.Op)
	replayed := force
	err := m.log.Scan(func(_ wal.LSN, rec *wal.Record) error {
		switch rec.Type {
		case wal.RecUpdate, wal.RecAllocate:
			data := append([]byte(nil), rec.Data...)
			pending[rec.Txn] = append(pending[rec.Txn], storage.Op{Kind: storage.OpWrite, OID: storage.OID(rec.OID), Data: data})
		case wal.RecFree:
			pending[rec.Txn] = append(pending[rec.Txn], storage.Op{Kind: storage.OpFree, OID: storage.OID(rec.OID)})
		case wal.RecCommit:
			for _, op := range pending[rec.Txn] {
				if err := m.applyOp(op); err != nil {
					return err
				}
			}
			delete(pending, rec.Txn)
			replayed = true
		case wal.RecCheckpoint:
			// Informational only under redo-only logging.
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, wal.ErrCorrupt) {
			// Mid-log corruption refuses the open; dump the recorder so
			// the incidents preceding the damage reach the crash output.
			obs.Flight().Record(obs.IncCorrupt, obs.Cause{}, obs.Cause{}, 0, err.Error())
			obs.DumpFlight("wal corruption during recovery")
		}
		return fmt.Errorf("eos: recovery: %w", err)
	}
	if replayed {
		return m.checkpointLocked()
	}
	return nil
}

// SetOIDFilter installs (or clears, with nil) the allocation
// predicate: ReserveOID skips OIDs the filter rejects. A sharded
// deployment installs the ring's filter so every OID minted here is
// owned here; recovery, snapshot import, and replica apply are
// unaffected — they never mint, they replay.
func (m *Manager) SetOIDFilter(allow func(uint64) bool) {
	m.mu.Lock()
	m.oidFilter = allow
	m.mu.Unlock()
}

// ReserveOID implements storage.Manager.
func (m *Manager) ReserveOID() (storage.OID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return storage.InvalidOID, errClosed
	}
	oid := m.nextOID
	for i := 0; m.oidFilter != nil && !m.oidFilter(uint64(oid)); i++ {
		if i >= oidFilterScanCap {
			return storage.InvalidOID, errOIDFilterStuck
		}
		oid++
	}
	m.nextOID = oid + 1
	return oid, nil
}

// oidFilterScanCap bounds the filter skip scan: a consistent-hash
// slice admits roughly one OID in N, so a scan past a million rejects
// means the filter is broken (owns nothing), not unlucky.
const oidFilterScanCap = 1 << 20

var errOIDFilterStuck = fmt.Errorf("eos: OID filter rejected %d consecutive OIDs", oidFilterScanCap)

// Read implements storage.Manager. It takes only the pool lock, so reads
// proceed while committers wait on the WAL fsync.
func (m *Manager) Read(oid storage.OID) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	l, ok := m.dir[oid]
	if !ok {
		return nil, fmt.Errorf("%w: oid %d", storage.ErrNotFound, oid)
	}
	m.stats.Reads++
	return m.readLoc(l)
}

// readLoc reads one object's image given its location. Caller holds mu.
func (m *Manager) readLoc(l loc) ([]byte, error) {
	if !l.overflow {
		p, err := m.getPage(l.pageNo)
		if err != nil {
			return nil, err
		}
		return p.buf.readSlot(int(l.slot)), nil
	}
	return m.readOverflow(l.pageNo)
}

func (m *Manager) readOverflow(head uint32) ([]byte, error) {
	var out []byte
	no := head
	for no != 0 {
		p, err := m.getPage(no)
		if err != nil {
			return nil, err
		}
		out = append(out, p.buf.ovData()...)
		no = uint32(p.buf.next())
	}
	return out, nil
}

// Exists implements storage.Manager.
func (m *Manager) Exists(oid storage.OID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.dir[oid]
	return ok
}

// ApplyCommit implements storage.Manager. The three phases hold
// different locks:
//
//  1. sequence — append batch + commit record to the WAL buffer under
//     seqMu, fixing this commit's position in the log, and enqueue the
//     ops on the apply queue (same order);
//  2. harden — wait for a group-commit fsync to cover the records,
//     holding no locks (concurrent committers coalesce into one fsync);
//  3. apply — under mu, drain the apply queue up to this commit's
//     sequence, in log order.
//
// Phase 3 batches like phase 2 does: durability of this commit proves
// durability of every earlier-sequenced commit (targets grow with
// sequence numbers and the durable boundary is a log prefix), so the
// first committer of a hardened batch to reach the pool applies the
// whole batch and the rest return without queueing up behind the pool
// lock — the committers of one fsync batch re-arrive at the log
// together, keeping the next batch large.
//
// Log-before-apply is preserved: no page can carry an update whose
// commit record is not durable, so a crash at any point leaves the batch
// entirely visible or entirely invisible after recovery.
//
// A batch with no ops — a read-only transaction — returns immediately
// without logging or fsyncing: there is nothing to make durable, and on
// a read replica this is what lets read transactions commit while all
// writes are rejected with storage.ErrReadOnly.
func (m *Manager) ApplyCommit(txn uint64, ops []storage.Op) error {
	if len(ops) == 0 {
		// A read-only transaction may still have posted events (and set a
		// cause note); there is no commit record to carry it.
		m.takeCommitCause(txn)
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.closed {
			return errClosed
		}
		return nil
	}
	return m.applyCommit(txn, ops, false)
}

// ApplyReplicated applies one replicated transaction's effects through
// the identical sequence → harden → apply path as ApplyCommit, bypassing
// only the read-only gate: it is how the replication applier writes a
// replica's store while every other writer is turned away. The replica
// logs the batch in its own WAL (its LSNs are local; the position in the
// primary's log is tracked by the replica's stream state), so a replica
// crash recovers from local state alone.
func (m *Manager) ApplyReplicated(txn uint64, ops []storage.Op) error {
	return m.applyCommit(txn, ops, true)
}

func (m *Manager) applyCommit(txn uint64, ops []storage.Op, replicated bool) error {
	recs := make([]wal.Record, 0, len(ops)+1)
	var logBytes uint64
	for _, op := range ops {
		switch op.Kind {
		case storage.OpWrite:
			recs = append(recs, wal.Record{Type: wal.RecUpdate, Txn: txn, OID: uint64(op.OID), Data: op.Data})
			logBytes += uint64(len(op.Data)) + 29
		case storage.OpFree:
			recs = append(recs, wal.Record{Type: wal.RecFree, Txn: txn, OID: uint64(op.OID)})
			logBytes += 29
		default:
			return fmt.Errorf("eos: unknown op kind %v", op.Kind)
		}
	}
	crec := wal.Record{Type: wal.RecCommit, Txn: txn}
	note, hasNote := m.takeCommitCause(txn)
	if hasNote {
		crec.Data = obs.EncodeCauseNote(note.self, note.parent)
		logBytes += uint64(len(crec.Data))
	}
	recs = append(recs, crec)

	// 1. Sequence.
	m.seqMu.Lock()
	if m.closed {
		m.seqMu.Unlock()
		return errClosed
	}
	if m.readOnly && !replicated {
		m.seqMu.Unlock()
		return storage.ErrReadOnly
	}
	target, err := m.log.AppendCommit(recs)
	if err != nil {
		m.seqMu.Unlock()
		return err
	}
	e := &applyEntry{seq: m.nextSeq, lsn: uint64(target), ops: ops}
	m.nextSeq++
	m.mu.Lock()
	m.applyQueue = append(m.applyQueue, e)
	m.mu.Unlock()
	m.seqMu.Unlock()

	// 2. Harden (group commit; no locks held).
	durErr := m.log.WaitDurable(target)

	// 3. Apply. Even on a durability error the sequence must be
	// consumed, or every later committer would wait forever.
	m.mu.Lock()
	if durErr != nil {
		// This commit never became durable, so neither did any later
		// one (the WAL's sync error is sticky) — no successful drainer
		// will touch this entry. Earlier entries belong to committers
		// that may still succeed: wait for them in order, then consume
		// this sequence without applying.
		for m.appliedSeq != e.seq {
			m.applyCond.Wait()
		}
		e.skip = true
		m.drainQueueLocked(e.seq)
		m.mu.Unlock()
		// Self-healing: try to clear the wedged WAL so later commits can
		// proceed. This commit still failed — the caller's transaction
		// aborts — but the store stays usable.
		m.healWAL()
		return durErr
	}
	// Durable: every queued entry up to e.seq is durable too. Apply any
	// of them not already applied by an earlier-arriving committer.
	m.stats.LogBytes += logBytes
	m.drainQueueLocked(e.seq)
	applyErr := e.err
	wantCkpt := applyErr == nil && !m.noAutoCkpt && m.reclaimableLocked() > autoCheckpointBytes
	m.mu.Unlock()

	if applyErr != nil {
		return applyErr
	}
	obs.Flight().Record(obs.IncCommit, note.self, note.parent, txn, "")
	if wantCkpt {
		return m.Checkpoint()
	}
	return nil
}

// healWAL attempts to clear a sticky WAL sync error so the store
// survives a transient fsync failure instead of failing every commit
// forever. It fences out new commits (seqMu), waits until every
// sequenced commit has consumed its apply slot — with the sync error
// sticky they all fail fast — and only then asks the log to truncate
// its non-durable suffix and re-verify the file. The pool invariant is
// preserved: only durable commits were ever applied, and Heal discards
// exactly the records that never became durable. Failed heals leave the
// log wedged; the next failing committer retries.
func (m *Manager) healWAL() {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.drainAppliesLocked()
	m.mu.Unlock()
	// Best effort; Heal is a no-op when already healthy.
	if err := m.log.Heal(); err != nil {
		if errors.Is(err, wal.ErrCorrupt) {
			obs.Flight().Record(obs.IncCorrupt, obs.Cause{}, obs.Cause{}, 0, err.Error())
			obs.DumpFlight("wal corruption during heal")
		}
		return
	}
	obs.Flight().Record(obs.IncWALHeal, obs.Cause{}, obs.Cause{}, 0, "")
}

// drainQueueLocked applies (in log order) every queued entry with
// sequence ≤ upTo that has not been drained yet, recording per-entry
// apply errors for their owners. Caller holds mu and guarantees all
// those entries are durable (or skip-marked).
func (m *Manager) drainQueueLocked(upTo uint64) {
	for m.appliedSeq <= upTo {
		// The queue holds exactly the sequenced-but-undrained entries in
		// order, so its head is always the next sequence to apply.
		q := m.applyQueue[0]
		m.applyQueue[0] = nil
		m.applyQueue = m.applyQueue[1:]
		if !q.skip {
			// Capture pre-images before mutating the pool (the chain's
			// first stamp needs the image snapshots pinned below q.lsn
			// still resolve to), but stamp only after every op applied:
			// a partially applied batch must not leave chains claiming
			// images at q.lsn that the base pool never reached.
			pre := m.capturePreImagesLocked(q.ops)
			for _, op := range q.ops {
				if q.err = m.applyOp(op); q.err != nil {
					break
				}
			}
			if q.err == nil {
				m.versions.Stamp(q.lsn, q.ops, pre)
			}
		}
		m.appliedSeq++
	}
	m.applyCond.Broadcast()
}

// preImageLocked returns oid's current committed base image for the
// version store's first-stamp pre-image capture. Caller holds mu.
func (m *Manager) preImageLocked(oid storage.OID) ([]byte, bool) {
	l, ok := m.dir[oid]
	if !ok {
		return nil, false
	}
	data, err := m.readLoc(l)
	if err != nil {
		return nil, false
	}
	return data, true
}

// capturePreImagesLocked reads, before the batch mutates the pool, the
// base images of every op target that has no version chain yet (the
// only objects whose first stamp will ask for a pre-image). The
// returned func feeds those captures to Stamp after the apply. Caller
// holds mu.
func (m *Manager) capturePreImagesLocked(ops []storage.Op) func(storage.OID) ([]byte, bool) {
	type image struct {
		data   []byte
		exists bool
	}
	var captured map[storage.OID]image
	for _, op := range ops {
		if m.versions.HasChain(op.OID) {
			continue
		}
		if _, done := captured[op.OID]; done {
			continue
		}
		if captured == nil {
			captured = make(map[storage.OID]image)
		}
		data, exists := m.preImageLocked(op.OID)
		captured[op.OID] = image{data: data, exists: exists}
	}
	return func(oid storage.OID) ([]byte, bool) {
		img := captured[oid]
		return img.data, img.exists
	}
}

func (m *Manager) applyOp(op storage.Op) error {
	switch op.Kind {
	case storage.OpWrite:
		m.stats.Writes++
		if op.OID >= m.nextOID {
			m.nextOID = op.OID + 1
		}
		return m.write(op.OID, op.Data)
	case storage.OpFree:
		m.stats.Frees++
		return m.free(op.OID)
	default:
		return fmt.Errorf("eos: unknown op kind %v", op.Kind)
	}
}

func (m *Manager) write(oid storage.OID, data []byte) error {
	if l, ok := m.dir[oid]; ok {
		if !l.overflow && len(data) <= MaxInline {
			p, err := m.getPage(l.pageNo)
			if err != nil {
				return err
			}
			if p.buf.writeInPlace(int(l.slot), data) {
				m.markDirty(p)
				return nil
			}
		}
		if err := m.removeLoc(oid, l); err != nil {
			return err
		}
	}
	return m.insert(oid, data)
}

func (m *Manager) insert(oid storage.OID, data []byte) error {
	if len(data) > MaxInline {
		return m.insertOverflow(oid, data)
	}
	// First fit over pages with known free space.
	var target uint32
	for no, free := range m.freeSpace {
		if free >= len(data) {
			target = no
			break
		}
	}
	if target == 0 {
		no, err := m.allocPage(kindSlotted)
		if err != nil {
			return err
		}
		target = no
	}
	p, err := m.getPage(target)
	if err != nil {
		return err
	}
	slot, ok := p.buf.insert(uint64(oid), data)
	if !ok {
		return fmt.Errorf("eos: page %d advertised space but insert failed (oid %d, %d bytes)", target, oid, len(data))
	}
	m.markDirty(p)
	m.dir[oid] = loc{pageNo: target, slot: uint16(slot)}
	m.freeSpace[target] = p.buf.freeSpace()
	return nil
}

func (m *Manager) insertOverflow(oid storage.OID, data []byte) error {
	var head, prev uint32
	for off := 0; off < len(data) || off == 0; off += overflowCapacity {
		end := off + overflowCapacity
		if end > len(data) {
			end = len(data)
		}
		kind := byte(kindOverflowCont)
		if off == 0 {
			kind = kindOverflowHead
		}
		no, err := m.allocPage(kind)
		if err != nil {
			return err
		}
		p, err := m.getPage(no)
		if err != nil {
			return err
		}
		p.buf.init(kind)
		p.buf.setOvOID(uint64(oid))
		p.buf.setOvData(data[off:end])
		m.markDirty(p)
		if off == 0 {
			head = no
		} else {
			pp, err := m.getPage(prev)
			if err != nil {
				return err
			}
			pp.buf.setNext(uint64(no))
			m.markDirty(pp)
		}
		prev = no
	}
	m.dir[oid] = loc{pageNo: head, overflow: true}
	return nil
}

func (m *Manager) free(oid storage.OID) error {
	l, ok := m.dir[oid]
	if !ok {
		return nil // idempotent under replay
	}
	return m.removeLoc(oid, l)
}

// removeLoc drops oid from the directory and frees its storage at l.
// After a crash the store's pages reached disk at different times, so a
// location recovery reads back can be stale: a slot may since have been
// reused, and an overflow head can name continuation pages another
// object now owns or that are already free. removeLoc therefore clears
// only a slot that still names oid and frees only chain pages that still
// belong to oid, stopping at the first that does not (a freed page fails
// the check, which also cuts cycles through stale next-pointers). On a
// consistent store every check passes.
func (m *Manager) removeLoc(oid storage.OID, l loc) error {
	delete(m.dir, oid)
	if !l.overflow {
		p, err := m.getPage(l.pageNo)
		if err != nil {
			return err
		}
		if p.buf.kind() != kindSlotted || int(l.slot) >= p.buf.nslots() {
			return nil
		}
		if s, _, _ := p.buf.slot(int(l.slot)); s != uint64(oid) {
			return nil
		}
		p.buf.remove(int(l.slot))
		m.markDirty(p)
		if p.buf.liveCount() == 0 {
			delete(m.freeSpace, l.pageNo)
			p.buf.init(kindFree)
			m.freePages = append(m.freePages, l.pageNo)
		} else {
			m.freeSpace[l.pageNo] = p.buf.freeSpace()
		}
		return nil
	}
	for no := l.pageNo; no != 0; {
		p, err := m.getPage(no)
		if err != nil {
			return err
		}
		if k := p.buf.kind(); (k != kindOverflowHead && k != kindOverflowCont) || p.buf.ovOID() != uint64(oid) {
			return nil
		}
		no = uint32(p.buf.next())
		p.buf.init(kindFree)
		m.markDirty(p)
		m.freePages = append(m.freePages, p.no)
	}
	return nil
}

// allocPage returns a usable page number, reusing freed pages first.
func (m *Manager) allocPage(kind byte) (uint32, error) {
	if n := len(m.freePages); n > 0 {
		no := m.freePages[n-1]
		m.freePages = m.freePages[:n-1]
		p, err := m.getPage(no)
		if err != nil {
			return 0, err
		}
		p.buf.init(kind)
		m.markDirty(p)
		if kind == kindSlotted {
			m.freeSpace[no] = p.buf.freeSpace()
		}
		return no, nil
	}
	no := m.pageCount
	m.pageCount++
	c := &cached{no: no, buf: make(page, PageSize)}
	c.buf.init(kind)
	c.dirty = true
	m.insertCache(c)
	if kind == kindSlotted {
		m.freeSpace[no] = c.buf.freeSpace()
	}
	if err := m.evictIfNeeded(); err != nil {
		return 0, err
	}
	return no, nil
}

// --- buffer pool ----------------------------------------------------------

func (m *Manager) getPage(no uint32) (*cached, error) {
	if c, ok := m.cache[no]; ok {
		m.stats.CacheHits++
		m.lruMoveFront(c)
		return c, nil
	}
	buf := make(page, PageSize)
	if _, err := m.f.ReadAt(buf, int64(no)*PageSize); err != nil {
		return nil, fmt.Errorf("eos: read page %d: %w", no, err)
	}
	m.stats.PageReads++
	c := &cached{no: no, buf: buf}
	m.insertCache(c)
	if err := m.evictIfNeeded(); err != nil {
		return nil, err
	}
	return c, nil
}

func (m *Manager) markDirty(c *cached) { c.dirty = true }

func (m *Manager) insertCache(c *cached) {
	m.cache[c.no] = c
	c.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = c
	}
	m.lruHead = c
	if m.lruTail == nil {
		m.lruTail = c
	}
	m.lruLen++
}

func (m *Manager) lruMoveFront(c *cached) {
	if m.lruHead == c {
		return
	}
	// Unlink.
	if c.prev != nil {
		c.prev.next = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	if m.lruTail == c {
		m.lruTail = c.prev
	}
	// Relink at front.
	c.prev = nil
	c.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = c
	}
	m.lruHead = c
}

func (m *Manager) evictIfNeeded() error {
	for m.lruLen > m.capacity {
		victim := m.lruTail
		if victim == nil {
			return nil
		}
		if victim.dirty {
			if err := m.flushPage(victim); err != nil {
				return err
			}
		}
		// Unlink tail.
		m.lruTail = victim.prev
		if m.lruTail != nil {
			m.lruTail.next = nil
		} else {
			m.lruHead = nil
		}
		delete(m.cache, victim.no)
		m.lruLen--
	}
	return nil
}

func (m *Manager) flushPage(c *cached) error {
	if _, err := m.f.WriteAt(c.buf, int64(c.no)*PageSize); err != nil {
		return fmt.Errorf("eos: flush page %d: %w", c.no, err)
	}
	m.stats.PageWrites++
	c.dirty = false
	return nil
}

// --- iteration, checkpoint, close ------------------------------------------

// Iterate implements storage.Manager.
func (m *Manager) Iterate(fn func(storage.OID, []byte) error) error {
	m.mu.Lock()
	oids := make([]storage.OID, 0, len(m.dir))
	for oid := range m.dir {
		oids = append(oids, oid)
	}
	m.mu.Unlock()
	for _, oid := range oids {
		data, err := m.Read(oid)
		if errors.Is(err, storage.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(oid, data); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint implements storage.Manager: flush all dirty pages and the
// header, fsync the file, then truncate the WAL. It fences out new
// commits via seqMu and drains in-flight ones (their records must not be
// lost to the truncate) before flushing.
func (m *Manager) Checkpoint() error {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	m.drainAppliesLocked()
	return m.checkpointLocked()
}

// drainAppliesLocked waits (releasing mu while waiting) until every
// sequenced commit has been applied to the pool. Callers hold seqMu, so
// no new commits can sequence meanwhile.
func (m *Manager) drainAppliesLocked() {
	for m.appliedSeq != m.nextSeq {
		m.applyCond.Wait()
	}
}

// keepLSNLocked returns the lowest LSN a checkpoint must retain: the
// end of the log, lowered to the replication pin when one is set (and
// clamped so a lost subscriber can never drag it below the base).
func (m *Manager) keepLSNLocked() wal.LSN {
	keep := m.log.End()
	if m.walPin != nil {
		if p, ok := m.walPin(); ok && p < keep {
			if base := m.log.Base(); p < base {
				p = base
			}
			keep = p
		}
	}
	return keep
}

// reclaimableLocked returns how many log bytes a checkpoint could drop
// right now; the auto-checkpoint trigger uses it instead of the raw log
// size so a stalled replica pinning the log cannot cause a checkpoint
// per commit.
func (m *Manager) reclaimableLocked() int64 {
	return int64(m.keepLSNLocked() - m.log.Base())
}

func (m *Manager) checkpointLocked() error {
	for c := m.lruHead; c != nil; c = c.next {
		if c.dirty {
			if err := m.flushPage(c); err != nil {
				return err
			}
		}
	}
	// Persist the post-truncation base *before* truncating: a crash
	// between the two leaves the header base ahead of the file, which
	// recovery tolerates (replay and replication apply are idempotent);
	// the reverse order would assign already-shipped LSNs to new records.
	end := m.log.End()
	keep := m.keepLSNLocked()
	reclaimed := int64(keep - m.log.Base())
	m.walBase = uint64(keep)
	if err := m.writeHeader(); err != nil {
		return err
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("eos: checkpoint sync: %w", err)
	}
	var err error
	if keep == end {
		err = m.log.Truncate()
	} else {
		err = m.log.TruncateBelow(keep)
	}
	if err != nil {
		return err
	}
	m.stats.Checkpoints++
	if reclaimed > 0 {
		m.stats.WALTruncatedBytes += uint64(reclaimed)
	}
	return nil
}

// Stats implements storage.Manager. Pool counters come from under mu;
// group-commit counters are merged in from the WAL.
func (m *Manager) Stats() storage.Stats {
	m.mu.Lock()
	st := m.stats
	m.mu.Unlock()
	ss := m.log.SyncStats()
	st.Fsyncs = ss.Fsyncs
	st.GroupCommits = ss.Commits
	st.BatchMin = ss.BatchMin
	st.BatchMax = ss.BatchMax
	st.CommitWaitNs = ss.CommitWaitNs
	st.WALHeals = ss.Heals
	return st
}

// Close checkpoints and closes the store.
func (m *Manager) Close() error {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.drainAppliesLocked()
	ckErr := m.checkpointLocked()
	logErr := m.log.Close()
	fErr := m.f.Close()
	m.closed = true
	if ckErr != nil {
		return ckErr
	}
	if logErr != nil {
		return logErr
	}
	return fErr
}

// --- MVCC surface (storage.Versioned) ---------------------------------------

var _ storage.Versioned = (*Manager)(nil)

// SnapshotLSN implements storage.Versioned: the newest commit LSN whose
// effects are fully applied to the pool. On a replica this is the last
// applied replicated commit, so snapshots are consistent-as-of-that-LSN.
func (m *Manager) SnapshotLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions.Durable()
}

// PinSnapshot implements storage.Versioned.
func (m *Manager) PinSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions.Pin()
}

// UnpinSnapshot implements storage.Versioned.
func (m *Manager) UnpinSnapshot(lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.versions.Unpin(lsn)
}

// ReadAt implements storage.Versioned: the committed image of oid as of
// lsn. Like Read it takes only the pool lock — never seqMu — so snapshot
// reads proceed while committers wait on fsyncs; stamping happens in the
// same critical section as pool application, so a reader always sees
// chain and base in agreement.
func (m *Manager) ReadAt(oid storage.OID, lsn uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	if data, live, resolved := m.versions.Lookup(oid, lsn); resolved {
		if !live {
			return nil, fmt.Errorf("%w: oid %d as of lsn %d", storage.ErrNotFound, oid, lsn)
		}
		m.stats.Reads++
		return data, nil
	}
	// No chain: the object has not changed since its chain was trimmed
	// (or ever), so the base image is the image as of lsn.
	l, ok := m.dir[oid]
	if !ok {
		return nil, fmt.Errorf("%w: oid %d", storage.ErrNotFound, oid)
	}
	m.stats.Reads++
	return m.readLoc(l)
}

// ExistsAt implements storage.Versioned.
func (m *Manager) ExistsAt(oid storage.OID, lsn uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if _, live, resolved := m.versions.Lookup(oid, lsn); resolved {
		return live
	}
	_, ok := m.dir[oid]
	return ok
}

// VersionStats implements storage.Versioned.
func (m *Manager) VersionStats() storage.VersionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions.Stats()
}

// GCVersions implements storage.Versioned.
func (m *Manager) GCVersions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions.GC()
}

// --- replication surface ----------------------------------------------------

// SnapObject is one object image in a store snapshot.
type SnapObject struct {
	OID  storage.OID
	Data []byte
}

// Export produces a consistent snapshot of the whole store: every
// committed object image plus the OID allocator, together with the
// snapshot LSN — the end of the log at a moment when the pool equals a
// replay of the entire log. New commits are fenced out (seqMu) and
// in-flight ones drained, so the triple (lsn, nextOID, objects) is
// exactly the state a replica that then streams records from lsn will
// extend. Used for replica bootstrap when the subscriber's position has
// been checkpoint-truncated away.
func (m *Manager) Export() (lsn wal.LSN, nextOID storage.OID, objs []SnapObject, err error) {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, nil, errClosed
	}
	m.drainAppliesLocked()
	lsn = m.log.End()
	objs = make([]SnapObject, 0, len(m.dir))
	for oid, l := range m.dir {
		data, err := m.readLoc(l)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("eos: export oid %d: %w", oid, err)
		}
		objs = append(objs, SnapObject{OID: oid, Data: data})
	}
	return lsn, m.nextOID, objs, nil
}

// ExportDigests produces a consistent per-object digest inventory of
// the store under the same commit fence as Export: the returned item
// set (OID, content digest) is exactly the state a replay of the log up
// to the returned LSN produces. This is the anti-entropy capture point:
// reconciling two digest inventories yields the divergent OIDs without
// shipping any object images.
func (m *Manager) ExportDigests() (lsn wal.LSN, nextOID storage.OID, items []antientropy.Item, err error) {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, nil, errClosed
	}
	m.drainAppliesLocked()
	lsn = m.log.End()
	items = make([]antientropy.Item, 0, len(m.dir))
	for oid, l := range m.dir {
		data, err := m.readLoc(l)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("eos: export digest oid %d: %w", oid, err)
		}
		items = append(items, antientropy.Item{Key: uint64(oid), Digest: antientropy.Digest(data)})
	}
	return lsn, m.nextOID, items, nil
}

// classOfImage extracts the catalog class ID from a stored object's
// envelope (the obj package's format: version byte 1, a flags byte,
// then a little-endian uint32 class ID). Images without a decodable
// envelope — system pages, foreign formats — fold into class 0. The
// mapping only has to be consistent on both sides of an exchange, and
// a pure function of the bytes is.
func classOfImage(data []byte) uint32 {
	if len(data) >= 6 && data[0] == 1 {
		return binary.LittleEndian.Uint32(data[2:6])
	}
	return 0
}

// ExportClassDigests is ExportDigests with each item tagged by its
// object's catalog class, under the same commit fence. The tags let
// anti-entropy partition the digest walk per class and scope a
// reconciliation to a single class (antientropy.FilterClass) instead
// of the whole store.
func (m *Manager) ExportClassDigests() (lsn wal.LSN, nextOID storage.OID, items []antientropy.ClassItem, err error) {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, nil, errClosed
	}
	m.drainAppliesLocked()
	lsn = m.log.End()
	items = make([]antientropy.ClassItem, 0, len(m.dir))
	for oid, l := range m.dir {
		data, err := m.readLoc(l)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("eos: export class digest oid %d: %w", oid, err)
		}
		items = append(items, antientropy.ClassItem{
			Item:  antientropy.Item{Key: uint64(oid), Digest: antientropy.Digest(data)},
			Class: classOfImage(data),
		})
	}
	return lsn, m.nextOID, items, nil
}

// ObjectCount returns the number of live objects in the store.
func (m *Manager) ObjectCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dir)
}

// EnsureNextOID raises the OID allocator to at least next. Anti-entropy
// repair uses it to carry the primary's allocator over to a repaired
// replica so a later promotion cannot re-issue OIDs the primary already
// handed out.
func (m *Manager) EnsureNextOID(next storage.OID) {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if next > m.nextOID {
		m.nextOID = next
	}
}

// ImportSnapshot replaces the store's entire contents with a snapshot
// produced by a primary's Export: the pool and file are reset to just
// the header page, every object is inserted, and a checkpoint makes the
// result durable. The snapshot's LSN is the *primary's* position and is
// tracked by the replication stream state, not by this store — the
// replica's own WAL keeps its own (local) LSNs.
func (m *Manager) ImportSnapshot(nextOID storage.OID, objs []SnapObject) error {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	if m.versions.Pins() > 0 {
		// Open snapshot transactions would silently observe the imported
		// state mid-transaction; make the stream retry instead. A replica
		// serving long reads converges once those snapshots close.
		return ErrSnapshotsPinned
	}
	m.drainAppliesLocked()
	m.cache = make(map[uint32]*cached)
	m.lruHead, m.lruTail, m.lruLen = nil, nil, 0
	m.dir = make(map[storage.OID]loc)
	m.freeSpace = make(map[uint32]int)
	m.freePages = nil
	if err := m.f.Truncate(PageSize); err != nil {
		return fmt.Errorf("eos: import: reset file: %w", err)
	}
	m.pageCount = 1
	m.nextOID = 1
	for _, o := range objs {
		if err := m.applyOp(storage.Op{Kind: storage.OpWrite, OID: o.OID, Data: o.Data}); err != nil {
			return fmt.Errorf("eos: import oid %d: %w", o.OID, err)
		}
	}
	if nextOID > m.nextOID {
		m.nextOID = nextOID
	}
	// The imported state replaces all history; old version chains go
	// with it. No pins exist (checked above), so no open snapshot can
	// observe the switch.
	m.versions.Reset(uint64(m.log.End()))
	return m.checkpointLocked()
}

// SetReadOnly flips the store's read-only gate. While set, ApplyCommit
// rejects every batch that carries ops with storage.ErrReadOnly;
// empty (read-only transaction) commits and ApplyReplicated still pass.
func (m *Manager) SetReadOnly(ro bool) {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	m.readOnly = ro
	m.mu.Unlock()
}

// ReadOnly reports whether the read-only gate is set.
func (m *Manager) ReadOnly() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readOnly
}

// SetWALPin installs (or, with nil, removes) the checkpoint truncation
// bound. fn is called with the pool lock held and must be cheap and
// reentrancy-free; returning ok=false means "no pin right now".
func (m *Manager) SetWALPin(fn func() (wal.LSN, bool)) {
	m.seqMu.Lock()
	defer m.seqMu.Unlock()
	m.mu.Lock()
	m.walPin = fn
	m.mu.Unlock()
}

// Log exposes the store's write-ahead log. The replication hub reads
// durable records and registers its wakeup through it; nothing else
// should touch the log directly.
func (m *Manager) Log() *wal.Log { return m.log }

// --- small helpers ----------------------------------------------------------

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
