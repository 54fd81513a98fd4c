// Package txn implements Ode's transaction manager: strict-2PL
// transactions over a storage.Manager, with the hook points the trigger
// run-time needs for §5.5's transaction-related functionality.
//
// A transaction buffers its writes in a private write set (no-steal), so
// rollback — including the rollback of trigger FSM states demanded by §5.5
// ("a CredCardAutoRaiseLimitStruct's value is rolled back to the value it
// had at the beginning of the transaction") — is simply discarding the
// write set. Commit turns the write set into one atomic ApplyCommit batch.
//
// Hook points:
//
//   - OnBeforeCommit: run inside the transaction just before it attempts
//     to commit. The trigger engine uses this to fire `end` (deferred)
//     triggers and to post the before-tcomplete transaction event. Hooks
//     appended while hooks run are also executed (an end trigger's action
//     can satisfy further end triggers).
//   - OnAfterCommit: run after the commit is durable, outside all locks.
//     The trigger engine launches `dependent` and `!dependent` system
//     transactions here — the dependent list's commit dependency is
//     satisfied by construction, because the hooks only run if the event-
//     detecting transaction actually committed.
//   - OnAfterAbort: run after rollback. Only `!dependent` actions appear
//     here (§5.5: the abort routine checks the !dependent list after
//     finishing normal rollback work).
//
// A trigger action's tabort statement maps to RequestAbort: the
// transaction is marked doomed, and the commit attempt turns into an
// abort returning ErrAborted.
package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ode/internal/lock"
	"ode/internal/obs"
	"ode/internal/storage"
)

// ID identifies a transaction.
type ID uint64

// State is a transaction's lifecycle state.
type State uint8

const (
	// Active transactions accept reads and writes.
	Active State = iota
	// Committed transactions applied their effects durably.
	Committed
	// Aborted transactions discarded their effects.
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Errors returned by transaction operations.
var (
	// ErrNotActive reports an operation on a finished transaction.
	ErrNotActive = errors.New("txn: transaction not active")
	// ErrAborted is returned by Commit when the transaction was doomed by
	// RequestAbort (the trigger language's tabort) or aborted internally.
	ErrAborted = errors.New("txn: transaction aborted")
	// ErrSnapshotWrite reports a write (or exclusive lock) attempted in a
	// snapshot transaction. Snapshot transactions are read-only by
	// construction; retry the work in a regular transaction.
	ErrSnapshotWrite = errors.New("txn: snapshot transaction is read-only")
	// ErrNoVersions reports BeginSnapshot over a storage manager that
	// does not implement storage.Versioned.
	ErrNoVersions = errors.New("txn: storage manager keeps no versions (snapshot reads unavailable)")
)

// Manager creates and tracks transactions over one storage manager and
// one lock manager.
type Manager struct {
	store  storage.Manager
	locks  *lock.Manager
	nextID atomic.Uint64

	// commitObs, when set, receives the wall-clock duration of each
	// successful ApplyCommit call — on the eos manager this is the WAL
	// group-commit wait, the durability price of one transaction. The
	// observability layer feeds it into the txn.commit_wait_ns histogram.
	commitObs atomic.Pointer[func(time.Duration)]

	// Outcome counters, exposed by RegisterMetrics. Atomic, so the
	// snapshot read path touches no mutex at all.
	begun, committed, aborted, system, snapshots, snapReads obs.Counter
}

// NewManager returns a transaction manager bound to store and locks.
func NewManager(store storage.Manager, locks *lock.Manager) *Manager {
	return &Manager{store: store, locks: locks}
}

// Store exposes the underlying storage manager.
func (m *Manager) Store() storage.Manager { return m.store }

// Locks exposes the lock manager.
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Begin starts a user transaction.
func (m *Manager) Begin() *Txn { return m.begin(false) }

// BeginSystem starts a system transaction: "a transaction not explicitly
// requested by the user, but required for trigger processing" (§5.5).
func (m *Manager) BeginSystem() *Txn { return m.begin(true) }

func (m *Manager) begin(system bool) *Txn {
	id := ID(m.nextID.Add(1))
	m.begun.Inc()
	if system {
		m.system.Inc()
	}
	return &Txn{
		id:     id,
		system: system,
		m:      m,
		writes: make(map[storage.OID]*writeEntry),
	}
}

// BeginSnapshot starts a snapshot transaction: a read-only transaction
// that pins the storage manager's current snapshot LSN and serves every
// read from the newest version ≤ that LSN — with zero calls into the
// lock manager, so it can never wait and never deadlock. Writers keep
// strict 2PL unchanged and never see the snapshot. Returns
// ErrNoVersions when the store is not versioned.
func (m *Manager) BeginSnapshot() (*Txn, error) {
	v, ok := m.store.(storage.Versioned)
	if !ok {
		return nil, ErrNoVersions
	}
	id := ID(m.nextID.Add(1))
	m.begun.Inc()
	m.snapshots.Inc()
	return &Txn{
		id:      id,
		m:       m,
		snap:    v,
		snapLSN: v.PinSnapshot(),
		pinned:  true,
	}, nil
}

// RegisterMetrics exposes the transaction counters on r, plus the
// snapshot LSN gauge when the store keeps versions. Names are
// documented in docs/OBSERVABILITY.md.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.Func("txn.begun", "count", "transactions started", m.begun.Value)
	r.Func("txn.committed", "count", "transactions committed durably", m.committed.Value)
	r.Func("txn.aborted", "count", "transactions rolled back (explicit, doomed, deadlock victim, failed commit)", m.aborted.Value)
	r.Func("txn.system", "count", "system transactions begun for detached trigger processing (§5.5)", m.system.Value)
	r.Func("txn.snapshots", "count", "snapshot (lock-free read-only) transactions begun", m.snapshots.Value)
	r.Func("txn.snapshot_reads", "count", "object reads served from a pinned snapshot, bypassing the lock manager", m.snapReads.Value)
	if v, ok := m.store.(storage.Versioned); ok {
		r.Func("txn.snapshot_lsn", "lsn", "commit LSN a snapshot transaction begun now would pin", v.SnapshotLSN)
	}
}

// SetCommitObserver installs fn to be called with each committed
// transaction's ApplyCommit duration (nil uninstalls). The previous
// observer, if any, is replaced.
func (m *Manager) SetCommitObserver(fn func(time.Duration)) {
	if fn == nil {
		m.commitObs.Store(nil)
		return
	}
	m.commitObs.Store(&fn)
}

// writeEntry is one buffered effect.
type writeEntry struct {
	data  []byte // nil when freed
	freed bool
}

// Txn is one transaction. A Txn is used by a single goroutine at a time
// (Ode applications are single-threaded per transaction; concurrency
// comes from multiple transactions).
type Txn struct {
	id     ID
	system bool
	state  State
	m      *Manager

	writes map[storage.OID]*writeEntry
	order  []storage.OID // first-touch order for deterministic batches

	// Snapshot mode (BeginSnapshot): snap serves versioned reads as of
	// snapLSN; pinned guards the exactly-once unpin at commit/rollback.
	snap    storage.Versioned
	snapLSN uint64
	pinned  bool

	beforeCommit []func(*Txn) error
	beforeAbort  []func(*Txn)
	afterCommit  []func()
	afterAbort   []func()

	doomed bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() ID { return t.id }

// State returns the lifecycle state.
func (t *Txn) State() State { return t.state }

// IsSystem reports whether this is a system transaction.
func (t *Txn) IsSystem() bool { return t.system }

// IsSnapshot reports whether this is a snapshot (lock-free read-only)
// transaction.
func (t *Txn) IsSnapshot() bool { return t.snap != nil }

// SnapshotLSN returns the pinned snapshot LSN (0 for regular
// transactions).
func (t *Txn) SnapshotLSN() uint64 { return t.snapLSN }

// Doomed reports whether RequestAbort was called.
func (t *Txn) Doomed() bool { return t.doomed }

// Manager returns the owning transaction manager.
func (t *Txn) Manager() *Manager { return t.m }

// LockShared acquires a shared lock for the transaction, translating a
// deadlock victimization into an automatic abort.
func (t *Txn) LockShared(r lock.Resource) error { return t.lock(r, lock.Shared) }

// LockExclusive acquires an exclusive lock (or upgrades a shared one).
func (t *Txn) LockExclusive(r lock.Resource) error { return t.lock(r, lock.Exclusive) }

func (t *Txn) lock(r lock.Resource, mode lock.Mode) error {
	if t.state != Active {
		return ErrNotActive
	}
	if t.snap != nil {
		// Snapshot transactions read pinned versions: shared locks are
		// unnecessary (the version can't change) and exclusive ones are
		// forbidden — zero calls into the lock manager either way.
		if mode == lock.Exclusive {
			return ErrSnapshotWrite
		}
		return nil
	}
	if err := t.m.locks.Lock(lock.TxnID(t.id), r, mode); err != nil {
		if errors.Is(err, lock.ErrDeadlock) {
			// Victim: roll back so the survivor can proceed. The
			// deadlock cause stays in the chain (errors.Is works for
			// both ErrAborted and lock.ErrDeadlock), so the trigger
			// engine can classify the abort as retryable.
			t.rollback()
			return fmt.Errorf("%w: %w", ErrAborted, err)
		}
		return err
	}
	return nil
}

// NewOID reserves a fresh OID. The object exists once Write commits.
func (t *Txn) NewOID() (storage.OID, error) {
	if t.state != Active {
		return storage.InvalidOID, ErrNotActive
	}
	if t.snap != nil {
		return storage.InvalidOID, ErrSnapshotWrite
	}
	return t.m.store.ReserveOID()
}

// Read returns the object image visible to this transaction:
// read-your-writes over the committed store.
func (t *Txn) Read(oid storage.OID) ([]byte, error) {
	if t.state != Active {
		return nil, ErrNotActive
	}
	if t.snap != nil {
		data, err := t.snap.ReadAt(oid, t.snapLSN)
		if err == nil {
			t.m.snapReads.Inc()
		}
		return data, err
	}
	if w, ok := t.writes[oid]; ok {
		if w.freed {
			return nil, fmt.Errorf("%w: oid %d (freed in this transaction)", storage.ErrNotFound, oid)
		}
		out := make([]byte, len(w.data))
		copy(out, w.data)
		return out, nil
	}
	return t.m.store.Read(oid)
}

// Exists reports object visibility to this transaction.
func (t *Txn) Exists(oid storage.OID) bool {
	if t.state != Active {
		return false
	}
	if t.snap != nil {
		return t.snap.ExistsAt(oid, t.snapLSN)
	}
	if w, ok := t.writes[oid]; ok {
		return !w.freed
	}
	return t.m.store.Exists(oid)
}

// Write buffers a create-or-replace of oid.
func (t *Txn) Write(oid storage.OID, data []byte) error {
	if t.state != Active {
		return ErrNotActive
	}
	if t.snap != nil {
		return ErrSnapshotWrite
	}
	img := make([]byte, len(data))
	copy(img, data)
	if w, ok := t.writes[oid]; ok {
		w.data, w.freed = img, false
		return nil
	}
	t.writes[oid] = &writeEntry{data: img}
	t.order = append(t.order, oid)
	return nil
}

// Free buffers a deletion of oid.
func (t *Txn) Free(oid storage.OID) error {
	if t.state != Active {
		return ErrNotActive
	}
	if t.snap != nil {
		return ErrSnapshotWrite
	}
	if w, ok := t.writes[oid]; ok {
		w.data, w.freed = nil, true
		return nil
	}
	t.writes[oid] = &writeEntry{freed: true}
	t.order = append(t.order, oid)
	return nil
}

// WriteCount reports the number of distinct objects touched (tests).
func (t *Txn) WriteCount() int { return len(t.writes) }

// OnBeforeCommit registers fn to run inside the transaction just before
// commit; see the package comment.
func (t *Txn) OnBeforeCommit(fn func(*Txn) error) { t.beforeCommit = append(t.beforeCommit, fn) }

// OnBeforeAbort registers fn to run inside the transaction just before an
// *explicit* abort rolls back — the window in which Ode posts the
// before-tabort transaction event (§5.5: the event enters the stream
// "just before the system aborts a transaction in response to a
// transaction abort request in Ode code"). The hook's own writes are
// rolled back moments later; only detached (!dependent) side effects it
// schedules survive. Internal rollbacks (deadlock victims, failed
// commits) do not run these hooks.
func (t *Txn) OnBeforeAbort(fn func(*Txn)) { t.beforeAbort = append(t.beforeAbort, fn) }

// OnAfterCommit registers fn to run once the commit is durable.
func (t *Txn) OnAfterCommit(fn func()) { t.afterCommit = append(t.afterCommit, fn) }

// OnAfterAbort registers fn to run after rollback.
func (t *Txn) OnAfterAbort(fn func()) { t.afterAbort = append(t.afterAbort, fn) }

// RequestAbort dooms the transaction: the O++ tabort statement. The
// rollback happens at the end of the enclosing operation (Commit returns
// ErrAborted), matching the paper's semantics where the trigger action
// completes and the transaction then aborts.
func (t *Txn) RequestAbort() { t.doomed = true }

// Commit attempts to commit. Before-commit hooks run first (growing the
// hook list from inside a hook is allowed); a hook error or a doomed
// transaction turns the commit into an abort returning the cause.
func (t *Txn) Commit() error {
	if t.state != Active {
		return ErrNotActive
	}
	if t.doomed {
		// The tabort path is an explicit abort request in Ode code:
		// before-abort hooks (before-tabort event posting) run first.
		t.runBeforeAbort()
		t.rollback()
		return ErrAborted
	}
	for i := 0; i < len(t.beforeCommit); i++ {
		if err := t.beforeCommit[i](t); err != nil {
			t.rollback()
			return fmt.Errorf("%w: before-commit hook: %w", ErrAborted, err)
		}
		if t.doomed {
			t.rollback()
			return ErrAborted
		}
	}
	ops := make([]storage.Op, 0, len(t.order))
	for _, oid := range t.order {
		w := t.writes[oid]
		if w.freed {
			ops = append(ops, storage.Op{Kind: storage.OpFree, OID: oid})
		} else {
			ops = append(ops, storage.Op{Kind: storage.OpWrite, OID: oid, Data: w.data})
		}
	}
	// A snapshot transaction has an empty write set by construction;
	// skipping the store call keeps its commit as lock-free as its reads
	// (no exclusive section, no group-commit queue).
	if t.snap == nil {
		obsFn := t.m.commitObs.Load()
		var applyStart time.Time
		if obsFn != nil {
			applyStart = time.Now()
		}
		if err := t.m.store.ApplyCommit(uint64(t.id), ops); err != nil {
			t.rollback()
			return fmt.Errorf("%w: apply: %w", ErrAborted, err)
		}
		if obsFn != nil {
			(*obsFn)(time.Since(applyStart))
		}
	}
	t.state = Committed
	t.unpin()
	t.m.locks.ReleaseAll(lock.TxnID(t.id))
	t.m.committed.Inc()
	for _, fn := range t.afterCommit {
		fn()
	}
	return nil
}

// unpin releases the snapshot pin exactly once, re-enabling version GC
// below this transaction's LSN.
func (t *Txn) unpin() {
	if t.pinned {
		t.pinned = false
		t.snap.UnpinSnapshot(t.snapLSN)
	}
}

// Abort rolls the transaction back explicitly. Before-abort hooks run
// first, inside the still-active transaction.
func (t *Txn) Abort() error {
	if t.state != Active {
		return ErrNotActive
	}
	t.runBeforeAbort()
	t.rollback()
	return nil
}

func (t *Txn) runBeforeAbort() {
	for i := 0; i < len(t.beforeAbort); i++ {
		t.beforeAbort[i](t)
	}
}

// rollback discards the write set (undoing object and trigger-state
// changes alike), releases locks, and runs the after-abort hooks.
func (t *Txn) rollback() {
	t.state = Aborted
	t.unpin()
	t.writes = nil
	t.order = nil
	t.m.locks.ReleaseAll(lock.TxnID(t.id))
	t.m.aborted.Inc()
	for _, fn := range t.afterAbort {
		fn()
	}
}
