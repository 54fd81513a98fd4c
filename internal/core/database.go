package core

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/fsm"
	"ode/internal/lock"
	"ode/internal/obj"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/txn"
)

// Ref is a persistent pointer: the typed handle through which member
// functions must be invoked for events to be posted (§5.3).
type Ref struct {
	oid storage.OID
}

// NilRef is the persistent null pointer.
var NilRef = Ref{}

// OID exposes the underlying object identifier.
func (r Ref) OID() storage.OID { return r.oid }

// IsNil reports whether the reference is the persistent null.
func (r Ref) IsNil() bool { return r.oid == storage.InvalidOID }

func (r Ref) String() string { return fmt.Sprintf("ref(%d)", r.oid) }

// RefFromOID rebuilds a Ref from a raw OID (cross-process handles, the
// inspect tool).
func RefFromOID(oid storage.OID) Ref { return Ref{oid} }

// TriggerIDFromOID rebuilds a TriggerID from a raw OID (handles passed
// across process or network boundaries).
func TriggerIDFromOID(oid storage.OID) TriggerID { return TriggerID{oid} }

// TriggerID identifies one trigger activation; it deactivates the
// activation (§4.1). Its OID is that of the persistent TriggerState.
type TriggerID struct {
	oid storage.OID
}

// IsNil reports an empty TriggerID.
func (t TriggerID) IsNil() bool { return t.oid == storage.InvalidOID }

// OID exposes the TriggerState object's identifier.
func (t TriggerID) OID() storage.OID { return t.oid }

func (t TriggerID) String() string { return fmt.Sprintf("trigger(%d)", t.oid) }

// Errors of the core layer.
var (
	// ErrUnknownClass reports an unregistered class.
	ErrUnknownClass = errors.New("core: class not registered with this database")
	// ErrUnknownMethod reports an Invoke of an undeclared method.
	ErrUnknownMethod = errors.New("core: unknown method")
	// ErrUnknownTrigger reports activation of an undeclared trigger.
	ErrUnknownTrigger = errors.New("core: unknown trigger")
	// ErrUnknownEvent reports posting of an undeclared user event.
	ErrUnknownEvent = errors.New("core: unknown or undeclared event")
	// ErrNotFound re-exports the storage not-found error.
	ErrNotFound = storage.ErrNotFound
	// ErrReadOnly re-exports the storage read-only error: the database
	// is serving as a read replica and the mutation must be sent to the
	// primary instead. The server layer attaches the primary's address
	// as a redirect when it sees this error.
	ErrReadOnly = storage.ErrReadOnly
	// ErrSnapshotWrite re-exports the txn-layer error returned when a
	// snapshot (lock-free read-only) transaction attempts a write or an
	// exclusive lock. Rerun the work in a regular transaction.
	ErrSnapshotWrite = txn.ErrSnapshotWrite
	// ErrNoVersions re-exports the txn-layer error BeginSnapshot returns
	// when the storage manager keeps no version chains.
	ErrNoVersions = txn.ErrNoVersions
)

// BoundTrigger is the run-time TriggerInfo of §5.4.4: the compiled FSM,
// the action, the perpetual flag, and the coupling mode, stored in the
// type descriptor of the defining class.
type BoundTrigger struct {
	Def     *TriggerDef
	Machine *fsm.Machine
	owner   *BoundClass
}

// Name returns the trigger name.
func (bt *BoundTrigger) Name() string { return bt.Def.Name }

// BoundClass is the compiler-generated type descriptor (the paper's
// type_CredCard, §5.2): per-database, per-class run-time machinery. FSMs
// are compiled when the class is registered — the paper's
// "compile an FSM every time" decision (§5.1.3) — and shared by every
// object of the class.
type BoundClass struct {
	Def *Class
	// ID is the catalog class identifier within this database.
	ID uint32
	db *Database

	// eventIDs maps the expression-language spelling to the run-time ID.
	eventIDs map[string]event.ID
	alphabet []event.ID
	// methodEvents precomputes each method's before/after event IDs
	// (event.None when not declared) — the wrapper-function decision of
	// §5.3 made at bind time.
	methodEvents map[string]methodEvents
	// ownTriggers is the §5.4.4 TriggerInfo array, indexed by triggernum.
	ownTriggers []*BoundTrigger
	// triggersByName includes inherited triggers for activation.
	triggersByName map[string]*BoundTrigger
}

type methodEvents struct {
	before, after event.ID
}

// Name returns the class name.
func (bc *BoundClass) Name() string { return bc.Def.name }

// EventID resolves a declared event spelling ("after Buy") to its ID.
func (bc *BoundClass) EventID(key string) (event.ID, bool) {
	id, ok := bc.eventIDs[key]
	return id, ok
}

// TriggerByName finds an activatable trigger (own or inherited).
func (bc *BoundClass) TriggerByName(name string) (*BoundTrigger, bool) {
	bt, ok := bc.triggersByName[name]
	return bt, ok
}

// Database is one Ode database: a storage manager plus the object and
// trigger run-time. All sessions (and, through a shared store file,
// processes) see the same persistent TriggerStates, which is what makes
// Ode's composite events global (§7).
type Database struct {
	store storage.Manager
	lm    *lock.Manager
	tm    *txn.Manager
	om    *obj.Manager
	reg   *event.Registry

	mu         sync.RWMutex
	byName     map[string]*BoundClass
	byID       map[uint32]*BoundClass
	txnStates  map[txn.ID]*txnState
	detachWait sync.WaitGroup

	// Observability (see observe.go): the metric registry holding this
	// engine's counters/histograms beside those the storage, txn, and
	// lock managers register, and the sampled firing-trace recorder.
	obsReg *obs.Registry
	met    *coreMetrics
	tracer *obs.Tracer

	// readOnly marks the database a read replica: every mutating entry
	// point fails fast with ErrReadOnly. Reads, read-only method
	// invocations, and transient local triggers still work; the
	// replication applier writes beneath this layer, directly through
	// the store. Promotion flips it off.
	readOnly atomic.Bool

	// Causal provenance (see obs.Cause): every posted basic event gets a
	// cause ID from causes, parent-linked when posted from inside a
	// trigger action so cascades form a chain. provenance gates
	// assignment (on by default, and in every bench/ ledger run). cc, when the store supports it, carries each transaction's
	// originating cause into its WAL commit record so replicas — and
	// post-failover composite completions — are attributed to the
	// primary-side event.
	causes     *obs.Causes
	provenance atomic.Bool
	cc         commitCauser

	// shardSt, when set, makes this database one shard of a cluster:
	// postings to remote-owned refs are captured to a transactional
	// outbox instead of applied locally. See shard.go and
	// docs/SHARDING.md.
	shardSt atomic.Pointer[shardState]
}

// commitCauser is the optional storage hook for commit-record cause
// notes; storage/eos implements it.
type commitCauser interface {
	SetCommitCause(txn uint64, self, parent obs.Cause)
	ClearCommitCause(txn uint64)
}

// NewDatabase opens a database over an already-opened storage manager.
// The caller owns the storage manager's lifetime; Close closes it.
func NewDatabase(store storage.Manager) (*Database, error) {
	lm := lock.NewManager()
	tm := txn.NewManager(store, lm)
	om, err := obj.New(tm)
	if err != nil {
		return nil, err
	}
	obsReg, met, tracer := wireObservability(store, tm, lm)
	cc, _ := store.(commitCauser)
	db := &Database{
		store:     store,
		lm:        lm,
		tm:        tm,
		om:        om,
		reg:       event.NewRegistry(),
		byName:    make(map[string]*BoundClass),
		byID:      make(map[uint32]*BoundClass),
		txnStates: make(map[txn.ID]*txnState),
		obsReg:    obsReg,
		met:       met,
		tracer:    tracer,
		causes:    obs.NewCauses(),
		cc:        cc,
	}
	db.provenance.Store(true)
	return db, nil
}

// SetProvenance enables or disables cause-ID assignment (on by
// default).
func (db *Database) SetProvenance(on bool) { db.provenance.Store(on) }

// Causes returns the database's cause-ID source (tests pin the node ID
// through it to make cross-node attribution deterministic).
func (db *Database) Causes() *obs.Causes { return db.causes }

// noteCommitCause attaches (self, parent) to tx's eventual WAL commit
// record, when the store can carry it.
func (db *Database) noteCommitCause(tx *txn.Txn, self, parent obs.Cause) {
	if db.cc != nil {
		db.cc.SetCommitCause(uint64(tx.ID()), self, parent)
	}
}

// clearCommitCause drops a pending note (the transaction aborted, so
// its commit record will never be written).
func (db *Database) clearCommitCause(tx *txn.Txn) {
	if db.cc != nil {
		db.cc.ClearCommitCause(uint64(tx.ID()))
	}
}

// Detached-execution retry policy (§5.5 self-healing): a dependent or
// !dependent firing whose system transaction aborts for a transient
// reason (deadlock victim, commit failure) is retried up to
// detachedRetryBudget times, sleeping detachedBackoffStart doubled per
// retry up to detachedBackoffCap. Six retries resolve every plausible
// deadlock/transient-commit storm without stalling the committing
// goroutine for more than ~100ms in the worst case.
const (
	detachedRetryBudget  = 6
	detachedBackoffStart = time.Millisecond
	detachedBackoffCap   = 50 * time.Millisecond
)

// SetReadOnly flips the database's replica gate; see the readOnly field.
func (db *Database) SetReadOnly(ro bool) { db.readOnly.Store(ro) }

// ReadOnly reports whether the database rejects mutations.
func (db *Database) ReadOnly() bool { return db.readOnly.Load() }

// writable is the guard every mutating entry point calls first.
func (db *Database) writable() error {
	if db.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// Store returns the storage manager.
func (db *Database) Store() storage.Manager { return db.store }

// Locks returns the lock manager.
func (db *Database) Locks() *lock.Manager { return db.lm }

// Txns returns the transaction manager.
func (db *Database) Txns() *txn.Manager { return db.tm }

// Registry returns the database's event registry.
func (db *Database) Registry() *event.Registry { return db.reg }

// Close waits for in-flight detached trigger transactions and closes the
// storage manager.
func (db *Database) Close() error {
	db.detachWait.Wait()
	return db.store.Close()
}

// Register binds class definitions to this database: catalog IDs are
// assigned, events get their unique run-time integers, and every
// trigger's event expression is compiled to its FSM. Parents must be
// registered before (or along with) derived classes.
func (db *Database) Register(classes ...*Class) error {
	// Sort so parents bind before children when passed together.
	ordered := topoOrder(classes)
	tx := db.tm.Begin()
	pending := make(map[string]*BoundClass)
	var bound []*BoundClass
	for _, c := range ordered {
		bc, err := db.bind(tx, c, pending)
		if err != nil {
			tx.Abort()
			return err
		}
		pending[bc.Def.name] = bc
		bound = append(bound, bc)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	db.mu.Lock()
	for _, bc := range bound {
		db.byName[bc.Def.name] = bc
		db.byID[bc.ID] = bc
	}
	db.mu.Unlock()
	return nil
}

// topoOrder returns classes with parents before children.
func topoOrder(classes []*Class) []*Class {
	var out []*Class
	seen := map[*Class]bool{}
	inSet := map[*Class]bool{}
	for _, c := range classes {
		inSet[c] = true
	}
	var visit func(c *Class)
	visit = func(c *Class) {
		if seen[c] {
			return
		}
		seen[c] = true
		for _, p := range c.parents {
			if inSet[p] {
				visit(p)
			}
		}
		out = append(out, c)
	}
	for _, c := range classes {
		visit(c)
	}
	return out
}

// bind builds the type descriptor for one class. pending holds classes
// bound earlier in the same Register batch.
func (db *Database) bind(tx *txn.Txn, c *Class, pending map[string]*BoundClass) (*BoundClass, error) {
	lookup := func(name string) (*BoundClass, bool) {
		if bc, ok := pending[name]; ok {
			return bc, true
		}
		db.mu.RLock()
		bc, ok := db.byName[name]
		db.mu.RUnlock()
		return bc, ok
	}
	if existing, ok := lookup(c.name); ok {
		if existing.Def != c {
			return nil, fmt.Errorf("core: class %s already registered with a different definition", c.name)
		}
		return existing, nil
	}

	// Parents must be resolvable.
	for _, p := range c.parents {
		if _, ok := lookup(p.name); !ok {
			return nil, fmt.Errorf("core: class %s: parent %s not registered", c.name, p.name)
		}
	}

	id, err := db.om.EnsureClass(tx, c.name)
	if err != nil {
		return nil, err
	}
	bc := &BoundClass{
		Def:            c,
		ID:             id,
		db:             db,
		eventIDs:       make(map[string]event.ID),
		methodEvents:   make(map[string]methodEvents),
		triggersByName: make(map[string]*BoundTrigger),
	}

	// Resolve declared events to run-time IDs; inherited events register
	// under their declaring class so base and derived share IDs (§5.2).
	for _, e := range c.events {
		var id event.ID
		if e.decl.Kind == event.KindTxn {
			id = db.reg.Lookup("", e.decl)
		} else {
			id = db.reg.Register(e.owner.name, e.decl)
		}
		bc.eventIDs[e.key()] = id
		bc.alphabet = append(bc.alphabet, id)
	}
	sort.Slice(bc.alphabet, func(i, j int) bool { return bc.alphabet[i] < bc.alphabet[j] })

	for name := range c.methods {
		me := methodEvents{
			before: bc.eventIDs["before "+name],
			after:  bc.eventIDs["after "+name],
		}
		bc.methodEvents[name] = me
	}

	// Compile FSMs for the class's own triggers; inherited triggers reuse
	// the defining class's machines via its bound descriptor.
	for _, td := range c.ownTriggers {
		m, err := fsm.Compile(td.parsed, fsm.Options{
			Resolve: func(n *eventexpr.Name) (event.ID, error) {
				id, ok := bc.eventIDs[n.String()]
				if !ok || id == event.None {
					return event.None, fmt.Errorf("event %q not declared by class %s", n.String(), c.name)
				}
				return id, nil
			},
			Alphabet: bc.alphabet,
			MaskExists: func(name string) error {
				if _, ok := c.masks[name]; !ok {
					return fmt.Errorf("mask %q not registered on class %s", name, c.name)
				}
				return nil
			},
		})
		if err != nil {
			return nil, fmt.Errorf("core: class %s trigger %s: %w", c.name, td.Name, err)
		}
		bt := &BoundTrigger{Def: td, Machine: m, owner: bc}
		bc.ownTriggers = append(bc.ownTriggers, bt)
		bc.triggersByName[td.Name] = bt
	}
	// Inherit triggers from bound parents.
	for name, td := range c.triggersByName {
		if td.owner == c {
			continue
		}
		ownerBC, ok := lookup(td.owner.name)
		if !ok {
			return nil, fmt.Errorf("core: class %s: trigger %s owner %s not bound", c.name, name, td.owner.name)
		}
		bc.triggersByName[name] = ownerBC.ownTriggers[td.num]
	}
	return bc, nil
}

// ClassOf returns the bound class descriptor by name.
func (db *Database) ClassOf(name string) (*BoundClass, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bc, ok := db.byName[name]
	return bc, ok
}

// classByID resolves a catalog class ID (used when loading objects).
func (db *Database) classByID(id uint32) (*BoundClass, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bc, ok := db.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: class id %d (register the class in this process first)", ErrUnknownClass, id)
	}
	return bc, nil
}

// --- codec -------------------------------------------------------------------

// encodeInstance serializes an object: encoding.BinaryMarshaler when
// implemented, JSON otherwise.
func encodeInstance(v any) ([]byte, error) {
	if bm, ok := v.(encoding.BinaryMarshaler); ok {
		return bm.MarshalBinary()
	}
	return json.Marshal(v)
}

// decodeInstance fills a factory-fresh value from a stored payload.
func decodeInstance(payload []byte, v any) error {
	if bu, ok := v.(encoding.BinaryUnmarshaler); ok {
		return bu.UnmarshalBinary(payload)
	}
	return json.Unmarshal(payload, v)
}
