// Package ode is a Go reproduction of the Ode active database: the
// trigger semantics and implementation described in
//
//	D. Lieuwen, N. Gehani, R. Arlein.
//	"The Ode Active Database: Trigger Semantics and Implementation."
//	ICDE 1996.
//
// Ode triggers are event-action pairs attached to persistent objects:
//
//	trigger Name(params) : [perpetual] event-expression ==> action
//
// The event expression is a composite event over the basic events a class
// declares — before/after member-function events, user-defined events,
// and the transaction events before-tcomplete / before-tabort — built
// with sequence (","), union ("||"), repetition ("*"), masks ("&"),
// relative(...), and the "^" anchor. Composite events are detected by
// compiling the expression into an extended finite state machine whose
// mask states evaluate predicates and advance on True/False pseudo-events
// (paper §5.1, Figure 1). Trigger state is persistent and found via an
// object→trigger hash index, so composite events are global: a pattern
// armed by one application fires in another (§7).
//
// # Quick start
//
//	db, err := ode.OpenMemory()                     // or ode.OpenDisk(path)
//	cls := ode.MustClass("CredCard",
//	    ode.Factory(func() any { return new(CredCard) }),
//	    ode.Method("Buy", buy),
//	    ode.Method("PayBill", payBill),
//	    ode.Events("after Buy", "after PayBill", "BigBuy"),
//	    ode.Mask("OverLimit", overLimit),
//	    ode.Trigger("DenyCredit", "after Buy & OverLimit", deny, ode.Perpetual()),
//	)
//	err = db.Register(cls)
//
//	tx := db.Begin()
//	card, err := db.Create(tx, "CredCard", &CredCard{CredLim: 5000})
//	id, err := db.Activate(tx, card, "DenyCredit")
//	err = tx.Commit()
//
//	tx = db.Begin()
//	_, err = db.Invoke(tx, card, "Buy", 9000.0)  // posts "after Buy"
//	err = tx.Commit()                            // ErrAborted: trigger fired tabort
//
// Methods invoked through a persistent Ref (Database.Invoke) post their
// declared events; calling the Go method directly on a volatile value
// involves no trigger machinery at all — the paper's design goals 3–4.
//
// The package is a facade over internal/core (the trigger engine) and the
// substrates it reproduces: internal/storage/eos (disk, EOS analog),
// internal/storage/dali (main memory, Dali analog), internal/wal,
// internal/lock, internal/txn, internal/obj, internal/event,
// internal/eventexpr and internal/fsm. See DESIGN.md for the inventory
// and EXPERIMENTS.md for the reproduced results.
package ode

import (
	"fmt"

	"ode/internal/core"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
	"ode/internal/txn"
)

// Core types, re-exported.
type (
	// Database is an Ode database: storage manager + object manager +
	// trigger run-time.
	Database = core.Database
	// Class is a validated class definition (the O++ class declaration).
	Class = core.Class
	// Ref is a persistent pointer.
	Ref = core.Ref
	// TriggerID identifies one trigger activation.
	TriggerID = core.TriggerID
	// Ctx is the execution context passed to methods, masks and actions.
	Ctx = core.Ctx
	// Activation carries a trigger's identity and activation arguments.
	Activation = core.Activation
	// Coupling is an ECA coupling mode.
	Coupling = core.Coupling
	// Option configures NewClass.
	Option = core.Option
	// TriggerOption configures a trigger declaration.
	TriggerOption = core.TriggerOption
	// MethodFunc is a member-function body.
	MethodFunc = core.MethodFunc
	// MaskFunc is a mask predicate.
	MaskFunc = core.MaskFunc
	// ActionFunc is a trigger action.
	ActionFunc = core.ActionFunc
	// Txn is a transaction handle.
	Txn = txn.Txn
	// LocalTriggerID identifies a transaction-local rule activation
	// (the paper's §8 "local rules" extension; see
	// Database.ActivateLocal).
	LocalTriggerID = core.LocalTriggerID
	// Timers schedules time-driven event postings (the §8 "timed
	// triggers" extension).
	Timers = core.Timers
	// TimerID cancels a scheduled timer.
	TimerID = core.TimerID
)

// NewTimers returns a timer scheduler for db — the §8 "timed triggers"
// extension: the passage of (virtual) time produces declared user events,
// each posted in its own transaction.
func NewTimers(db *Database) *Timers { return core.NewTimers(db) }

// Coupling modes (§4.2).
const (
	// Immediate fires inside the detecting transaction, right after
	// detection.
	Immediate = core.Immediate
	// Deferred ("end") fires right before the detecting transaction
	// commits.
	Deferred = core.Deferred
	// Dependent fires in a separate transaction that runs only if the
	// detecting transaction commits.
	Dependent = core.Dependent
	// Independent ("!dependent") fires in a separate transaction even if
	// the detecting transaction aborts.
	Independent = core.Independent
)

// Errors, re-exported.
var (
	// ErrAborted is returned by Txn.Commit for doomed (tabort) and
	// deadlock-victim transactions.
	ErrAborted = txn.ErrAborted
	// ErrNotFound reports access to a missing object.
	ErrNotFound = storage.ErrNotFound
	// ErrReadOnly reports a mutation attempted on a read replica; retry
	// it against the primary.
	ErrReadOnly = core.ErrReadOnly
	// ErrSnapshotWrite reports a write (or exclusive lock) attempted in a
	// snapshot transaction (Database.BeginSnapshot); rerun the work in a
	// regular transaction.
	ErrSnapshotWrite = core.ErrSnapshotWrite
	// ErrNoVersions reports that the storage manager keeps no version
	// chains, so snapshot transactions are unavailable.
	ErrNoVersions = core.ErrNoVersions
	// ErrUnknownClass, ErrUnknownMethod, ErrUnknownTrigger and
	// ErrUnknownEvent report schema misuse.
	ErrUnknownClass   = core.ErrUnknownClass
	ErrUnknownMethod  = core.ErrUnknownMethod
	ErrUnknownTrigger = core.ErrUnknownTrigger
	ErrUnknownEvent   = core.ErrUnknownEvent
)

// NewClass builds and validates a class definition.
func NewClass(name string, opts ...Option) (*Class, error) { return core.NewClass(name, opts...) }

// MustClass is NewClass that panics on error.
func MustClass(name string, opts ...Option) *Class { return core.MustClass(name, opts...) }

// Factory sets the constructor for the class's Go representation.
func Factory(fn func() any) Option { return core.Factory(fn) }

// Extends declares base classes (single or multiple inheritance).
func Extends(parents ...*Class) Option { return core.Extends(parents...) }

// Method declares a mutating member function.
func Method(name string, fn MethodFunc) Option { return core.Method(name, fn) }

// ReadOnlyMethod declares a const member function.
func ReadOnlyMethod(name string, fn MethodFunc) Option { return core.ReadOnlyMethod(name, fn) }

// Events declares the class's events ("after Buy", "BigBuy",
// "before tcomplete", ...).
func Events(decls ...string) Option { return core.Events(decls...) }

// Mask registers a named mask predicate.
func Mask(name string, fn MaskFunc) Option { return core.Mask(name, fn) }

// Trigger declares a trigger with its event expression and action.
func Trigger(name, expr string, action ActionFunc, opts ...TriggerOption) Option {
	return core.Trigger(name, expr, action, opts...)
}

// Perpetual marks a trigger as remaining active after it fires.
func Perpetual() TriggerOption { return core.Perpetual() }

// WithCoupling selects a trigger's coupling mode.
func WithCoupling(c Coupling) TriggerOption { return core.WithCoupling(c) }

// OpenDisk opens (creating if needed) a disk-based database at path — the
// EOS-backed configuration (§5.6). The write-ahead log lives at
// path+".wal"; crash recovery runs during open.
func OpenDisk(path string) (*Database, error) {
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	return db, nil
}

// OpenMemory opens a main-memory database — the MM-Ode/Dali
// configuration (§5.6). Contents vanish when the process exits.
func OpenMemory() (*Database, error) {
	return core.NewDatabase(dali.New())
}

// OpenMemoryFile opens a main-memory database that loads from and
// checkpoints to a snapshot file (Database.Store().Checkpoint()).
func OpenMemoryFile(path string) (*Database, error) {
	store, err := dali.Open(path)
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	return db, nil
}

// Get loads an object and asserts its concrete type.
func Get[T any](db *Database, tx *Txn, ref Ref) (T, error) {
	var zero T
	v, err := db.Get(tx, ref)
	if err != nil {
		return zero, err
	}
	typed, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("ode: object %v is %T, not %T", ref, v, zero)
	}
	return typed, nil
}

// RefFromOID rebuilds a Ref from a raw object identifier (for handles
// exchanged between processes).
func RefFromOID(oid uint64) Ref { return core.RefFromOID(storage.OID(oid)) }
