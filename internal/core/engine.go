package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ode/internal/event"
	"ode/internal/fsm"
	"ode/internal/lock"
	"ode/internal/obj"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/txn"
)

// triggerStateRec is the persistent TriggerState of §5.4.1, serialized as
// JSON so cross-process sessions and the inspect tool can read it:
//
//	persistent struct TriggerState {
//	    unsigned int     triggernum;
//	    persistent void *trigobj;
//	    int              statenum;
//	    persistent metatype *trigobjtype;
//	};
//
// Args carries the trigger parameters captured at activation time (§7:
// Ode stores trigger parameters persistently rather than harvesting
// member-function arguments). They must be JSON-serializable.
type triggerStateRec struct {
	TriggerNum int    `json:"trigger_num"`
	OwnerClass uint32 `json:"owner_class"` // trigobjtype
	ObjOID     uint64 `json:"obj_oid"`     // trigobj
	StateNum   int32  `json:"state_num"`   // statenum
	Name       string `json:"trigger_name"`
	Args       []any  `json:"args,omitempty"`
	// Cause is the cause ID (obs.Cause spelling) of the posting that
	// first moved this FSM off its start state — the origin of the
	// composite pattern currently half-matched. Because the TriggerState
	// is persistent and replicated, a pattern begun on the primary and
	// completed after failover still knows which primary-side event
	// started it. Cleared on the perpetual-trigger reset.
	Cause string `json:"cause,omitempty"`
}

// Activation is the trigger-activation context handed to masks and
// actions: the trigger's identity and the arguments captured when it was
// activated.
type Activation struct {
	// Trigger is the trigger name (e.g. "AutoRaiseLimit").
	Trigger string
	// Args are the activation arguments. JSON round-tripping applies:
	// numbers arrive as float64.
	Args []any
	// Ref is the anchor object.
	Ref Ref
	// ID identifies this activation (usable with Deactivate).
	ID TriggerID
	// EventArgs are the arguments of the member-function invocation that
	// posted the event currently being processed (nil for user and
	// transaction events). This implements the paper's §8 extension:
	// "allowing each member function event to look at the parameters
	// passed to the corresponding member function, at least in masks."
	// Unlike Args, EventArgs are transient — they are visible to masks
	// evaluated during this posting and to the action if the trigger
	// fires on it, but are never stored.
	EventArgs []any
}

// ArgFloat returns argument i as a float64 (0 if absent or non-numeric).
func (a *Activation) ArgFloat(i int) float64 {
	if i < len(a.Args) {
		if f, ok := a.Args[i].(float64); ok {
			return f
		}
	}
	return 0
}

// ArgString returns argument i as a string ("" if absent or non-string).
func (a *Activation) ArgString(i int) string {
	if i < len(a.Args) {
		if s, ok := a.Args[i].(string); ok {
			return s
		}
	}
	return ""
}

// EventArgFloat returns the posting member function's argument i as a
// float64 (0 if absent or non-numeric). See EventArgs.
func (a *Activation) EventArgFloat(i int) float64 {
	if i < len(a.EventArgs) {
		if f, ok := a.EventArgs[i].(float64); ok {
			return f
		}
	}
	return 0
}

// EventArgString returns the posting member function's argument i as a
// string ("" if absent or non-string). See EventArgs.
func (a *Activation) EventArgString(i int) string {
	if i < len(a.EventArgs) {
		if s, ok := a.EventArgs[i].(string); ok {
			return s
		}
	}
	return ""
}

// Ctx is the execution context passed to methods, masks, and actions.
type Ctx struct {
	db  *Database
	tx  *txn.Txn
	ref Ref
}

// DB returns the database.
func (c *Ctx) DB() *Database { return c.db }

// Tx returns the current transaction.
func (c *Ctx) Tx() *txn.Txn { return c.tx }

// Self returns the reference the current method/mask/action is bound to.
func (c *Ctx) Self() Ref { return c.ref }

// Invoke calls a member function through a persistent reference (posting
// its declared events) from inside a method or action.
func (c *Ctx) Invoke(ref Ref, method string, args ...any) (any, error) {
	return c.db.Invoke(c.tx, ref, method, args...)
}

// PostUserEvent posts a declared user-defined event from inside a method
// or action.
func (c *Ctx) PostUserEvent(ref Ref, name string) error {
	return c.db.PostUserEvent(c.tx, ref, name)
}

// TAbort is the O++ tabort statement: it dooms the surrounding
// transaction, which will roll back (firing nothing but !dependent
// actions) when it completes.
func (c *Ctx) TAbort() { c.tx.RequestAbort() }

// Activate activates a trigger from inside a method or action.
func (c *Ctx) Activate(ref Ref, trigger string, args ...any) (TriggerID, error) {
	return c.db.Activate(c.tx, ref, trigger, args...)
}

// Deactivate deactivates a trigger activation.
func (c *Ctx) Deactivate(id TriggerID) error { return c.db.Deactivate(c.tx, id) }

// instance is a decoded object cached per transaction so repeated loads
// within one transaction observe a single identity (as O++ object
// dereferencing does).
type instance struct {
	val any
	bc  *BoundClass
}

// firedRec is one detected trigger occurrence queued for firing.
type firedRec struct {
	bt     *BoundTrigger
	rec    triggerStateRec
	tsOID  storage.OID
	ref    Ref
	evArgs []any // §8 extension: posting event's member-function args

	detected time.Time  // when the FSM accepted, for post→fire latency
	tr       *obs.Trace // pinned firing trace, nil unless the posting was sampled

	// cause/causeParent identify the posting that completed the pattern;
	// a detached system transaction runs under them, so everything its
	// action posts (and its WAL commit record) is chained back here.
	// patCause is the pattern origin (triggerStateRec.Cause) carried
	// onto the fire trace step.
	cause       obs.Cause
	causeParent obs.Cause
	patCause    string
}

// txnState is the per-transaction trigger-engine state: the instance
// cache, the transaction-event object list, and the end/dependent/
// !dependent firing lists of §5.5.
type txnState struct {
	db *Database
	tx *txn.Txn

	instances map[storage.OID]*instance
	txnObjs   []Ref
	txnSeen   map[storage.OID]bool

	endList   []firedRec
	depList   []firedRec
	indepList []firedRec

	// localTrigs are the transaction's local-rule activations (§8
	// extension; see local.go). They are deallocated with this state.
	localTrigs []*localActivation
	localSeq   int

	// ctxCause is the provenance parent for postings made while this
	// transaction runs a trigger action (zero outside actions): an event
	// posted from inside an action is a child of the firing's cause, so
	// cascades form a chain. originCause/originParent record the
	// transaction's first posting, which annotates its WAL commit record.
	ctxCause     obs.Cause
	originCause  obs.Cause
	originParent obs.Cause

	// outbox holds this transaction's captured cross-shard postings;
	// they settle (or vanish) when the transaction resolves. See
	// shard.go.
	outbox []OutboxEntry
}

// state returns (creating on first use) the engine state for tx and wires
// the transaction hooks.
func (db *Database) state(tx *txn.Txn) *txnState {
	db.mu.Lock()
	defer db.mu.Unlock()
	if st, ok := db.txnStates[tx.ID()]; ok {
		return st
	}
	st := &txnState{
		db:        db,
		tx:        tx,
		instances: make(map[storage.OID]*instance),
		txnSeen:   make(map[storage.OID]bool),
	}
	db.txnStates[tx.ID()] = st
	tx.OnBeforeCommit(st.commitProcessing)
	tx.OnBeforeAbort(st.abortProcessing)
	tx.OnAfterCommit(func() {
		db.dropState(tx)
		db.resolveOutbox(st, true)
		db.runDetached(st.depList, db.met.firedDependent)
		db.runDetached(st.indepList, db.met.firedIndependent)
	})
	tx.OnAfterAbort(func() {
		db.dropState(tx)
		db.resolveOutbox(st, false)
		// The commit record this transaction's cause note was destined
		// for will never be written.
		db.clearCommitCause(tx)
		// §5.5: only the !dependent list survives an abort.
		db.runDetached(st.indepList, db.met.firedIndependent)
	})
	return st
}

func (db *Database) dropState(tx *txn.Txn) {
	db.mu.Lock()
	delete(db.txnStates, tx.ID())
	db.mu.Unlock()
}

// Begin starts a transaction on this database.
func (db *Database) Begin() *txn.Txn { return db.tm.Begin() }

// BeginSnapshot starts a lock-free read-only transaction pinned to the
// storage manager's current durable commit LSN. Reads go to the newest
// version at or below that LSN without touching the lock manager, so a
// snapshot reader never waits and can never deadlock; any write attempt
// fails with ErrSnapshotWrite. Fails with ErrNoVersions when the store
// keeps no version chains.
func (db *Database) BeginSnapshot() (*txn.Txn, error) { return db.tm.BeginSnapshot() }

// Query invokes a method in a one-shot transaction, preferring a
// snapshot: the common read-only query (no writes, no persistent
// trigger advances) runs without a single lock-manager call. If the
// method turns out to need write locks (ErrSnapshotWrite) or the store
// keeps no versions, the call transparently reruns in a regular
// transaction.
func (db *Database) Query(ref Ref, method string, args ...any) (any, error) {
	snap, err := db.BeginSnapshot()
	switch {
	case err == nil:
		ret, err := db.Invoke(snap, ref, method, args...)
		if err == nil {
			return ret, snap.Commit()
		}
		_ = snap.Abort()
		if !errors.Is(err, txn.ErrSnapshotWrite) {
			return nil, err
		}
		// The method needs write locks — fall through to a regular txn.
	case errors.Is(err, txn.ErrNoVersions):
		// Unversioned store: the regular transaction is the only path.
	default:
		return nil, err
	}
	tx := db.Begin()
	ret, err := db.Invoke(tx, ref, method, args...)
	if err != nil {
		_ = tx.Abort()
		return nil, err
	}
	return ret, tx.Commit()
}

// load reads an object into the per-transaction cache. forWrite takes the
// exclusive lock (possibly upgrading).
func (st *txnState) load(ref Ref, forWrite bool) (*instance, obj.Header, error) {
	h, payload, err := st.db.om.Load(st.tx, ref.oid, forWrite)
	if err != nil {
		return nil, obj.Header{}, err
	}
	if inst, ok := st.instances[ref.oid]; ok {
		return inst, h, nil
	}
	bc, err := st.db.classByID(h.ClassID)
	if err != nil {
		return nil, h, err
	}
	val := bc.Def.factory()
	if err := decodeInstance(payload, val); err != nil {
		return nil, h, fmt.Errorf("core: decode %s object %v: %w", bc.Def.name, ref, err)
	}
	inst := &instance{val: val, bc: bc}
	st.instances[ref.oid] = inst
	st.noteTxnInterest(ref, bc)
	return inst, h, nil
}

// noteTxnInterest adds ref to the transaction-event object list on first
// access (§5.5: "When an object interested in a transaction event is
// accessed for the first time in a transaction, the object is put on a
// 'transaction event object' list").
func (st *txnState) noteTxnInterest(ref Ref, bc *BoundClass) {
	if !bc.Def.txnInterest || st.txnSeen[ref.oid] {
		return
	}
	st.txnSeen[ref.oid] = true
	st.txnObjs = append(st.txnObjs, ref)
}

// writeBack persists the cached instance's current value, preserving the
// envelope flags (which trigger activation may have changed meanwhile).
func (st *txnState) writeBack(ref Ref, inst *instance) error {
	payload, err := encodeInstance(inst.val)
	if err != nil {
		return fmt.Errorf("core: encode %s object %v: %w", inst.bc.Def.name, ref, err)
	}
	return st.db.om.Update(st.tx, ref.oid, payload)
}

// header re-reads the envelope header (flags may change within the txn).
func (st *txnState) header(ref Ref) (obj.Header, error) {
	if err := st.tx.LockShared(objLockRes(ref.oid)); err != nil {
		return obj.Header{}, err
	}
	img, err := st.tx.Read(ref.oid)
	if err != nil {
		return obj.Header{}, err
	}
	h, _, err := obj.DecodeEnvelope(img)
	return h, err
}

// --- public object operations -------------------------------------------------

// Create allocates a persistent object (pnew, §2). val must be the
// concrete type produced by the class factory.
func (db *Database) Create(tx *txn.Txn, className string, val any) (Ref, error) {
	if err := db.writable(); err != nil {
		return NilRef, err
	}
	bc, ok := db.ClassOf(className)
	if !ok {
		return NilRef, fmt.Errorf("%w: %s", ErrUnknownClass, className)
	}
	payload, err := encodeInstance(val)
	if err != nil {
		return NilRef, err
	}
	var flags uint8
	if bc.Def.txnInterest {
		flags |= obj.FlagTxnEvents
	}
	oid, err := db.om.Create(tx, bc.ID, flags, payload)
	if err != nil {
		return NilRef, err
	}
	ref := Ref{oid}
	st := db.state(tx)
	st.instances[oid] = &instance{val: val, bc: bc}
	st.noteTxnInterest(ref, bc)
	return ref, nil
}

// Get loads an object for reading. Mutating the returned value does NOT
// persist it — mutations go through Invoke, the persistent-pointer path.
func (db *Database) Get(tx *txn.Txn, ref Ref) (any, error) {
	inst, _, err := db.state(tx).load(ref, false)
	if err != nil {
		return nil, err
	}
	return inst.val, nil
}

// ClassNameOf reports the class of a stored object.
func (db *Database) ClassNameOf(tx *txn.Txn, ref Ref) (string, error) {
	inst, _, err := db.state(tx).load(ref, false)
	if err != nil {
		return "", err
	}
	return inst.bc.Def.name, nil
}

// Delete removes an object (pdelete) along with its active trigger
// states and index entries.
func (db *Database) Delete(tx *txn.Txn, ref Ref) error {
	if err := db.writable(); err != nil {
		return err
	}
	st := db.state(tx)
	tsOIDs, err := db.om.TriggersOn(tx, ref.oid)
	if err != nil {
		return err
	}
	for _, tsOID := range tsOIDs {
		if err := db.om.DeleteTriggerState(tx, tsOID); err != nil {
			return err
		}
	}
	delete(st.instances, ref.oid)
	return db.om.Delete(tx, ref.oid)
}

// ClusterAdd places an object in a named cluster (§2).
func (db *Database) ClusterAdd(tx *txn.Txn, cluster string, ref Ref) error {
	if err := db.writable(); err != nil {
		return err
	}
	return db.om.ClusterAdd(tx, cluster, ref.oid)
}

// ClusterRemove removes an object from a cluster.
func (db *Database) ClusterRemove(tx *txn.Txn, cluster string, ref Ref) error {
	if err := db.writable(); err != nil {
		return err
	}
	return db.om.ClusterRemove(tx, cluster, ref.oid)
}

// ClusterScan iterates a cluster in insertion order.
func (db *Database) ClusterScan(tx *txn.Txn, cluster string, fn func(Ref) error) error {
	return db.om.ClusterScan(tx, cluster, func(oid storage.OID) error {
		return fn(Ref{oid})
	})
}

// --- invocation (§5.3) ---------------------------------------------------------

// Invoke calls a member function through a persistent reference — the
// wrapper-function path of §5.3: the declared before event is posted, the
// method runs, mutations are written back, and the declared after event
// is posted. Methods invoked on volatile (non-persistent) Go values never
// enter this path and pay no trigger overhead (design goals 3–4).
func (db *Database) Invoke(tx *txn.Txn, ref Ref, method string, args ...any) (any, error) {
	st := db.state(tx)
	inst, _, err := st.load(ref, false)
	if err != nil {
		return nil, err
	}
	md, ok := inst.bc.Def.methods[method]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, inst.bc.Def.name, method)
	}
	if !md.ReadOnly {
		// Mutators are refused on a replica up front; read-only methods
		// proceed (if one posts an event that advances a persistent FSM,
		// the storage gate rejects that write at commit instead).
		if err := db.writable(); err != nil {
			return nil, err
		}
		// Upgrade to the exclusive lock before running the mutator.
		if _, _, err := st.load(ref, true); err != nil {
			return nil, err
		}
	}
	me := inst.bc.methodEvents[method]
	if me.before != event.None {
		if err := st.post(ref, me.before, args); err != nil {
			return nil, err
		}
	}
	ctx := &Ctx{db: db, tx: tx, ref: ref}
	ret, err := md.Fn(ctx, inst.val, args)
	if err != nil {
		return ret, err
	}
	if !md.ReadOnly {
		if err := st.writeBack(ref, inst); err != nil {
			return ret, err
		}
	}
	if me.after != event.None {
		if err := st.post(ref, me.after, args); err != nil {
			return ret, err
		}
	}
	return ret, nil
}

// PostUserEvent posts a declared user-defined event to an object (§4:
// "user-defined events must be explicitly posted by the application").
// On a sharded database, a posting addressed to an object another
// shard owns is captured into the transactional outbox instead — the
// check runs before the load, which would fail here (the object's
// image lives on the owner). See shard.go.
func (db *Database) PostUserEvent(tx *txn.Txn, ref Ref, name string) error {
	if sh := db.shardSt.Load(); sh != nil && !sh.isLocal(uint64(ref.oid)) {
		if err := db.writable(); err != nil {
			return err
		}
		return sh.capture(tx, ref, name)
	}
	return db.postUserEventLocal(tx, ref, name)
}

// postUserEventLocal is the local posting path: the object and its
// trigger states are here. shard ingestion enters through this,
// bypassing the remote-capture check (a misrouted target simply fails
// the load with ErrNotFound).
func (db *Database) postUserEventLocal(tx *txn.Txn, ref Ref, name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	st := db.state(tx)
	inst, _, err := st.load(ref, false)
	if err != nil {
		return err
	}
	// Only user-defined events may be posted by the application; member
	// function events are posted by the system (the wrapper functions)
	// and transaction events by commit/abort processing (§4, §5.5).
	decl, declared := inst.bc.Def.eventKey[name]
	if !declared || decl.decl.Kind != event.KindUser {
		return fmt.Errorf("%w: %q is not a declared user event on class %s", ErrUnknownEvent, name, inst.bc.Def.name)
	}
	id, ok := inst.bc.eventIDs[name]
	if !ok {
		return fmt.Errorf("%w: %q on class %s", ErrUnknownEvent, name, inst.bc.Def.name)
	}
	return st.post(ref, id, nil)
}

// --- activation (§4.1, §5.4.1) --------------------------------------------------

// Activate activates a named trigger on an object with the given
// arguments, returning the TriggerID used to deactivate it. Triggers
// never fire without an explicit activation (§4.1).
func (db *Database) Activate(tx *txn.Txn, ref Ref, trigger string, args ...any) (TriggerID, error) {
	if err := db.writable(); err != nil {
		return TriggerID{}, err
	}
	st := db.state(tx)
	inst, _, err := st.load(ref, false)
	if err != nil {
		return TriggerID{}, err
	}
	bt, ok := inst.bc.triggersByName[trigger]
	if !ok {
		return TriggerID{}, fmt.Errorf("%w: %s on class %s", ErrUnknownTrigger, trigger, inst.bc.Def.name)
	}
	// JSON round-trip the args now so stored and replayed values agree.
	rec := triggerStateRec{
		TriggerNum: bt.Def.num,
		OwnerClass: bt.owner.ID,
		ObjOID:     uint64(ref.oid),
		StateNum:   bt.Machine.Start,
		Name:       trigger,
		Args:       normalizeArgs(args),
	}
	// A mask in first position must be evaluated at activation.
	if start := bt.Machine.States[bt.Machine.Start]; start.Mask >= 0 {
		act := &Activation{Trigger: trigger, Args: rec.Args, Ref: ref}
		settled, _, err := bt.Machine.Settle(bt.Machine.Start, st.maskEval(ref, bt, act))
		if err != nil {
			return TriggerID{}, err
		}
		rec.StateNum = settled
	}
	payload, err := json.Marshal(&rec)
	if err != nil {
		return TriggerID{}, err
	}
	tsOID, err := db.om.CreateTriggerState(tx, payload)
	if err != nil {
		return TriggerID{}, err
	}
	if err := db.om.AddTrigger(tx, ref.oid, tsOID); err != nil {
		return TriggerID{}, err
	}
	return TriggerID{tsOID}, nil
}

// normalizeArgs round-trips activation arguments through JSON so masks
// and actions see the same representation live and after reload.
func normalizeArgs(args []any) []any {
	if len(args) == 0 {
		return nil
	}
	raw, err := json.Marshal(args)
	if err != nil {
		return args
	}
	var out []any
	if json.Unmarshal(raw, &out) != nil {
		return args
	}
	return out
}

// Deactivate removes a trigger activation (§4.1's deactivate(TriggerId)).
func (db *Database) Deactivate(tx *txn.Txn, id TriggerID) error {
	if err := db.writable(); err != nil {
		return err
	}
	raw, err := db.om.LoadTriggerState(tx, id.oid, true)
	if err != nil {
		return err
	}
	var rec triggerStateRec
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("core: corrupt trigger state %v: %w", id, err)
	}
	if err := db.om.RemoveTrigger(tx, storage.OID(rec.ObjOID), id.oid); err != nil {
		return err
	}
	return db.om.DeleteTriggerState(tx, id.oid)
}

// ActiveTriggerInfo describes one activation (inspect tool, tests).
type ActiveTriggerInfo struct {
	ID       TriggerID
	Trigger  string
	Owner    string // defining class
	StateNum int32
	Args     []any
}

// ActiveTriggers lists the activations on an object.
func (db *Database) ActiveTriggers(tx *txn.Txn, ref Ref) ([]ActiveTriggerInfo, error) {
	tsOIDs, err := db.om.TriggersOn(tx, ref.oid)
	if err != nil {
		return nil, err
	}
	var out []ActiveTriggerInfo
	for _, tsOID := range tsOIDs {
		raw, err := db.om.LoadTriggerState(tx, tsOID, false)
		if err != nil {
			return nil, err
		}
		var rec triggerStateRec
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, err
		}
		ownerName := fmt.Sprintf("class#%d", rec.OwnerClass)
		if bc, err := db.classByID(rec.OwnerClass); err == nil {
			ownerName = bc.Def.name
		}
		out = append(out, ActiveTriggerInfo{
			ID:       TriggerID{tsOID},
			Trigger:  rec.Name,
			Owner:    ownerName,
			StateNum: rec.StateNum,
			Args:     rec.Args,
		})
	}
	return out, nil
}

// --- event posting (§5.4.5) ------------------------------------------------------

// maskEval builds the MaskEval closure for one trigger activation: it
// resolves the named predicate on the trigger's defining class and
// evaluates it against the (lazily loaded) object.
func (st *txnState) maskEval(ref Ref, bt *BoundTrigger, act *Activation) func(string) (bool, error) {
	return func(name string) (bool, error) {
		fn, ok := bt.owner.Def.masks[name]
		if !ok {
			return false, fmt.Errorf("core: trigger %s: mask %q not found on class %s", bt.Def.Name, name, bt.owner.Def.name)
		}
		inst, _, err := st.load(ref, false)
		if err != nil {
			return false, err
		}
		st.db.met.masksEvaluated.Inc()
		ctx := &Ctx{db: st.db, tx: st.tx, ref: ref}
		return fn(ctx, inst.val, act)
	}
}

// post implements the PostEvent algorithm of §5.4.5:
//
//  1. The object header's control bit short-circuits objects with no
//     active triggers (footnote 3).
//  2. The trigger index yields all active TriggerStates; each one's
//     defining-class descriptor is found through trigobjtype
//     (footnote 4), its FSM advanced, and any mask cascade resolved.
//  3. Only after every trigger has seen the event do the accepted ones
//     fire (sequentially, in unspecified order — Ode lacks nested
//     transactions, §5.4.5), routed by coupling mode.
func (st *txnState) post(ref Ref, ev event.ID, evArgs []any) error {
	db := st.db
	db.met.eventsPosted.Inc()
	// Causal provenance: every posting gets a cause ID, parented on the
	// firing whose action posted it (zero parent for application
	// postings). The transaction's first posting becomes its origin,
	// annotating the WAL commit record so replicas can attribute their
	// apply. One atomic add when on; nothing when off.
	var cause, parent obs.Cause
	if db.provenance.Load() {
		parent = st.ctxCause
		cause = db.causes.Next()
		if st.originCause.IsZero() {
			st.originCause, st.originParent = cause, parent
			db.noteCommitCause(st.tx, cause, parent)
		}
	}
	// The sampling gate is one atomic load when tracing is off; the trace
	// machinery below only runs for selected postings.
	var tr *obs.Trace
	if db.tracer.Sampled() {
		tr = db.tracer.Start(uint32(ev), db.eventString(ev), uint64(ref.oid))
		tr.SetCause(cause, parent)
		defer db.tracer.Publish(tr)
	}
	// Local rules see every posting, independent of the header fast path
	// (they live in transaction memory, not in the index).
	if err := st.postLocal(ref, ev, evArgs); err != nil {
		return err
	}
	// A snapshot transaction cannot advance persistent trigger state: it
	// holds no locks and writes nothing, so FSM advances would be lost at
	// commit (and the header read below would be the only lock taken).
	// Local rules above have already seen the event; persistent trigger
	// processing is suppressed, and the trace records the pinned LSN.
	if st.tx.IsSnapshot() {
		db.met.snapshotPosts.Inc()
		tr.Add(obs.Step{Kind: obs.StepSnapshot, LSN: st.tx.SnapshotLSN()})
		return nil
	}
	h, err := st.header(ref)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil // object deleted within this transaction
		}
		return err
	}
	if h.Flags&obj.FlagHasTriggers == 0 {
		db.met.fastPathSkips.Inc()
		return nil
	}
	tsOIDs, err := db.om.TriggersOn(st.tx, ref.oid)
	if err != nil {
		return err
	}
	var fired []firedRec
	for _, tsOID := range tsOIDs {
		raw, err := db.om.LoadTriggerState(st.tx, tsOID, false)
		if errors.Is(err, storage.ErrNotFound) {
			continue // deactivated earlier in this transaction
		}
		if err != nil {
			return err
		}
		var rec triggerStateRec
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("core: corrupt trigger state %d: %w", tsOID, err)
		}
		// Footnote 4: find the TriggerInfo via the trigger's defining
		// class descriptor.
		ownerBC, err := db.classByID(rec.OwnerClass)
		if err != nil {
			return err
		}
		if rec.TriggerNum >= len(ownerBC.ownTriggers) {
			return fmt.Errorf("core: trigger state %d has trigger_num %d out of range for class %s", tsOID, rec.TriggerNum, ownerBC.Def.name)
		}
		bt := ownerBC.ownTriggers[rec.TriggerNum]
		act := &Activation{Trigger: rec.Name, Args: rec.Args, Ref: ref, ID: TriggerID{tsOID}, EventArgs: evArgs}
		var traceFn fsm.TraceFn
		if tr != nil {
			trigName, evName := rec.Name, tr.Event()
			traceFn = func(from, to int32, mask string, outcome bool) {
				s := obs.Step{Kind: obs.StepTransition, Trigger: trigName, Event: evName, From: from, To: to}
				if mask != "" {
					// §5.1.2: a mask evaluation consumes the True or
					// False pseudo-event.
					s.Kind, s.Mask = obs.StepMask, mask
					if outcome {
						s.Event = "True"
					} else {
						s.Event = "False"
					}
				}
				tr.Add(s)
			}
		}
		advStart := time.Now()
		next, accepted, err := bt.Machine.AdvanceTraced(rec.StateNum, ev, st.maskEval(ref, bt, act), traceFn)
		db.met.fsmAdvanceNs.Observe(time.Since(advStart).Nanoseconds())
		if err != nil {
			return err
		}
		if accepted {
			rec.StateNum = next
			f := firedRec{bt: bt, rec: rec, tsOID: tsOID, ref: ref, evArgs: evArgs, detected: time.Now(),
				cause: cause, causeParent: parent, patCause: rec.Cause}
			if f.patCause == "" {
				// Single-posting pattern (or pre-provenance state): the
				// completing posting is also the origin.
				f.patCause = cause.String()
			}
			if tr != nil {
				tr.Pin() // released when the firing's dispatch path finishes
				f.tr = tr
			}
			fired = append(fired, f)
			continue // state persisted by the disposition below
		}
		if next != rec.StateNum {
			rec.StateNum = next
			if rec.Cause == "" && !cause.IsZero() {
				// First move off the start state: this posting is the
				// origin of the pattern now being matched.
				rec.Cause = cause.String()
			}
			if err := st.saveTriggerState(tsOID, &rec); err != nil {
				return err
			}
			db.met.triggersAdvanced.Inc()
		}
	}

	// Fire after all postings (§5.4.5). Disposition first: perpetual
	// triggers reset to the start state; once-only triggers deactivate —
	// before the action runs, so an action cannot re-trigger its own
	// once-only activation.
	for i := range fired {
		f := &fired[i]
		if f.bt.Def.Perpetual {
			f.rec.StateNum = f.bt.Machine.Start
			f.rec.Cause = "" // the next pattern has its own origin
			if err := st.saveTriggerState(f.tsOID, &f.rec); err != nil {
				return err
			}
		} else {
			if err := db.om.RemoveTrigger(st.tx, ref.oid, f.tsOID); err != nil {
				return err
			}
			if err := db.om.DeleteTriggerState(st.tx, f.tsOID); err != nil {
				return err
			}
		}
		f.tr.Add(obs.Step{Kind: obs.StepFire, Trigger: f.rec.Name, Coupling: f.bt.Def.Coupling.String(), Cause: f.patCause})
		switch f.bt.Def.Coupling {
		case Immediate:
			db.met.firedImmediate.Inc()
			db.met.postToFireNs.Observe(time.Since(f.detected).Nanoseconds())
			err := st.runAction(*f)
			f.tr.Done()
			if err != nil {
				return err
			}
		case Deferred:
			st.endList = append(st.endList, *f)
		case Dependent:
			st.depList = append(st.depList, *f)
		case Independent:
			st.indepList = append(st.indepList, *f)
		}
	}
	return nil
}

func (st *txnState) saveTriggerState(tsOID storage.OID, rec *triggerStateRec) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	// The exclusive lock here is the §6 read-to-write amplification.
	return st.db.om.UpdateTriggerState(st.tx, tsOID, payload)
}

// runAction executes a trigger action inside the current transaction
// (immediate and end coupling). The anchor object is written back only if
// the action actually mutated it, so no-op and read-only actions do not
// escalate to write locks (this matters for §8 local rules, whose event
// processing must stay lock-free on the write side).
func (st *txnState) runAction(f firedRec) error {
	inst, _, err := st.load(f.ref, false)
	if errors.Is(err, storage.ErrNotFound) {
		return nil // anchor object deleted; nothing to run against
	}
	if err != nil {
		return err
	}
	before, err := encodeInstance(inst.val)
	if err != nil {
		return err
	}
	ctx := &Ctx{db: st.db, tx: st.tx, ref: f.ref}
	act := &Activation{Trigger: f.rec.Name, Args: f.rec.Args, Ref: f.ref, ID: TriggerID{f.tsOID}, EventArgs: f.evArgs}
	f.tr.Add(obs.Step{Kind: obs.StepActionStart, Trigger: f.rec.Name})
	// Postings made by the action are children of this firing's cause.
	prevCause := st.ctxCause
	st.ctxCause = f.cause
	actStart := time.Now()
	err = st.callAction(f, ctx, inst.val, act)
	st.ctxCause = prevCause
	st.db.met.actionNs.Observe(time.Since(actStart).Nanoseconds())
	endStep := obs.Step{Kind: obs.StepActionEnd, Trigger: f.rec.Name}
	if err != nil {
		endStep.Err = err.Error()
	}
	f.tr.Add(endStep)
	if err != nil {
		return fmt.Errorf("core: trigger %s action: %w", f.bt.Def.Name, err)
	}
	after, err := encodeInstance(inst.val)
	if err != nil {
		return err
	}
	if bytes.Equal(before, after) {
		return nil
	}
	if _, _, err := st.load(f.ref, true); err != nil { // upgrade to X
		return err
	}
	return st.db.om.Update(st.tx, f.ref.oid, after)
}

// callAction invokes the trigger action with panic isolation: a
// panicking action is converted into an action error — the surrounding
// transaction aborts (or the detached firing is dropped as permanent),
// but the process survives.
func (st *txnState) callAction(f firedRec, ctx *Ctx, self any, act *Activation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			st.db.met.actionPanics.Inc()
			obs.Flight().Record(obs.IncActionPanic, f.cause, f.causeParent, 0, f.rec.Name)
			obs.DumpFlight("action panic in trigger " + f.rec.Name)
			err = fmt.Errorf("action panicked: %v", r)
		}
	}()
	return f.bt.Def.Action(ctx, self, act)
}

// runDetached executes dependent/!dependent firings, each in its own
// system transaction (§5.5). Failures abort that system transaction
// only — and, because dropping a detected firing on a transient fault
// would make trigger semantics nondeterministic under failure, aborts
// classified as retryable (deadlock victimization, commit failures such
// as a healed WAL fsync error) are retried with capped exponential
// backoff until the firing commits or the retry budget runs out.
func (db *Database) runDetached(list []firedRec, counter *obs.Counter) {
	for _, f := range list {
		db.runDetachedOne(f, counter)
	}
}

func (db *Database) runDetachedOne(f firedRec, counter *obs.Counter) {
	defer f.tr.Done()
	// The wait between detection and detached execution is dominated by
	// the detecting transaction's commit (WAL group-commit wait included).
	f.tr.Add(obs.Step{Kind: obs.StepCommitWait, Trigger: f.rec.Name, WaitNs: time.Since(f.detected).Nanoseconds()})
	db.met.postToFireNs.Observe(time.Since(f.detected).Nanoseconds())
	backoff := detachedBackoffStart
	for attempt := 0; ; attempt++ {
		sys := db.tm.BeginSystem()
		st := db.state(sys)
		if !f.cause.IsZero() {
			// The detached system transaction runs under the firing's
			// cause: its postings chain here, and its commit record is
			// attributed to the originating event.
			st.ctxCause = f.cause
			st.originCause, st.originParent = f.cause, f.causeParent
			db.noteCommitCause(sys, f.cause, f.causeParent)
		}
		err := st.runAction(f)
		doomed := sys.Doomed()
		if err == nil && !doomed {
			err = sys.Commit()
			if err == nil {
				counter.Inc()
				return
			}
		} else if sys.State() == txn.Active {
			_ = sys.Abort()
		}
		if err == nil && doomed {
			// The action itself requested the abort (tabort): that is a
			// semantic outcome, not a fault — the firing ran to
			// completion and deliberately discarded its effects.
			// Retrying would doom again, deterministically.
			counter.Inc()
			db.met.actionErrors.Inc()
			return
		}
		if attempt < detachedRetryBudget && retryableDetached(err) {
			db.met.detachedRetries.Inc()
			obs.Flight().Record(obs.IncDetachedRetry, f.cause, f.causeParent, uint64(attempt+1), f.rec.Name)
			db.met.detachedRetryDelayNs.Observe(backoff.Nanoseconds())
			retryStep := obs.Step{Kind: obs.StepRetry, Trigger: f.rec.Name, WaitNs: backoff.Nanoseconds()}
			if err != nil {
				retryStep.Err = err.Error()
			}
			f.tr.Add(retryStep)
			time.Sleep(backoff)
			if backoff *= 2; backoff > detachedBackoffCap {
				backoff = detachedBackoffCap
			}
			continue
		}
		// Permanent failure (action error, panic) or budget exhausted:
		// the firing is lost and the loss is counted, not silent.
		counter.Inc()
		db.met.actionErrors.Inc()
		db.met.detachedDropped.Inc()
		obs.Flight().Record(obs.IncDetachedDrop, f.cause, f.causeParent, uint64(attempt), f.rec.Name)
		return
	}
}

// retryableDetached classifies a detached system transaction's failure.
// Deadlock victimization and internal aborts (including commit failures
// from a transiently failing store) are worth another attempt; plain
// action errors are deterministic and permanent.
func retryableDetached(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, txn.ErrAborted)
}

// commitProcessing is the §5.5 commit path: drain the end list, post
// before-tcomplete to every object on the transaction-event list, then
// drain end triggers satisfied by those postings.
func (st *txnState) commitProcessing(tx *txn.Txn) error {
	if err := st.drainEndList(); err != nil {
		return err
	}
	tcomplete := st.db.reg.TComplete()
	for i := 0; i < len(st.txnObjs); i++ {
		ref := st.txnObjs[i]
		if err := st.post(ref, tcomplete, nil); err != nil {
			return err
		}
	}
	return st.drainEndList()
}

func (st *txnState) drainEndList() error {
	for len(st.endList) > 0 {
		f := st.endList[0]
		st.endList = st.endList[1:]
		st.db.met.firedDeferred.Inc()
		st.db.met.postToFireNs.Observe(time.Since(f.detected).Nanoseconds())
		err := st.runAction(f)
		f.tr.Done()
		if err != nil {
			return err
		}
	}
	return nil
}

// abortProcessing posts before-tabort (explicit aborts only, §5.5/§6).
// Everything it writes is rolled back moments later; only !dependent
// firings it queues have a lasting effect.
func (st *txnState) abortProcessing(tx *txn.Txn) {
	tabort := st.db.reg.TAbort()
	for i := 0; i < len(st.txnObjs); i++ {
		// Errors during abort processing are swallowed: the transaction
		// is rolling back regardless.
		_ = st.post(st.txnObjs[i], tabort, nil)
	}
}

// objLockRes mirrors the object manager's lock naming for header reads.
func objLockRes(oid storage.OID) lock.Resource {
	return lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}
}
