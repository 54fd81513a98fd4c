package core

import (
	"fmt"
	"time"

	"ode/internal/event"
	"ode/internal/txn"
)

// This file implements the paper's §8 extension: local rules.
//
//	"Including local rules [7] would be useful, since they are low cost
//	 and useful for a variety of tasks. No persistent storage is required
//	 for such triggers, only data structures that can be deallocated at
//	 end-of-transaction. Also, such triggers never require obtaining
//	 write locks for the purpose of processing trigger events. They can
//	 be used internally to efficiently implement constraints."
//
// A local activation reuses the class's declared triggers (same compiled
// FSMs, masks, and actions) but keeps the machine state in the
// transaction's memory: nothing is written to the store, no trigger
// descriptor locks are taken, and the activation vanishes when the
// transaction ends — commit or abort. Coupling modes work as usual
// (an end-coupled local trigger is precisely the paper's "efficiently
// implement constraints" case).

// LocalTriggerID identifies a local activation within its transaction.
type LocalTriggerID struct {
	seq int // index into the transaction's append-only localTrigs
	tx  *txnState
}

// IsNil reports an empty LocalTriggerID.
func (l LocalTriggerID) IsNil() bool { return l.tx == nil }

// ActivateLocal activates a declared trigger as a local rule on ref: it
// observes events for the remainder of the current transaction only. The
// returned LocalTriggerID can cancel it early with DeactivateLocal.
func (db *Database) ActivateLocal(tx *txn.Txn, ref Ref, trigger string, args ...any) (LocalTriggerID, error) {
	st := db.state(tx)
	f, err := st.activation(ref, trigger, args)
	if err != nil {
		return LocalTriggerID{}, err
	}
	st.localTrigs = append(st.localTrigs, f)
	return LocalTriggerID{seq: len(st.localTrigs) - 1, tx: st}, nil
}

// DeactivateLocal cancels a local activation before the transaction ends.
func (db *Database) DeactivateLocal(tx *txn.Txn, id LocalTriggerID) error {
	st := db.state(tx)
	if id.tx != st {
		return fmt.Errorf("core: local trigger %d belongs to another transaction", id.seq)
	}
	if la := st.localTrigs[id.seq]; la.rec.StateNum != deadState {
		la.rec.StateNum = deadState
		return nil
	}
	return fmt.Errorf("%w: local trigger %d", ErrNotFound, id.seq)
}

// detectLocal runs detect over the transaction's live local activations
// on ref and applies their outcomes. It returns the firings; none has
// run. It touches no storage and takes no locks.
func (st *txnState) detectLocal(ref Ref, ev event.ID, evArgs []any) ([]firedRec, error) {
	var live []*firedRec
	var acts []detectAct
	for _, la := range st.localTrigs {
		if la.rec.StateNum != deadState && la.ref == ref {
			la.evArgs = evArgs
			live = append(live, la)
			acts = append(acts, detectAct{m: la.bt.Machine, state: la.rec.StateNum, perpetual: la.bt.Def.Perpetual})
		}
	}
	outs, err := detect(acts, ev, func(i int, name string) (bool, error) {
		return st.evalMask(ref, live[i].bt, live[i].activation(), name)
	}, nil)
	if err != nil {
		return nil, err
	}
	var fired []firedRec
	for i, o := range outs {
		if live[i].rec.StateNum = o.state; o.fired {
			f := *live[i]
			f.detected = time.Now()
			fired = append(fired, f)
		}
	}
	return fired, nil
}
