package core

import (
	"errors"
	"testing"

	"ode/internal/txn"
)

// liveLocal counts the transaction's live local activations on ref.
func liveLocal(db *Database, tx *txn.Txn, ref Ref) int {
	n := 0
	for _, la := range db.state(tx).localTrigs {
		if la.rec.StateNum != deadState && la.ref == ref {
			n++
		}
	}
	return n
}

func TestLocalTriggerFiresWithinTransaction(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.ActivateLocal(tx, ref, "DenyCredit"); err != nil {
		t.Fatal(err)
	}
	if liveLocal(db, tx, ref) != 1 {
		t.Fatal("local activation not recorded")
	}
	// The over-limit buy fires the local DenyCredit, which taborts.
	if _, err := db.Invoke(tx, ref, "Buy", 5000.0); err != nil {
		t.Fatal(err)
	}
	if !tx.Doomed() {
		t.Fatal("local trigger did not fire")
	}
	if err := tx.Commit(); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("commit = %v", err)
	}
}

func TestLocalTriggerDiesWithTransaction(t *testing.T) {
	// §8: local-rule state is deallocated at end of transaction — a
	// pattern armed in one transaction must not carry into the next.
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)

	tx := db.Begin()
	if _, err := db.ActivateLocal(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, ref, "Buy", 900.0); err != nil { // arms
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A new transaction: the local activation is gone.
	tx2 := db.Begin()
	if liveLocal(db, tx2, ref) != 0 {
		t.Fatal("local activation survived its transaction")
	}
	if _, err := db.Invoke(tx2, ref, "PayBill", 100.0); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if c := card(t, db, ref); c.CredLim != 1000 {
		t.Fatalf("local trigger fired across transactions: limit %v", c.CredLim)
	}
}

func TestLocalTriggerTakesNoTriggerLocks(t *testing.T) {
	// §8: "such triggers never require obtaining write locks for the
	// purpose of processing trigger events" — a read-only invocation
	// observed by a local trigger leaves the transaction's lock set
	// read-only (unlike the persistent QueryPattern in experiment E8).
	cls := MustClass("Q",
		Factory(func() any { return new(CredCard) }),
		ReadOnlyMethod("Query", func(ctx *Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).CurrBal, nil
		}),
		Events("after Query"),
		Trigger("OnQuery", "after Query, after Query",
			func(ctx *Ctx, self any, act *Activation) error { return nil },
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Q", &CredCard{})
	tx.Commit()

	upgrades := metric(t, db, "lock.upgrades")
	tx2 := db.Begin()
	if _, err := db.ActivateLocal(tx2, ref, "OnQuery"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Invoke(tx2, ref, "Query"); err != nil {
			t.Fatal(err)
		}
	}
	tx2.Commit()
	if up := metric(t, db, "lock.upgrades") - upgrades; up != 0 {
		t.Fatalf("local trigger processing performed %d lock upgrades, want 0", up)
	}
	if wr := tx2.WriteCount(); wr != 0 {
		t.Fatalf("local trigger processing buffered %d writes, want 0", wr)
	}
}

func TestLocalOnceOnlyAndPerpetual(t *testing.T) {
	fired := 0
	cls := MustClass("L",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("Once", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error { fired++; return nil }),
		Trigger("Always", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error { fired += 100; return nil },
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "L", &CredCard{})
	db.ActivateLocal(tx, ref, "Once")
	db.ActivateLocal(tx, ref, "Always")
	for i := 0; i < 3; i++ {
		if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	// Once fires 1 time, Always fires 3 times.
	if fired != 1+300 {
		t.Fatalf("fired = %d, want 301", fired)
	}
}

func TestLocalDeferredConstraint(t *testing.T) {
	// The paper's "efficiently implement constraints" use: an end-coupled
	// local rule checks an invariant at commit with zero storage cost.
	db := newTestDB(t)
	ref := newCard(t, db, 100, true)
	tx := db.Begin()
	if _, err := db.ActivateLocal(tx, ref, "DenyCredit"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, ref, "Buy", 50.0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("within-limit commit: %v", err)
	}
}

func TestLocalDeactivate(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	id, err := db.ActivateLocal(tx, ref, "DenyCredit")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeactivateLocal(tx, id); err != nil {
		t.Fatal(err)
	}
	if liveLocal(db, tx, ref) != 0 {
		t.Fatal("deactivated local trigger still counted")
	}
	// Over-limit buy no longer fires.
	if _, err := db.Invoke(tx, ref, "Buy", 5000.0); err != nil {
		t.Fatal(err)
	}
	if tx.Doomed() {
		t.Fatal("deactivated local trigger fired")
	}
	// Double deactivation errors.
	if err := db.DeactivateLocal(tx, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double deactivate: %v", err)
	}
	tx.Abort()
}

func TestLocalIDFromOtherTxnRejected(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	id, _ := db.ActivateLocal(tx, ref, "DenyCredit")
	tx.Commit()

	tx2 := db.Begin()
	defer tx2.Abort()
	if err := db.DeactivateLocal(tx2, id); err == nil {
		t.Fatal("foreign local trigger ID accepted")
	}
	if id.IsNil() {
		t.Fatal("valid id reported nil")
	}
	if (LocalTriggerID{}).IsNil() != true {
		t.Fatal("zero id not nil")
	}
}

func TestLocalUnknownTrigger(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := db.ActivateLocal(tx, ref, "NoSuch"); !errors.Is(err, ErrUnknownTrigger) {
		t.Fatalf("unknown local trigger: %v", err)
	}
}

func TestLocalIndependentSurvivesAbort(t *testing.T) {
	// Local rules compose with coupling modes: a local !dependent firing
	// still runs its detached action after the abort.
	fired := 0
	cls := MustClass("LI",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error { fired++; return nil },
			WithCoupling(Independent)),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "LI", &CredCard{})
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.ActivateLocal(tx2, ref, "T"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	if fired != 1 {
		t.Fatalf("local !dependent fired %d times after abort, want 1", fired)
	}
}
