package core

import (
	"errors"
	"strings"
	"testing"

	"ode/internal/txn"
)

func TestTriggersRequireActivation(t *testing.T) {
	// §4.1: "Unless an explicit activation is performed, the trigger will
	// never fire."
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	if err := buy(t, db, ref, 5000); err != nil {
		t.Fatalf("over-limit buy without DenyCredit active: %v", err)
	}
	c := card(t, db, ref)
	if c.CurrBal != 5000 || len(c.BlackMarks) != 0 {
		t.Fatalf("card = %+v", c)
	}
}

func TestDenyCreditAbortsOverLimitPurchase(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "DenyCredit"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Within limit: succeeds.
	if err := buy(t, db, ref, 400); err != nil {
		t.Fatalf("within-limit buy: %v", err)
	}
	if c := card(t, db, ref); c.CurrBal != 400 {
		t.Fatalf("balance = %v", c.CurrBal)
	}

	// Over limit: the trigger black-marks and taborts; the whole
	// transaction — including the purchase and the black mark — rolls
	// back (§5.5: actions of aborted transactions are rolled back).
	if err := buy(t, db, ref, 900); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("over-limit buy commit error = %v, want ErrAborted", err)
	}
	c := card(t, db, ref)
	if c.CurrBal != 400 {
		t.Fatalf("balance after denied purchase = %v, want 400", c.CurrBal)
	}
	if len(c.BlackMarks) != 0 {
		t.Fatalf("black mark survived rollback: %v", c.BlackMarks)
	}

	// Perpetual: still active, denies again.
	if err := buy(t, db, ref, 900); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("second over-limit buy: %v", err)
	}
}

func TestAutoRaiseLimitPaperScenario(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	id, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0)
	if err != nil {
		t.Fatal(err)
	}
	if id.IsNil() {
		t.Fatal("nil TriggerID")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A small buy does not satisfy MoreCred: paying the bill later must
	// not raise the limit.
	if err := buy(t, db, ref, 100); err != nil {
		t.Fatal(err)
	}
	if err := payBill(t, db, ref, 50); err != nil {
		t.Fatal(err)
	}
	if c := card(t, db, ref); c.CredLim != 1000 {
		t.Fatalf("limit raised prematurely: %v", c.CredLim)
	}

	// A big buy arms the pattern (balance over 80% of limit, good
	// history); intervening user events are ignored; the next PayBill
	// fires RaiseLimit(500).
	if err := buy(t, db, ref, 800); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if err := db.PostUserEvent(tx2, ref, "BigBuy"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := payBill(t, db, ref, 200); err != nil {
		t.Fatal(err)
	}
	c := card(t, db, ref)
	if c.CredLim != 1500 {
		t.Fatalf("limit = %v, want 1500", c.CredLim)
	}

	// Once-only: the activation is gone; a repeat of the pattern must
	// not raise again.
	tx3 := db.Begin()
	active, err := db.ActiveTriggers(tx3, ref)
	if err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	if len(active) != 0 {
		t.Fatalf("once-only trigger still active: %+v", active)
	}
	if err := buy(t, db, ref, 700); err != nil {
		t.Fatal(err)
	}
	if err := payBill(t, db, ref, 100); err != nil {
		t.Fatal(err)
	}
	if c := card(t, db, ref); c.CredLim != 1500 {
		t.Fatalf("deactivated trigger fired again: limit %v", c.CredLim)
	}
}

func TestDeactivate(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	id, err := db.Activate(tx, ref, "DenyCredit")
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2 := db.Begin()
	if err := db.Deactivate(tx2, id); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	if err := buy(t, db, ref, 5000); err != nil {
		t.Fatalf("buy after deactivation: %v", err)
	}
	// Deactivating again errors (state gone).
	tx3 := db.Begin()
	defer tx3.Abort()
	if err := db.Deactivate(tx3, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double deactivate: %v", err)
	}
}

func TestTriggerStateSpansTransactions(t *testing.T) {
	// Global composite events (§7): the FSM state persists in the
	// database, so the pattern can be completed by a different
	// transaction (or application) than the one that armed it.
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	if err := buy(t, db, ref, 900); err != nil { // arms (MoreCred true)
		t.Fatal(err)
	}
	// Observe the armed state through the inspect API.
	tx2 := db.Begin()
	active, _ := db.ActiveTriggers(tx2, ref)
	tx2.Commit()
	if len(active) != 1 || active[0].StateNum == 0 {
		t.Fatalf("armed state not persisted: %+v", active)
	}
	// A separate transaction completes the pattern.
	if err := payBill(t, db, ref, 100); err != nil {
		t.Fatal(err)
	}
	if c := card(t, db, ref); c.CredLim != 1500 {
		t.Fatalf("limit = %v", c.CredLim)
	}
}

func TestTriggerStateRollsBackOnAbort(t *testing.T) {
	// §5.5: "a CredCardAutoRaiseLimitStruct's value is rolled back to the
	// value it had at the beginning of the transaction."
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// Arm inside a transaction that aborts.
	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Buy", 900.0); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()

	// The pattern must NOT be armed: a PayBill alone fires nothing.
	if err := payBill(t, db, ref, 10); err != nil {
		t.Fatal(err)
	}
	if c := card(t, db, ref); c.CredLim != 1000 {
		t.Fatalf("aborted arming leaked: limit %v", c.CredLim)
	}
}

func TestPerpetualTriggerRefires(t *testing.T) {
	marks := 0
	cls := MustClass("Counter",
		Factory(func() any { return new(CredCard) }),
		Method("Tick", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Tick"),
		Trigger("OnTick", "after Tick",
			func(ctx *Ctx, self any, act *Activation) error { marks++; return nil },
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Counter", &CredCard{})
	if _, err := db.Activate(tx, ref, "OnTick"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	for i := 0; i < 5; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Tick"); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	if marks != 5 {
		t.Fatalf("perpetual trigger fired %d times, want 5", marks)
	}
}

func TestMultipleActivationsFireIndependently(t *testing.T) {
	var got []float64
	cls := MustClass("Multi",
		Factory(func() any { return new(CredCard) }),
		Method("Tick", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Tick"),
		Trigger("OnTick", "after Tick",
			func(ctx *Ctx, self any, act *Activation) error {
				got = append(got, act.ArgFloat(0))
				return nil
			}),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Multi", &CredCard{})
	if _, err := db.Activate(tx, ref, "OnTick", 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "OnTick", 2.0); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Tick"); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if len(got) != 2 {
		t.Fatalf("fired %v, want both activations", got)
	}
	if got[0]+got[1] != 3.0 {
		t.Fatalf("args = %v", got)
	}
}

func TestBeforeEventSeesPreMethodState(t *testing.T) {
	var seen float64 = -1
	cls := MustClass("Before",
		Factory(func() any { return new(CredCard) }),
		Method("Buy", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		Events("before Buy"),
		Trigger("PreBuy", "before Buy",
			func(ctx *Ctx, self any, act *Activation) error {
				seen = self.(*CredCard).CurrBal
				return nil
			},
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Before", &CredCard{CurrBal: 10})
	db.Activate(tx, ref, "PreBuy")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Buy", 90.0); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if seen != 10 {
		t.Fatalf("before-event action saw balance %v, want pre-method 10", seen)
	}
}

func TestUserEventMustBeDeclared(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	defer tx.Abort()
	if err := db.PostUserEvent(tx, ref, "NotDeclared"); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("undeclared user event: %v", err)
	}
}

func TestInvokeErrors(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := db.Invoke(tx, ref, "NoSuchMethod"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, err := db.Invoke(tx, RefFromOID(99999), "Buy", 1.0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown object: %v", err)
	}
	if _, err := db.Create(tx, "NoSuchClass", &CredCard{}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestMethodErrorSkipsAfterEventAndWriteBack(t *testing.T) {
	fired := false
	boom := errors.New("boom")
	cls := MustClass("Failing",
		Factory(func() any { return new(CredCard) }),
		Method("Fail", func(ctx *Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal = 999
			return nil, boom
		}),
		Events("after Fail"),
		Trigger("OnFail", "after Fail",
			func(ctx *Ctx, self any, act *Activation) error { fired = true; return nil },
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Failing", &CredCard{})
	db.Activate(tx, ref, "OnFail")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Fail"); !errors.Is(err, boom) {
		t.Fatalf("Invoke error = %v", err)
	}
	tx2.Commit()
	if fired {
		t.Fatal("after event posted despite method error")
	}
	if c := card(t, db, ref); c.CurrBal == 999 {
		t.Fatal("failed method's mutation persisted")
	}
}

func TestReadOnlyMethodNotPersisted(t *testing.T) {
	cls := MustClass("RO",
		Factory(func() any { return new(CredCard) }),
		ReadOnlyMethod("Sneak", func(ctx *Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal = 777 // misbehaving const method
			return nil, nil
		}),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "RO", &CredCard{CurrBal: 1})
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Sneak"); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if c := card(t, db, ref); c.CurrBal != 1 {
		t.Fatalf("read-only method persisted a write: %v", c.CurrBal)
	}
}

func TestActionCascade(t *testing.T) {
	// "a trigger's action can cause another trigger to fire" (§5.4.5).
	var order []string
	cls := MustClass("Cascade",
		Factory(func() any { return new(CredCard) }),
		Method("A", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Method("B", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after A", "after B"),
		Trigger("OnA", "after A",
			func(ctx *Ctx, self any, act *Activation) error {
				order = append(order, "OnA")
				_, err := ctx.Invoke(ctx.Self(), "B")
				return err
			},
			Perpetual()),
		Trigger("OnB", "after B",
			func(ctx *Ctx, self any, act *Activation) error {
				order = append(order, "OnB")
				return nil
			},
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Cascade", &CredCard{})
	db.Activate(tx, ref, "OnA")
	db.Activate(tx, ref, "OnB")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "A"); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if strings.Join(order, ",") != "OnA,OnB" {
		t.Fatalf("cascade order = %v", order)
	}
}

func TestFastPathSkipsIndexLookup(t *testing.T) {
	// Design goal 3 / §5.4.5 footnote 3: objects without active triggers
	// skip the index lookup via the header bit.
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	posted, skips := metric(t, db, "core.events_posted"), metric(t, db, "core.fast_path_skips")
	if err := buy(t, db, ref, 10); err != nil {
		t.Fatal(err)
	}
	posted, skips = metric(t, db, "core.events_posted")-posted, metric(t, db, "core.fast_path_skips")-skips
	if posted != 1 || skips != 1 {
		t.Fatalf("posted=%d skips=%d, want 1 posted / 1 fast-path skip", posted, skips)
	}

	// With an active trigger the slow path runs.
	tx := db.Begin()
	db.Activate(tx, ref, "DenyCredit")
	tx.Commit()
	skips, masks := metric(t, db, "core.fast_path_skips"), metric(t, db, "core.masks_evaluated")
	if err := buy(t, db, ref, 10); err != nil {
		t.Fatal(err)
	}
	skips, masks = metric(t, db, "core.fast_path_skips")-skips, metric(t, db, "core.masks_evaluated")-masks
	if skips != 0 || masks != 1 {
		t.Fatalf("skips=%d masks=%d, want slow path with one mask eval", skips, masks)
	}
}

func TestDeleteCleansUpTriggers(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	id, _ := db.Activate(tx, ref, "DenyCredit")
	tx.Commit()

	tx2 := db.Begin()
	if err := db.Delete(tx2, ref); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := db.Begin()
	defer tx3.Abort()
	if _, err := db.Get(tx3, ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object loadable: %v", err)
	}
	// The trigger state object is gone too.
	if err := db.Deactivate(tx3, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("trigger state survived deletion: %v", err)
	}
}

func TestClusters(t *testing.T) {
	db := newTestDB(t)
	var refs []Ref
	tx := db.Begin()
	for i := 0; i < 3; i++ {
		ref, err := db.Create(tx, "CredCard", &CredCard{CredLim: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ClusterAdd(tx, "cards", ref); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	tx.Commit()

	tx2 := db.Begin()
	var seen []Ref
	err := db.ClusterScan(tx2, "cards", func(r Ref) error {
		seen = append(seen, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if len(seen) != 3 {
		t.Fatalf("scanned %v", seen)
	}
	for i := range refs {
		if seen[i] != refs[i] {
			t.Fatalf("cluster order: %v vs %v", seen, refs)
		}
	}
}

func TestGetIdentityWithinTransaction(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	defer tx.Abort()
	a, err := db.Get(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Get(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two loads in one transaction produced distinct instances")
	}
}

func TestActivationArgsPersistAsJSON(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 123.5); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2 := db.Begin()
	defer tx2.Abort()
	active, err := db.ActiveTriggers(tx2, ref)
	if err != nil || len(active) != 1 {
		t.Fatalf("active = %+v, %v", active, err)
	}
	if active[0].Trigger != "AutoRaiseLimit" || active[0].Owner != "CredCard" {
		t.Fatalf("info = %+v", active[0])
	}
	if len(active[0].Args) != 1 || active[0].Args[0].(float64) != 123.5 {
		t.Fatalf("args = %v", active[0].Args)
	}
}

func TestUnknownTriggerActivation(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := db.Activate(tx, ref, "NoSuchTrigger"); !errors.Is(err, ErrUnknownTrigger) {
		t.Fatalf("unknown trigger: %v", err)
	}
}

func TestMaskAtActivationSettles(t *testing.T) {
	// An expression whose first position is a mask evaluates it at
	// activation time (the FSM's start state is a mask state).
	evals := 0
	cls := MustClass("StartMask",
		Factory(func() any { return new(CredCard) }),
		Method("M", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after M"),
		Mask("always", func(ctx *Ctx, self any, act *Activation) (bool, error) {
			evals++
			return true, nil
		}),
		// ^(*after M & always), after M — anchored so the leading
		// star+mask is genuinely first.
		Trigger("T", "^(*after M & always), after M",
			func(ctx *Ctx, self any, act *Activation) error { return nil }),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "StartMask", &CredCard{})
	if _, err := db.Activate(tx, ref, "T"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if evals == 0 {
		t.Fatal("start-state mask not evaluated at activation")
	}
}

func TestOnlyUserEventsPostable(t *testing.T) {
	// §4: member function events are posted by the system; the
	// application may post only user-defined events explicitly.
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	defer tx.Abort()
	if err := db.PostUserEvent(tx, ref, "after Buy"); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("posting a member event manually: %v, want ErrUnknownEvent", err)
	}
	if err := db.PostUserEvent(tx, ref, "before tcomplete"); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("posting a transaction event manually: %v, want ErrUnknownEvent", err)
	}
	if err := db.PostUserEvent(tx, ref, "BigBuy"); err != nil {
		t.Fatalf("posting a declared user event: %v", err)
	}
}
