package core

import (
	"testing"

	"ode/internal/storage"
)

// auditFixture: an Account class interested in transaction events. The
// composite "after Deposit, before tcomplete" fires when a deposit is the
// last relevant thing before the transaction commits.
func auditFixture(t *testing.T) (*Database, Ref, *int, *int) {
	t.Helper()
	commits := new(int)
	aborts := new(int)
	cls := MustClass("Account",
		Factory(func() any { return new(CredCard) }),
		Method("Deposit", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		Events("after Deposit", "before tcomplete", "before tabort"),
		Trigger("AuditCommit", "after Deposit, *any, before tcomplete",
			func(ctx *Ctx, self any, act *Activation) error {
				*commits++
				return nil
			},
			Perpetual()),
		Trigger("AuditAbort", "after Deposit, *any, before tabort",
			func(ctx *Ctx, self any, act *Activation) error {
				*aborts++
				return nil
			},
			Perpetual(), WithCoupling(Independent)),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, err := db.Create(tx, "Account", &CredCard{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "AuditCommit"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "AuditAbort"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref, commits, aborts
}

func TestBeforeTCompletePostedAtCommit(t *testing.T) {
	db, ref, commits, aborts := auditFixture(t)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Deposit", 100.0); err != nil {
		t.Fatal(err)
	}
	if *commits != 0 {
		t.Fatal("tcomplete trigger fired before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if *commits != 1 {
		t.Fatalf("AuditCommit fired %d times, want 1", *commits)
	}
	if *aborts != 0 {
		t.Fatalf("AuditAbort fired on the commit path")
	}
}

func TestBeforeTCompleteOncePerTransaction(t *testing.T) {
	// The object joins the transaction-event list once (first access);
	// tcomplete is posted once per transaction, not per access.
	db, ref, commits, _ := auditFixture(t)
	tx := db.Begin()
	for i := 0; i < 3; i++ {
		if _, err := db.Invoke(tx, ref, "Deposit", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if *commits != 1 {
		t.Fatalf("AuditCommit fired %d times, want 1 (single tcomplete)", *commits)
	}
}

func TestBeforeTAbortPostedOnExplicitAbort(t *testing.T) {
	db, ref, commits, aborts := auditFixture(t)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Deposit", 100.0); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	// The AuditAbort trigger is !dependent, so its action survives the
	// abort (an immediate trigger's firing would be rolled back with the
	// transaction, §5.5).
	if *aborts != 1 {
		t.Fatalf("AuditAbort fired %d times, want 1", *aborts)
	}
	if *commits != 0 {
		t.Fatalf("AuditCommit fired on the abort path")
	}
	// The deposit itself rolled back.
	if c := card(t, db, ref); c.CurrBal != 0 {
		t.Fatalf("deposit survived abort: %v", c.CurrBal)
	}
}

func TestNoTxnEventsWithoutAccess(t *testing.T) {
	// A transaction that never touches the object posts no transaction
	// events to it.
	db, _, commits, aborts := auditFixture(t)
	tx := db.Begin()
	tx.Commit()
	tx2 := db.Begin()
	tx2.Abort()
	if *commits != 0 || *aborts != 0 {
		t.Fatalf("txn events posted without access: commits=%d aborts=%d", *commits, *aborts)
	}
}

func TestNoTAbortWithoutPriorDeposit(t *testing.T) {
	// The composite requires a Deposit before the abort; merely reading
	// the object then aborting must not fire.
	db, ref, _, aborts := auditFixture(t)
	tx := db.Begin()
	if _, err := db.Get(tx, ref); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if *aborts != 0 {
		t.Fatalf("AuditAbort fired without a deposit: %d", *aborts)
	}
}

func TestEndTriggerRunsBeforeTCompletePosting(t *testing.T) {
	// §5.5: "Immediately before posting before tcomplete events, commit
	// processing scans the end list and executes the relevant actions."
	var order []string
	cls := MustClass("Ordered",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke", "before tcomplete"),
		Trigger("EndT", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				order = append(order, "end")
				return nil
			},
			WithCoupling(Deferred), Perpetual()),
		Trigger("CompleteT", "before tcomplete",
			func(ctx *Ctx, self any, act *Activation) error {
				order = append(order, "tcomplete")
				return nil
			},
			Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Ordered", &CredCard{})
	db.Activate(tx, ref, "EndT")
	db.Activate(tx, ref, "CompleteT")
	tx.Commit()
	// The setup commit itself posted a tcomplete (the object was
	// accessed); measure only the next transaction.
	order = nil

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "end" || order[1] != "tcomplete" {
		t.Fatalf("order = %v, want [end tcomplete]", order)
	}
}

func TestEndTriggerSatisfiedByTCompleteStillFires(t *testing.T) {
	// An end trigger whose composite event is completed BY the tcomplete
	// posting is drained in the second end-list pass.
	fired := 0
	cls := MustClass("LateEnd",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke", "before tcomplete"),
		Trigger("T", "after Poke, *any, before tcomplete",
			func(ctx *Ctx, self any, act *Activation) error {
				fired++
				return nil
			},
			WithCoupling(Deferred), Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "LateEnd", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("end trigger satisfied by tcomplete fired %d times, want 1", fired)
	}
}

func TestAfterTabortRejectedAtClassBuild(t *testing.T) {
	// §6: after tabort was dropped from the design; the class builder
	// must reject it (as it rejects after tcommit).
	_, err := NewClass("Bad",
		Factory(func() any { return new(CredCard) }),
		Events("after tabort"),
	)
	if err == nil {
		t.Fatal("after tabort accepted")
	}
	_, err = NewClass("Bad2",
		Factory(func() any { return new(CredCard) }),
		Events("after tcommit"),
	)
	if err == nil {
		t.Fatal("after tcommit accepted")
	}
}

// TestCommitProcessingReachesFixpoint checks that before tcomplete
// reaches every interested object exactly once, including one that a
// commit-time end action touches first (§5.5). End is a perpetual
// end-coupled trigger on before tcomplete whose action deposits into
// the object named by its argument; Seen counts each object's before
// tcomplete.
func TestCommitProcessingReachesFixpoint(t *testing.T) {
	seen := map[Ref]int{}
	deposit := Method("Deposit", func(ctx *Ctx, self any, args []any) (any, error) {
		self.(*CredCard).CurrBal++
		return nil, nil
	})
	seenTrig := Trigger("Seen", "before tcomplete", func(ctx *Ctx, self any, act *Activation) error {
		seen[act.Ref]++
		return nil
	}, Perpetual())
	db := newTestDB(t,
		MustClass("Drv",
			Factory(func() any { return new(CredCard) }),
			Method("Go", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
			deposit,
			Events("before tcomplete"),
			Trigger("End", "before tcomplete", func(ctx *Ctx, self any, act *Activation) error {
				_, err := ctx.Invoke(RefFromOID(storage.OID(act.ArgFloat(0))), "Deposit")
				return err
			}, WithCoupling(Deferred), Perpetual()),
			seenTrig,
		),
		MustClass("Acct",
			Factory(func() any { return new(CredCard) }),
			deposit,
			Events("before tcomplete"),
			seenTrig,
		),
	)
	rows := []struct {
		name       string
		class      string // of the object End deposits into
		touchFirst bool   // the transaction deposits into it before commit
	}{
		{"late object of another class", "Acct", false},
		{"late object of the end trigger's class", "Drv", false},
		{"object already posted to", "Acct", true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tx := db.Begin()
			drv, err := db.Create(tx, "Drv", &CredCard{})
			if err != nil {
				t.Fatal(err)
			}
			target, err := db.Create(tx, row.class, &CredCard{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Activate(tx, drv, "End", float64(target.OID())); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Activate(tx, target, "Seen"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			clear(seen)

			tx = db.Begin()
			if row.touchFirst {
				if _, err := db.Invoke(tx, target, "Deposit"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Invoke(tx, drv, "Go"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if seen[target] != 1 {
				t.Fatalf("target saw before tcomplete %d times, want 1", seen[target])
			}
		})
	}
}
