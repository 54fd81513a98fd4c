package core

import (
	"errors"
	"testing"

	"ode/internal/txn"
)

// couplingFixture builds a class whose single trigger fires on "after
// Poke" with the given coupling; the action appends the trigger name to
// the object's BlackMarks (persisted via Invoke so the effect is
// observable — or not — per coupling semantics).
func couplingFixture(t *testing.T, coupling Coupling, perpetual bool) (*Database, Ref, *int) {
	t.Helper()
	fires := new(int)
	opts := []TriggerOption{WithCoupling(coupling)}
	if perpetual {
		opts = append(opts, Perpetual())
	}
	cls := MustClass("Coupled",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Method("Mark", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.BlackMarks = append(c.BlackMarks, args[0].(string))
			return nil, nil
		}),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				*fires++
				_, err := ctx.Invoke(ctx.Self(), "Mark", "fired")
				return err
			},
			opts...),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, err := db.Create(tx, "Coupled", &CredCard{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "T"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref, fires
}

func marks(t *testing.T, db *Database, ref Ref) []string {
	t.Helper()
	return card(t, db, ref).BlackMarks
}

func TestImmediateFiresInsideDetectingTxn(t *testing.T) {
	db, ref, fires := couplingFixture(t, Immediate, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if *fires != 1 {
		t.Fatalf("immediate trigger fired %d times before commit, want 1", *fires)
	}
	// The action's effect is visible inside the same transaction.
	v, _ := db.Get(tx, ref)
	if len(v.(*CredCard).BlackMarks) != 1 {
		t.Fatal("action effect not visible in detecting txn")
	}
	tx.Commit()
	if len(marks(t, db, ref)) != 1 {
		t.Fatal("action effect lost at commit")
	}
}

func TestImmediateRollsBackWithTxn(t *testing.T) {
	db, ref, fires := couplingFixture(t, Immediate, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if *fires != 1 {
		t.Fatalf("fires = %d", *fires)
	}
	if len(marks(t, db, ref)) != 0 {
		t.Fatal("immediate action effect survived abort")
	}
	// The trigger deactivation rolled back too: it is active again.
	tx2 := db.Begin()
	active, _ := db.ActiveTriggers(tx2, ref)
	tx2.Commit()
	if len(active) != 1 {
		t.Fatalf("deactivation not rolled back: %+v", active)
	}
}

func TestDeferredFiresAtCommit(t *testing.T) {
	db, ref, fires := couplingFixture(t, Deferred, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if *fires != 0 {
		t.Fatal("end trigger fired before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if *fires != 1 {
		t.Fatalf("end trigger fired %d times at commit, want 1", *fires)
	}
	if len(marks(t, db, ref)) != 1 {
		t.Fatal("end action effect not committed")
	}
}

func TestDeferredSkippedOnAbort(t *testing.T) {
	db, ref, fires := couplingFixture(t, Deferred, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if *fires != 0 {
		t.Fatal("end trigger fired despite abort")
	}
	if len(marks(t, db, ref)) != 0 {
		t.Fatal("end action effect leaked")
	}
}

func TestDeferredActionCanAbort(t *testing.T) {
	// An end trigger acts as a deferred constraint: its action can
	// tabort, rolling back the whole transaction.
	cls := MustClass("Constraint",
		Factory(func() any { return new(CredCard) }),
		Method("Buy", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		Events("after Buy"),
		Mask("OverLimit", func(ctx *Ctx, self any, act *Activation) (bool, error) {
			c := self.(*CredCard)
			return c.CurrBal > c.CredLim, nil
		}),
		Trigger("CheckAtEnd", "after Buy & OverLimit",
			func(ctx *Ctx, self any, act *Activation) error {
				ctx.TAbort()
				return nil
			},
			WithCoupling(Deferred), Perpetual()),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Constraint", &CredCard{CredLim: 100})
	db.Activate(tx, ref, "CheckAtEnd")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Buy", 500.0); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("commit = %v, want ErrAborted", err)
	}
	if c := card(t, db, ref); c.CurrBal != 0 {
		t.Fatalf("balance = %v after aborted commit", c.CurrBal)
	}
}

func TestDependentFiresOnlyAfterCommit(t *testing.T) {
	db, ref, fires := couplingFixture(t, Dependent, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if *fires != 0 {
		t.Fatal("dependent trigger fired before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if *fires != 1 {
		t.Fatalf("dependent fired %d times, want 1", *fires)
	}
	// The action ran in its own (system) transaction; its effect is
	// durable.
	if len(marks(t, db, ref)) != 1 {
		t.Fatal("dependent action effect missing")
	}
	if got := metric(t, db, "core.fired_dependent"); got != 1 {
		t.Fatalf("core.fired_dependent = %d, want 1", got)
	}
	if metric(t, db, "txn.system") == 0 {
		t.Fatal("dependent action did not use a system transaction")
	}
}

func TestDependentSkippedOnAbort(t *testing.T) {
	// The commit dependency: the separate transaction "can commit only if
	// the event detecting transaction does" (§4.2).
	db, ref, fires := couplingFixture(t, Dependent, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if *fires != 0 {
		t.Fatal("dependent trigger fired despite abort")
	}
	if len(marks(t, db, ref)) != 0 {
		t.Fatal("dependent effect leaked")
	}
}

func TestIndependentFiresAfterCommit(t *testing.T) {
	db, ref, fires := couplingFixture(t, Independent, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if *fires != 1 {
		t.Fatalf("!dependent fired %d times, want 1", *fires)
	}
	if len(marks(t, db, ref)) != 1 {
		t.Fatal("!dependent effect missing")
	}
}

func TestIndependentSurvivesAbort(t *testing.T) {
	// §5.5: the abort routine scans the !dependent list and runs the
	// actions in a system transaction — permanent changes from an aborted
	// transaction.
	db, ref, fires := couplingFixture(t, Independent, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if *fires != 1 {
		t.Fatalf("!dependent fired %d times after abort, want 1", *fires)
	}
	if len(marks(t, db, ref)) != 1 {
		t.Fatal("!dependent effect not persisted after abort")
	}
	if got := metric(t, db, "core.fired_independent"); got != 1 {
		t.Fatalf("core.fired_independent = %d, want 1", got)
	}
}

func TestIndependentSurvivesTabort(t *testing.T) {
	// A doomed commit (tabort in some action) still runs !dependent
	// actions.
	db, ref, fires := couplingFixture(t, Independent, false)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	tx.RequestAbort()
	if err := tx.Commit(); !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("commit = %v", err)
	}
	if *fires != 1 || len(marks(t, db, ref)) != 1 {
		t.Fatalf("fires=%d marks=%v", *fires, marks(t, db, ref))
	}
}

func TestDetachedActionErrorCounted(t *testing.T) {
	cls := MustClass("Detach",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				return errors.New("detached failure")
			},
			WithCoupling(Dependent)),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Detach", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("detached failure must not fail the detecting txn: %v", err)
	}
	if errs, fired := metric(t, db, "core.action_errors"), metric(t, db, "core.fired_dependent"); errs != 1 || fired != 1 {
		t.Fatalf("action_errors=%d fired_dependent=%d, want 1,1", errs, fired)
	}
}

func TestImmediateActionErrorPropagates(t *testing.T) {
	boom := errors.New("action broke")
	cls := MustClass("Err",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error { return boom }),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, _ := db.Create(tx, "Err", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	defer tx2.Abort()
	if _, err := db.Invoke(tx2, ref, "Poke"); !errors.Is(err, boom) {
		t.Fatalf("Invoke = %v, want action error", err)
	}
}

func TestCouplingString(t *testing.T) {
	for c, want := range map[Coupling]string{
		Immediate: "immediate", Deferred: "end",
		Dependent: "dependent", Independent: "!dependent",
		Coupling(9): "Coupling(9)",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}
