package ode_test

import (
	"errors"
	"path/filepath"
	"testing"

	"ode"
)

// Account is a minimal persistent class for facade tests.
type Account struct {
	Owner   string
	Balance float64
	Alerts  []string
}

func accountClass() *ode.Class {
	return ode.MustClass("Account",
		ode.Factory(func() any { return new(Account) }),
		ode.Method("Deposit", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			a := self.(*Account)
			a.Balance += args[0].(float64)
			return a.Balance, nil
		}),
		ode.Method("Withdraw", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			a := self.(*Account)
			a.Balance -= args[0].(float64)
			return a.Balance, nil
		}),
		ode.ReadOnlyMethod("GetBalance", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			return self.(*Account).Balance, nil
		}),
		ode.Events("after Deposit", "after Withdraw"),
		ode.Mask("Overdrawn", func(ctx *ode.Ctx, self any, act *ode.Activation) (bool, error) {
			return self.(*Account).Balance < 0, nil
		}),
		ode.Trigger("BlockOverdraft", "after Withdraw & Overdrawn",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error {
				ctx.TAbort()
				return nil
			},
			ode.Perpetual()),
		ode.Trigger("AlertBigSwing", "relative((after Deposit & Overdrawn), after Deposit)",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error {
				a := self.(*Account)
				a.Alerts = append(a.Alerts, act.ArgString(0))
				return nil
			}),
	)
}

func openAccountDB(t *testing.T) (*ode.Database, ode.Ref) {
	t.Helper()
	db, err := ode.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Register(accountClass()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	ref, err := db.Create(tx, "Account", &Account{Owner: "dan"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "BlockOverdraft"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref
}

func TestFacadeEndToEnd(t *testing.T) {
	db, ref := openAccountDB(t)

	tx := db.Begin()
	ret, err := db.Invoke(tx, ref, "Deposit", 100.0)
	if err != nil {
		t.Fatal(err)
	}
	if ret.(float64) != 100 {
		t.Fatalf("Deposit returned %v", ret)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Overdraft blocked by the perpetual trigger.
	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Withdraw", 500.0); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ode.ErrAborted) {
		t.Fatalf("overdraft commit = %v, want ErrAborted", err)
	}

	tx3 := db.Begin()
	defer tx3.Abort()
	acct, err := ode.Get[*Account](db, tx3, ref)
	if err != nil {
		t.Fatal(err)
	}
	if acct.Balance != 100 {
		t.Fatalf("balance = %v, want 100 (overdraft rolled back)", acct.Balance)
	}
}

func TestGetTypeMismatch(t *testing.T) {
	db, ref := openAccountDB(t)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := ode.Get[*struct{ X int }](db, tx, ref); err == nil {
		t.Fatal("wrong-type Get succeeded")
	}
}

func TestOpenDiskPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facade.eos")
	db, err := ode.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(accountClass()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	ref, err := db.Create(tx, "Account", &Account{Owner: "robert", Balance: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := ode.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Register(accountClass()); err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin()
	defer tx2.Abort()
	ref2 := ode.RefFromOID(uint64(ref.OID()))
	acct, err := ode.Get[*Account](db2, tx2, ref2)
	if err != nil {
		t.Fatal(err)
	}
	if acct.Owner != "robert" || acct.Balance != 7 {
		t.Fatalf("persisted account = %+v", acct)
	}
}

func TestOpenMemoryFileSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facade.dali")
	db, err := ode.OpenMemoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(accountClass()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	ref, _ := db.Create(tx, "Account", &Account{Owner: "mm-ode"})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := ode.OpenMemoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Register(accountClass()); err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin()
	defer tx2.Abort()
	acct, err := ode.Get[*Account](db2, tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	if acct.Owner != "mm-ode" {
		t.Fatalf("snapshot account = %+v", acct)
	}
}

func TestRelativeTriggerViaFacade(t *testing.T) {
	db, ref := openAccountDB(t)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AlertBigSwing", "swing!"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// Drive the account negative (bypassing BlockOverdraft via deposit
	// of negative value would be cheating — use Deposit with negative
	// amount to simulate a fee posting).
	step := func(amount float64) {
		t.Helper()
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Deposit", amount); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	step(-50) // balance negative: arms (Deposit & Overdrawn)
	step(10)  // any further Deposit completes relative(...)
	tx2 := db.Begin()
	defer tx2.Abort()
	acct, _ := ode.Get[*Account](db, tx2, ref)
	if len(acct.Alerts) != 1 || acct.Alerts[0] != "swing!" {
		t.Fatalf("alerts = %v", acct.Alerts)
	}
}

func TestStatsExposed(t *testing.T) {
	db, ref := openAccountDB(t)
	posted, _ := db.Observability().Value("core.events_posted")
	tx := db.Begin()
	db.Invoke(tx, ref, "Deposit", 1.0)
	tx.Commit()
	if now, _ := db.Observability().Value("core.events_posted"); now == posted {
		t.Fatal("core.events_posted not counting")
	}
}
