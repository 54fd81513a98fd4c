package core

import (
	"fmt"
	"testing"

	"ode/internal/storage/dali"
)

// CredCard reproduces the paper's §4 class:
//
//	persistent class CredCard {
//	    persistent Customer *issuedTo;
//	    float credLim, currBal;
//	    ...
//	    event after Buy, after PayBill, BigBuy;
//	    trigger DenyCredit() : perpetual after Buy & (currBal>credLim)
//	        ==> {BlackMark("Over Limit", today()); tabort;}
//	    trigger AutoRaiseLimit(float amount) :
//	        relative((after Buy & MoreCred()), after PayBill)
//	        ==> RaiseLimit(amount);
//	};
type CredCard struct {
	Holder     string
	CredLim    float64
	CurrBal    float64
	GoodHist   bool
	BlackMarks []string
}

// MoreCred is the paper's private helper:
// (currBal > 0.8*credLim) && GoodCredHist().
func (c *CredCard) MoreCred() bool {
	return c.CurrBal > 0.8*c.CredLim && c.GoodHist
}

// newCredCardClass builds the CredCard class definition.
func newCredCardClass() *Class {
	return MustClass("CredCard",
		Factory(func() any { return new(CredCard) }),
		Method("Buy", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		Method("PayBill", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal -= args[0].(float64)
			return nil, nil
		}),
		Method("RaiseLimit", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CredLim += args[0].(float64)
			return nil, nil
		}),
		Method("BlackMark", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.BlackMarks = append(c.BlackMarks, args[0].(string))
			return nil, nil
		}),
		ReadOnlyMethod("GoodCredHist", func(ctx *Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).GoodHist, nil
		}),
		Events("after Buy", "after PayBill", "BigBuy"),
		Mask("OverLimit", func(ctx *Ctx, self any, act *Activation) (bool, error) {
			c := self.(*CredCard)
			return c.CurrBal > c.CredLim, nil
		}),
		Mask("MoreCred", func(ctx *Ctx, self any, act *Activation) (bool, error) {
			return self.(*CredCard).MoreCred(), nil
		}),
		Trigger("DenyCredit", "after Buy & OverLimit",
			func(ctx *Ctx, self any, act *Activation) error {
				if _, err := ctx.Invoke(ctx.Self(), "BlackMark", "Over Limit"); err != nil {
					return err
				}
				ctx.TAbort()
				return nil
			},
			Perpetual()),
		Trigger("AutoRaiseLimit", "relative((after Buy & MoreCred()), after PayBill)",
			func(ctx *Ctx, self any, act *Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "RaiseLimit", act.ArgFloat(0))
				return err
			}),
	)
}

// newTestDB returns a main-memory database with CredCard registered.
func newTestDB(t testing.TB, classes ...*Class) *Database {
	t.Helper()
	db, err := NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if len(classes) == 0 {
		classes = []*Class{newCredCardClass()}
	}
	if err := db.Register(classes...); err != nil {
		t.Fatal(err)
	}
	return db
}

// metric reads one counter from db's registry, where every subsystem's
// counters live.
func metric(t testing.TB, db *Database, name string) uint64 {
	t.Helper()
	v, ok := db.Observability().Value(name)
	if !ok {
		t.Fatalf("no metric %s", name)
	}
	return v
}

// newCard commits a fresh card and returns its Ref.
func newCard(t testing.TB, db *Database, limit float64, goodHist bool) Ref {
	t.Helper()
	tx := db.Begin()
	ref, err := db.Create(tx, "CredCard", &CredCard{Holder: "Narain", CredLim: limit, GoodHist: goodHist})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// card loads the current committed state of a card.
func card(t *testing.T, db *Database, ref Ref) *CredCard {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	v, err := db.Get(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	c := v.(*CredCard)
	cp := *c
	return &cp
}

// buy invokes Buy in its own transaction, returning the commit error.
func buy(t *testing.T, db *Database, ref Ref, amount float64) error {
	t.Helper()
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Buy", amount); err != nil {
		tx.Abort()
		t.Fatalf("Buy: %v", err)
	}
	return tx.Commit()
}

func payBill(t *testing.T, db *Database, ref Ref, amount float64) error {
	t.Helper()
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "PayBill", amount); err != nil {
		tx.Abort()
		t.Fatalf("PayBill: %v", err)
	}
	return tx.Commit()
}

// sanity check that the fixture compiles its FSMs at registration.
func TestCredCardClassRegisters(t *testing.T) {
	db := newTestDB(t)
	bc, ok := db.ClassOf("CredCard")
	if !ok {
		t.Fatal("CredCard not bound")
	}
	if len(bc.ownTriggers) != 2 {
		t.Fatalf("bound %d triggers, want 2", len(bc.ownTriggers))
	}
	// The AutoRaiseLimit machine is the paper's Figure 1: four states.
	arl, ok := bc.TriggerByName("AutoRaiseLimit")
	if !ok {
		t.Fatal("AutoRaiseLimit not found")
	}
	if got := arl.Machine.NumStates(); got != 4 {
		t.Fatalf("AutoRaiseLimit FSM has %d states, Figure 1 has 4:\n%s",
			got, arl.Machine.Format(nil))
	}
	names := bc.Def.Triggers()
	if fmt.Sprint(names) != "[DenyCredit AutoRaiseLimit]" {
		t.Fatalf("trigger names: %v", names)
	}
}
