package core

import (
	"errors"
	"strings"
	"testing"

	"ode/internal/fsm"
	"ode/internal/storage/dali"
)

func noopAction(ctx *Ctx, self any, act *Activation) error { return nil }

func noopMethod(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }

func TestClassValidation(t *testing.T) {
	factory := Factory(func() any { return new(CredCard) })
	cases := []struct {
		name    string
		opts    []Option
		wantErr string
	}{
		{
			"missing factory",
			[]Option{Method("M", noopMethod)},
			"no Factory",
		},
		{
			"nil factory result",
			[]Option{Factory(func() any { return nil })},
			"Factory returned nil",
		},
		{
			"trigger references undeclared event",
			[]Option{factory, Method("M", noopMethod),
				Trigger("T", "after M", noopAction)},
			"undeclared event",
		},
		{
			"trigger references unknown mask",
			[]Option{factory, Method("M", noopMethod), Events("after M"),
				Trigger("T", "after M & nosuch", noopAction)},
			"unknown mask",
		},
		{
			"event for unknown method",
			[]Option{factory, Events("after Ghost")},
			"unknown method",
		},
		{
			"bad expression syntax",
			[]Option{factory, Method("M", noopMethod), Events("after M"),
				Trigger("T", "after M ||", noopAction)},
			"T",
		},
		{
			"duplicate method",
			[]Option{factory, Method("M", noopMethod), Method("M", noopMethod)},
			"declared twice",
		},
		{
			"duplicate event",
			[]Option{factory, Method("M", noopMethod), Events("after M", "after M")},
			"declared twice",
		},
		{
			"duplicate mask",
			[]Option{factory,
				Mask("m", func(ctx *Ctx, self any, act *Activation) (bool, error) { return true, nil }),
				Mask("m", func(ctx *Ctx, self any, act *Activation) (bool, error) { return true, nil })},
			"declared twice",
		},
		{
			"duplicate trigger",
			[]Option{factory, Method("M", noopMethod), Events("after M"),
				Trigger("T", "after M", noopAction),
				Trigger("T", "after M", noopAction)},
			"declared twice",
		},
		{
			"trigger without action",
			[]Option{factory, Method("M", noopMethod), Events("after M"),
				Trigger("T", "after M", nil)},
			"no action",
		},
		{
			"malformed event decl",
			[]Option{factory, Events("after")},
			"missing name",
		},
		{
			"three-token event decl",
			[]Option{factory, Events("after the fact")},
			"event declaration",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewClass("Bad", c.opts...)
			if err == nil {
				t.Fatalf("NewClass accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestEmptyClassNameRejected(t *testing.T) {
	if _, err := NewClass(""); err == nil {
		t.Fatal("empty class name accepted")
	}
}

func TestMustClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustClass did not panic on invalid class")
		}
	}()
	MustClass("Bad")
}

func TestEventKeys(t *testing.T) {
	c := MustClass("K",
		Factory(func() any { return new(CredCard) }),
		Method("M", noopMethod),
		Events("after M", "before M", "UserEv", "before tcomplete"),
	)
	keys := c.EventKeys()
	want := []string{"after M", "before M", "UserEv", "before tcomplete"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	if !c.HasTxnInterest() {
		t.Fatal("txn interest not detected")
	}
}

func TestRegisterSameClassTwice(t *testing.T) {
	db := newTestDB(t)
	cls, _ := db.ClassOf("CredCard")
	if err := db.Register(cls.Def); err != nil {
		t.Fatalf("re-register same definition: %v", err)
	}
	other := MustClass("CredCard",
		Factory(func() any { return new(CredCard) }),
	)
	if err := db.Register(other); err == nil {
		t.Fatal("conflicting definition accepted")
	}
}

func TestClassIDStableAcrossReopen(t *testing.T) {
	// Class IDs live in the catalog; a second Database over the same
	// store must agree (TriggerState.OwnerClass depends on it).
	db := newTestDB(t)
	ref := newCard(t, db, 100, true)
	bc, _ := db.ClassOf("CredCard")

	db2, err := NewDatabase(db.Store())
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Register(newCredCardClass()); err != nil {
		t.Fatal(err)
	}
	bc2, _ := db2.ClassOf("CredCard")
	if bc.ID != bc2.ID {
		t.Fatalf("class ID drifted: %d vs %d", bc.ID, bc2.ID)
	}
	tx := db2.Begin()
	defer tx.Abort()
	if _, err := db2.Get(tx, ref); err != nil {
		t.Fatalf("second database cannot read object: %v", err)
	}
}

// bigMachineClass declares one trigger, "after A" followed by n copies
// of "(after A || after B)", whose unanchored machine needs 2^(n+1)
// states.
func bigMachineClass(n int) *Class {
	return MustClass("Big",
		Factory(func() any { return new(CredCard) }),
		Method("A", noopMethod),
		Method("B", noopMethod),
		Events("after A", "after B"),
		Trigger("Doubling", "after A"+strings.Repeat(", (after A || after B)", n), noopAction),
	)
}

// TestRegisterRejectsLargeMachine checks that Register fails with
// ErrMachineTooLarge, naming the class, the trigger and the cap, when a
// trigger's machine would pass the per-machine state cap.
func TestRegisterRejectsLargeMachine(t *testing.T) {
	db, err := NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.Register(bigMachineClass(16))
	if !errors.Is(err, fsm.ErrMachineTooLarge) {
		t.Fatalf("Register = %v, want ErrMachineTooLarge", err)
	}
	for _, want := range []string{"Big", "Doubling", "1024"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if _, ok := db.ClassOf("Big"); ok {
		t.Error("the rejected class was bound")
	}
}
