package core

import (
	"testing"

	"ode/internal/obs"
)

// cascadeFixture builds a class where trigger Outer's action invokes
// Mark, whose "after Mark" event fires trigger Inner — a two-hop trigger
// cascade within one transaction.
func cascadeFixture(t *testing.T) (*Database, Ref) {
	t.Helper()
	cls := MustClass("Cascade",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Method("Mark", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.BlackMarks = append(c.BlackMarks, "marked")
			return nil, nil
		}),
		Method("Note", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke", "after Mark"),
		Trigger("Outer", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "Mark")
				return err
			}),
		Trigger("Inner", "after Mark",
			func(ctx *Ctx, self any, act *Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "Note")
				return err
			}),
	)
	db := newTestDB(t, cls)
	tx := db.Begin()
	ref, err := db.Create(tx, "Cascade", &CredCard{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "Outer"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "Inner"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref
}

// TestCascadeProvenanceChain asserts the tentpole invariant inside one
// node: an event posted from within a trigger action carries the firing
// posting's cause as its parent, forming a parent-linked cascade chain.
func TestCascadeProvenanceChain(t *testing.T) {
	db, ref := cascadeFixture(t)
	db.Tracer().SetRate(1) // trace every posting

	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	node := db.Causes().Node()
	recs := db.Tracer().Snapshot()
	var outer, inner []obs.TraceRecord
	for _, r := range recs {
		switch r.Event {
		case "Cascade::after Poke":
			outer = append(outer, r)
		case "Cascade::after Mark":
			inner = append(inner, r)
		}
	}
	if len(outer) != 1 || len(inner) != 1 {
		t.Fatalf("got %d outer and %d inner traces, want exactly 1 each (all: %+v)",
			len(outer), len(inner), recs)
	}

	oc, ok := obs.ParseCause(outer[0].Cause)
	if !ok || oc.IsZero() {
		t.Fatalf("outer trace has no cause: %q", outer[0].Cause)
	}
	if oc.Node != node {
		t.Fatalf("outer cause node %016x, want this database's %016x", oc.Node, node)
	}
	if outer[0].ParentCause != "" {
		t.Fatalf("outer posting is a root but has parent %q", outer[0].ParentCause)
	}

	ic, ok := obs.ParseCause(inner[0].Cause)
	if !ok || ic.IsZero() {
		t.Fatalf("inner trace has no cause: %q", inner[0].Cause)
	}
	// The chain link: the nested posting's parent IS the outer posting.
	if inner[0].ParentCause != outer[0].Cause {
		t.Fatalf("inner parent %q does not link to outer cause %q",
			inner[0].ParentCause, outer[0].Cause)
	}
	if ic == oc {
		t.Fatal("inner and outer postings share one cause ID")
	}

	// The fire steps carry the pattern-origin cause of their trigger.
	wantFire := map[string]string{"Outer": outer[0].Cause, "Inner": inner[0].Cause}
	for _, r := range recs {
		for _, s := range r.Steps {
			if s.Kind != obs.StepFire {
				continue
			}
			if want, ok := wantFire[s.Trigger]; ok && s.Cause != want {
				t.Fatalf("fire step for %s has cause %q, want %q", s.Trigger, s.Cause, want)
			}
		}
	}
}

// TestProvenanceDisabled asserts SetProvenance(false) suppresses cause
// assignment entirely.
func TestProvenanceDisabled(t *testing.T) {
	db, ref := cascadeFixture(t)
	db.SetProvenance(false)
	db.Tracer().SetRate(1)

	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, r := range db.Tracer().Snapshot() {
		if r.Cause != "" || r.ParentCause != "" {
			t.Fatalf("provenance disabled but trace %q carries cause %q parent %q",
				r.Event, r.Cause, r.ParentCause)
		}
	}
}

// TestDetachedProvenanceChain asserts a dependent (detached) firing's
// nested posting still links back: the action runs in its own system
// transaction after the detecting commit, and the event it posts must
// carry the detecting posting's cause as parent.
func TestDetachedProvenanceChain(t *testing.T) {
	cls := MustClass("DetCascade",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Method("Mark", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke", "after Mark"),
		Trigger("Det", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "Mark")
				return err
			},
			WithCoupling(Dependent)),
	)
	db := newTestDB(t, cls)
	db.Tracer().SetRate(1)
	tx := db.Begin()
	ref, _ := db.Create(tx, "DetCascade", &CredCard{})
	if _, err := db.Activate(tx, ref, "Det"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	var poke, mark *obs.TraceRecord
	for _, r := range db.Tracer().Snapshot() {
		r := r
		switch r.Event {
		case "DetCascade::after Poke":
			poke = &r
		case "DetCascade::after Mark":
			mark = &r
		}
	}
	if poke == nil || mark == nil {
		t.Fatal("missing traces for the detached cascade")
	}
	if poke.Cause == "" || mark.ParentCause != poke.Cause {
		t.Fatalf("detached posting parent %q does not link to detecting cause %q",
			mark.ParentCause, poke.Cause)
	}
}
