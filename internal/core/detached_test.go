package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/txn"
)

// TestDetachedDeadlockVictimRetries forces two dependent trigger actions
// into a lock-order deadlock and asserts the victim's firing is retried
// and commits exactly once: neither firing is dropped, and each action's
// effects land exactly once despite the extra attempt.
func TestDetachedDeadlockVictimRetries(t *testing.T) {
	var (
		pokeRefs [2]Ref // objects whose Poke detects the event
		shared   [2]Ref // objects the actions increment, in opposite orders
		attempts [2]atomic.Int32
		fires    [2]atomic.Int32
		barrier  sync.WaitGroup // both actions hold their first lock
	)
	barrier.Add(2)
	waitBarrier := func() {
		done := make(chan struct{})
		go func() { barrier.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}

	cls := MustClass("Clash",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Method("Incr", func(ctx *Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal++
			return nil, nil
		}),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				idx := 0
				first, second := shared[0], shared[1]
				if ctx.Self() == pokeRefs[1] {
					idx, first, second = 1, shared[1], shared[0]
				}
				n := attempts[idx].Add(1)
				if _, err := ctx.Invoke(first, "Incr"); err != nil {
					return err
				}
				if n == 1 {
					// First attempt: rendezvous with the other action while
					// holding the first exclusive lock, so both then reach
					// for the other's object and one is victimized. Retries
					// skip the barrier and run to completion.
					barrier.Done()
					waitBarrier()
				}
				if _, err := ctx.Invoke(second, "Incr"); err != nil {
					return err
				}
				fires[idx].Add(1)
				return nil
			},
			WithCoupling(Dependent)),
	)
	db := newTestDB(t, cls)

	tx := db.Begin()
	for i := range pokeRefs {
		ref, err := db.Create(tx, "Clash", &CredCard{})
		if err != nil {
			t.Fatal(err)
		}
		pokeRefs[i] = ref
		if _, err := db.Activate(tx, ref, "T"); err != nil {
			t.Fatal(err)
		}
		shared[i], err = db.Create(tx, "Clash", &CredCard{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			utx := db.Begin()
			if _, err := db.Invoke(utx, pokeRefs[i], "Poke"); err != nil {
				t.Errorf("poke %d: %v", i, err)
				utx.Abort()
				return
			}
			if err := utx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Exactly-once: each action committed once, so each shared object was
	// incremented by both actions exactly once.
	for i, ref := range shared {
		if bal := card(t, db, ref).CurrBal; bal != 2 {
			t.Errorf("shared[%d].CurrBal = %v, want 2 (exactly-once firing)", i, bal)
		}
	}
	if f0, f1 := fires[0].Load(), fires[1].Load(); f0 != 1 || f1 != 1 {
		t.Errorf("fires = %d,%d, want 1,1", f0, f1)
	}
	if got := metric(t, db, "core.fired_dependent"); got != 2 {
		t.Errorf("core.fired_dependent = %d, want 2", got)
	}
	if got := metric(t, db, "core.detached_retries"); got < 1 {
		t.Errorf("core.detached_retries = %d, want >= 1 (a deadlock victim must have retried)", got)
	}
	if dropped, errs := metric(t, db, "core.detached_dropped"), metric(t, db, "core.action_errors"); dropped != 0 || errs != 0 {
		t.Errorf("dropped=%d actionErrors=%d, want 0,0", dropped, errs)
	}
	if total := attempts[0].Load() + attempts[1].Load(); total != 3 {
		t.Errorf("total attempts = %d, want 3 (one victim, one retry)", total)
	}
}

// TestDetachedRetryBudgetExhausted checks that a firing whose system
// transaction keeps aborting retryably is retried exactly budget times
// and then counted as dropped — bounded, not infinite, self-healing.
func TestDetachedRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int32
	cls := MustClass("Hopeless",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				attempts.Add(1)
				// A retryable abort every time: the retry budget, not the
				// classification, must terminate the loop.
				return fmt.Errorf("simulated transient: %w", txn.ErrAborted)
			},
			WithCoupling(Dependent)),
	)
	db := newTestDB(t, cls)

	tx := db.Begin()
	ref, _ := db.Create(tx, "Hopeless", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("detached drop must not fail the detecting txn: %v", err)
	}
	if got := attempts.Load(); got != detachedRetryBudget+1 {
		t.Fatalf("attempts = %d, want %d (1 initial + the retry budget)", got, detachedRetryBudget+1)
	}
	retries, dropped, errs := metric(t, db, "core.detached_retries"), metric(t, db, "core.detached_dropped"), metric(t, db, "core.action_errors")
	if retries != detachedRetryBudget || dropped != 1 || errs != 1 {
		t.Fatalf("retries=%d dropped=%d errors=%d, want %d,1,1", retries, dropped, errs, detachedRetryBudget)
	}
}

// TestDetachedPlainErrorNotRetried: a deterministic action error is
// permanent — no retry, one drop.
func TestDetachedPlainErrorNotRetried(t *testing.T) {
	var attempts atomic.Int32
	cls := MustClass("Perma",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				attempts.Add(1)
				return errors.New("deterministic failure")
			},
			WithCoupling(Dependent)),
	)
	db := newTestDB(t, cls)

	tx := db.Begin()
	ref, _ := db.Create(tx, "Perma", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (permanent errors are not retried)", got)
	}
	retries, dropped, errs := metric(t, db, "core.detached_retries"), metric(t, db, "core.detached_dropped"), metric(t, db, "core.action_errors")
	if retries != 0 || dropped != 1 || errs != 1 {
		t.Fatalf("retries=%d dropped=%d errors=%d, want 0,1,1", retries, dropped, errs)
	}
}

// TestDetachedPanicIsolated: a panicking detached action must not kill
// the process or the detecting transaction; it is recovered, counted,
// and the firing dropped as permanent.
func TestDetachedPanicIsolated(t *testing.T) {
	cls := MustClass("Panicky",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				panic("trigger action bug")
			},
			WithCoupling(Dependent)),
	)
	db := newTestDB(t, cls)

	tx := db.Begin()
	ref, _ := db.Create(tx, "Panicky", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Poke"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("panicking detached action must not fail the detecting txn: %v", err)
	}
	panics, errs, dropped := metric(t, db, "core.action_panics"), metric(t, db, "core.action_errors"), metric(t, db, "core.detached_dropped")
	if panics != 1 || errs != 1 || dropped != 1 {
		t.Fatalf("panics=%d errors=%d dropped=%d, want 1,1,1", panics, errs, dropped)
	}
	if got := metric(t, db, "core.detached_retries"); got != 0 {
		t.Fatalf("core.detached_retries = %d, want 0 (panics are permanent)", got)
	}
}

// TestImmediatePanicIsolated: a panic in an immediate trigger action
// surfaces as an Invoke error inside the detecting transaction — the
// caller can abort cleanly; the process survives.
func TestImmediatePanicIsolated(t *testing.T) {
	cls := MustClass("PanickyNow",
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
		Trigger("T", "after Poke",
			func(ctx *Ctx, self any, act *Activation) error {
				panic("immediate action bug")
			}),
	)
	db := newTestDB(t, cls)

	tx := db.Begin()
	ref, _ := db.Create(tx, "PanickyNow", &CredCard{})
	db.Activate(tx, ref, "T")
	tx.Commit()

	tx2 := db.Begin()
	defer tx2.Abort()
	_, err := db.Invoke(tx2, ref, "Poke")
	if err == nil {
		t.Fatal("Invoke with panicking immediate action returned nil error")
	}
	if got := metric(t, db, "core.action_panics"); got != 1 {
		t.Fatalf("core.action_panics = %d, want 1", got)
	}
}
