package core

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"ode/internal/storage/eos"
	"ode/internal/txn"
)

// openDiskDB opens (or reopens) an eos database at path with CredCard
// registered, as one application process would. The caller closes it.
func openDiskDB(t testing.TB, path string) *Database {
	t.Helper()
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(newCredCardClass()); err != nil {
		t.Fatal(err)
	}
	return db
}

// crossProcessLimit runs two "application processes" in turn — two
// Database instances over one store file — and returns the card's credit
// limit as the second one sees it. The first creates the card, activates
// AutoRaiseLimit(500) and arms its pattern with a big Buy, then exits;
// the second only pays the bill. The limit is 1500 exactly when the
// composite event armed in one process fired in the other.
func crossProcessLimit(t *testing.T) float64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "global.eos")

	db := openDiskDB(t, path)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := buy(t, db, ref, 900); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openDiskDB(t, path)
	if err := payBill(t, db, ref, 100); err != nil {
		t.Fatal(err)
	}
	limit := card(t, db, ref).CredLim
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return limit
}

// TestGlobalCompositeAcrossProcesses is experiment E14's correctness half:
// because TriggerStates live in the database (not in transient program
// memory as in Sentinel, §7), a composite event armed by one application
// can be completed by another.
func TestGlobalCompositeAcrossProcesses(t *testing.T) {
	if limit := crossProcessLimit(t); limit != 1500 {
		t.Fatalf("cross-process composite did not fire: limit %v, want 1500", limit)
	}
}

// TestConcurrentSessions exercises the engine under concurrent
// transactions on disjoint objects (deadlock-free) and shared objects
// (conflicts resolved by the lock manager, victims retried).
func TestConcurrentSessions(t *testing.T) {
	db := newTestDB(t)

	// Disjoint: one card per worker.
	const workers = 8
	refs := make([]Ref, workers)
	for i := range refs {
		refs[i] = newCard(t, db, 1e9, true)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx := db.Begin()
				if _, err := db.Invoke(tx, refs[w], "Buy", 1.0); err != nil {
					tx.Abort()
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if c := card(t, db, refs[w]); c.CurrBal != 25 {
			t.Fatalf("worker %d balance = %v, want 25", w, c.CurrBal)
		}
	}

	// Shared object with an active trigger: retry deadlock victims; the
	// final balance must equal the successful increments.
	shared := newCard(t, db, 1e9, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, shared, "DenyCredit"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	var mu sync.Mutex
	committed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for {
					tx := db.Begin()
					_, err := db.Invoke(tx, shared, "Buy", 1.0)
					if err != nil {
						tx.Abort()
						if errors.Is(err, txn.ErrAborted) {
							continue // deadlock victim: retry
						}
						t.Errorf("invoke: %v", err)
						return
					}
					if err := tx.Commit(); err != nil {
						if errors.Is(err, txn.ErrAborted) {
							continue
						}
						t.Errorf("commit: %v", err)
						return
					}
					mu.Lock()
					committed++
					mu.Unlock()
					break
				}
			}
		}()
	}
	wg.Wait()
	if c := card(t, db, shared); int(c.CurrBal) != committed {
		t.Fatalf("balance %v != committed increments %d", c.CurrBal, committed)
	}
	if committed != workers*10 {
		t.Fatalf("committed %d, want %d", committed, workers*10)
	}
}
