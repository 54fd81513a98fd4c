package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/storage"
	"ode/internal/storage/dali"
)

// snapCardClass is the E8 read-amplification fixture: Query is
// read-only, but the QueryPattern trigger's FSM advance turns every
// lock-mode Query posting into a descriptor write. fired counts action
// executions.
func snapCardClass(fired *atomic.Uint64) *Class {
	return MustClass("SnapCard",
		Factory(func() any { return new(CredCard) }),
		ReadOnlyMethod("Query", func(ctx *Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).CurrBal, nil
		}),
		Method("Buy", func(ctx *Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		Events("after Query", "after Buy"),
		Trigger("QueryPattern", "after Query, after Query",
			func(ctx *Ctx, self any, act *Activation) error {
				fired.Add(1)
				return nil
			},
			Perpetual()),
	)
}

func newSnapCard(t *testing.T, db *Database) Ref {
	t.Helper()
	tx := db.Begin()
	ref, err := db.Create(tx, "SnapCard", &CredCard{CredLim: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "QueryPattern"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// triggerState returns the FSM state of the single activation on ref.
func triggerState(t *testing.T, db *Database, ref Ref) int32 {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	infos, err := db.ActiveTriggers(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("ActiveTriggers = %d entries, want 1", len(infos))
	}
	return infos[0].StateNum
}

// TestSnapshotInvokeSuppressesTriggerProcessing: a posting inside a
// snapshot transaction reaches local rules only — the persistent FSM
// cannot advance (a snapshot cannot write trigger descriptors), so the
// two-Query pattern never completes no matter how many snapshot Queries
// run, and the engine counts the suppression.
func TestSnapshotInvokeSuppressesTriggerProcessing(t *testing.T) {
	var fired atomic.Uint64
	db := newTestDB(t, snapCardClass(&fired))
	ref := newSnapCard(t, db)
	posts := metric(t, db, "core.snapshot_posts")
	before := triggerState(t, db, ref)

	for i := 0; i < 4; i++ {
		snap, err := db.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Invoke(snap, ref, "Query"); err != nil {
			t.Fatal(err)
		}
		if err := snap.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	if got := triggerState(t, db, ref); got != before {
		t.Fatalf("trigger FSM advanced %d -> %d inside snapshot transactions", before, got)
	}
	if fired.Load() != 0 {
		t.Fatalf("trigger fired %d times from snapshot postings", fired.Load())
	}
	if got := metric(t, db, "core.snapshot_posts") - posts; got != 4 {
		t.Fatalf("core.snapshot_posts rose by %d, want 4", got)
	}

	// The same two postings in regular transactions complete the
	// pattern — proving the fixture does fire when not suppressed.
	for i := 0; i < 2; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, ref, "Query"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if fired.Load() != 1 {
		t.Fatalf("trigger fired %d times after two regular Queries, want 1", fired.Load())
	}
}

// TestSnapshotInvokeMutatorRejected: invoking a mutating method in a
// snapshot transaction fails with ErrSnapshotWrite (the exclusive-lock
// request is refused before any write happens).
func TestSnapshotInvokeMutatorRejected(t *testing.T) {
	var fired atomic.Uint64
	db := newTestDB(t, snapCardClass(&fired))
	ref := newSnapCard(t, db)

	snap, err := db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Abort()
	if _, err := db.Invoke(snap, ref, "Buy", 10.0); !errors.Is(err, ErrSnapshotWrite) {
		t.Fatalf("Invoke(mutator) on snapshot = %v, want ErrSnapshotWrite", err)
	}
	// The object is untouched.
	tx := db.Begin()
	defer tx.Abort()
	card, err := db.Get(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if card.(*CredCard).CurrBal != 0 {
		t.Fatalf("CurrBal = %v after rejected snapshot Buy", card.(*CredCard).CurrBal)
	}
}

// TestQueryRoutesToSnapshot: the one-shot Query helper serves read-only
// methods from a snapshot transaction and falls back to a regular
// transaction for mutators.
func TestQueryRoutesToSnapshot(t *testing.T) {
	var fired atomic.Uint64
	db := newTestDB(t, snapCardClass(&fired))
	ref := newSnapCard(t, db)

	base := metric(t, db, "txn.snapshots")
	ret, err := db.Query(ref, "Query")
	if err != nil {
		t.Fatal(err)
	}
	if ret.(float64) != 0 {
		t.Fatalf("Query returned %v, want 0", ret)
	}
	if got := metric(t, db, "txn.snapshots"); got != base+1 {
		t.Fatalf("txn.snapshots %d -> %d; read-only Query did not use a snapshot", base, got)
	}

	// A mutator through Query: the snapshot attempt fails with
	// ErrSnapshotWrite and the helper reruns it in a regular txn.
	if _, err := db.Query(ref, "Buy", 42.0); err != nil {
		t.Fatal(err)
	}
	if ret, err := db.Query(ref, "Query"); err != nil || ret.(float64) != 42 {
		t.Fatalf("balance after Query(Buy) = %v, %v; want 42", ret, err)
	}
}

// TestQueryUnversionedFallback: over a store without versions the Query
// helper silently degrades to a regular transaction.
func TestQueryUnversionedFallback(t *testing.T) {
	db, err := NewDatabase(unversionedStore{dali.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var fired atomic.Uint64
	if err := db.Register(snapCardClass(&fired)); err != nil {
		t.Fatal(err)
	}
	ref := newSnapCard(t, db)

	if _, err := db.BeginSnapshot(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("BeginSnapshot = %v, want ErrNoVersions", err)
	}
	ret, err := db.Query(ref, "Query")
	if err != nil || ret.(float64) != 0 {
		t.Fatalf("Query over unversioned store = %v, %v", ret, err)
	}
	if got := metric(t, db, "txn.snapshots"); got != 0 {
		t.Fatalf("txn.snapshots = %d over unversioned store, want 0", got)
	}
}

// unversionedStore hides the storage.Versioned extension.
type unversionedStore struct{ storage.Manager }

// TestSnapshotReadersUnderWriteLoad is the E8 workload with the MVCC
// remedy, sized to run under -race: snapshot readers against 2PL writers
// with the trigger active. Snapshot readers take no locks, so none of
// them may ever abort (a reader abort would be a deadlock victimization
// or lock timeout — impossible by construction).
func TestSnapshotReadersUnderWriteLoad(t *testing.T) {
	var fired atomic.Uint64
	db := newTestDB(t, snapCardClass(&fired))
	ref := newSnapCard(t, db)

	const readers, writers = 8, 4
	var stop atomic.Bool
	var readerAborts, reads atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap, err := db.BeginSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Invoke(snap, ref, "Query"); err != nil {
					snap.Abort()
					readerAborts.Add(1)
					continue
				}
				if err := snap.Commit(); err != nil {
					readerAborts.Add(1)
					continue
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tx := db.Begin()
				if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
					tx.Abort()
					continue
				}
				_ = tx.Commit() // writer deadlocks just retry
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if got := readerAborts.Load(); got != 0 {
		t.Fatalf("%d snapshot reader aborts; lock-free readers cannot be victimized", got)
	}
	if reads.Load() == 0 {
		t.Fatal("no snapshot reads completed")
	}
}
