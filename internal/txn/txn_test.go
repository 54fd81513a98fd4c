package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ode/internal/lock"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/storage/dali"
)

func newManager() *Manager {
	return NewManager(dali.New(), lock.NewManager())
}

// metric reads one of m's txn.* or lock.* counters through a registry,
// as every consumer does.
func metric(t *testing.T, m *Manager, name string) uint64 {
	t.Helper()
	r := obs.NewRegistry()
	m.RegisterMetrics(r)
	m.Locks().RegisterMetrics(r)
	v, ok := r.Value(name)
	if !ok {
		t.Fatalf("no metric %s", name)
	}
	return v
}

func TestCommitMakesWritesVisible(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	oid, err := tx.NewOID()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(oid, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Not visible to the store before commit (no-steal).
	if m.Store().Exists(oid) {
		t.Fatal("uncommitted write leaked to store")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Store().Read(oid)
	if err != nil || string(got) != "hello" {
		t.Fatalf("after commit: %q, %v", got, err)
	}
	if tx.State() != Committed {
		t.Fatalf("state = %v", tx.State())
	}
}

func TestReadYourWrites(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	oid, _ := tx.NewOID()
	tx.Write(oid, []byte("v1"))
	got, err := tx.Read(oid)
	if err != nil || string(got) != "v1" {
		t.Fatalf("read-your-writes: %q, %v", got, err)
	}
	tx.Write(oid, []byte("v2"))
	got, _ = tx.Read(oid)
	if string(got) != "v2" {
		t.Fatalf("second write invisible: %q", got)
	}
	tx.Free(oid)
	if _, err := tx.Read(oid); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("read of freed-in-txn: %v", err)
	}
	if tx.Exists(oid) {
		t.Fatal("freed-in-txn object Exists")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := newManager()
	// Seed committed state.
	seed := m.Begin()
	oid, _ := seed.NewOID()
	seed.Write(oid, []byte("committed"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	tx.Write(oid, []byte("overwritten"))
	oid2, _ := tx.NewOID()
	tx.Write(oid2, []byte("new"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Store().Read(oid)
	if string(got) != "committed" {
		t.Fatalf("abort leaked: %q", got)
	}
	if m.Store().Exists(oid2) {
		t.Fatal("aborted allocation leaked")
	}
	if tx.State() != Aborted {
		t.Fatalf("state = %v", tx.State())
	}
}

func TestFinishedTxnRejectsOps(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Write(1, nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Write after commit: %v", err)
	}
	if _, err := tx.Read(1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Read after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("abort after commit: %v", err)
	}
	if _, err := tx.NewOID(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("NewOID after commit: %v", err)
	}
	if err := tx.Free(1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Free after commit: %v", err)
	}
}

func TestRequestAbortDoomsCommit(t *testing.T) {
	// The tabort path: a trigger action dooms the transaction; the commit
	// attempt becomes an abort.
	m := newManager()
	tx := m.Begin()
	oid, _ := tx.NewOID()
	tx.Write(oid, []byte("doomed"))
	tx.RequestAbort()
	if !tx.Doomed() {
		t.Fatal("not doomed")
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit of doomed txn: %v", err)
	}
	if m.Store().Exists(oid) {
		t.Fatal("doomed txn leaked writes")
	}
	if got := metric(t, m, "txn.aborted"); got != 1 {
		t.Fatalf("txn.aborted = %d, want 1", got)
	}
}

func TestBeforeCommitHooksRun(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	var ran []int
	tx.OnBeforeCommit(func(tx *Txn) error {
		ran = append(ran, 1)
		// Hooks may add writes (end triggers do).
		oid, _ := tx.NewOID()
		return tx.Write(oid, []byte("from hook"))
	})
	tx.OnBeforeCommit(func(*Txn) error { ran = append(ran, 2); return nil })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("hooks ran %v", ran)
	}
}

func TestBeforeCommitHookAddedByHookRuns(t *testing.T) {
	// An end trigger's action can satisfy another end trigger: hooks
	// appended during hook execution must run too.
	m := newManager()
	tx := m.Begin()
	var ran []string
	tx.OnBeforeCommit(func(tx *Txn) error {
		ran = append(ran, "outer")
		tx.OnBeforeCommit(func(*Txn) error {
			ran = append(ran, "inner")
			return nil
		})
		return nil
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 || ran[1] != "inner" {
		t.Fatalf("ran %v", ran)
	}
}

func TestBeforeCommitHookErrorAborts(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	oid, _ := tx.NewOID()
	tx.Write(oid, []byte("x"))
	boom := errors.New("constraint violated")
	tx.OnBeforeCommit(func(*Txn) error { return boom })
	err := tx.Commit()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("commit: %v", err)
	}
	if m.Store().Exists(oid) {
		t.Fatal("hook-aborted txn leaked")
	}
}

func TestBeforeCommitHookCanDoom(t *testing.T) {
	// An end trigger action executing tabort.
	m := newManager()
	tx := m.Begin()
	tx.OnBeforeCommit(func(tx *Txn) error {
		tx.RequestAbort()
		return nil
	})
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit: %v", err)
	}
}

func TestAfterCommitAndAfterAbortHooks(t *testing.T) {
	m := newManager()

	tx := m.Begin()
	var afterC, afterA bool
	tx.OnAfterCommit(func() { afterC = true })
	tx.OnAfterAbort(func() { afterA = true })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !afterC || afterA {
		t.Fatalf("commit path hooks: afterCommit=%v afterAbort=%v", afterC, afterA)
	}

	tx2 := m.Begin()
	afterC, afterA = false, false
	tx2.OnAfterCommit(func() { afterC = true })
	tx2.OnAfterAbort(func() { afterA = true })
	tx2.Abort()
	if afterC || !afterA {
		t.Fatalf("abort path hooks: afterCommit=%v afterAbort=%v", afterC, afterA)
	}
}

func TestAfterAbortRunsOnDoomedCommit(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	var afterA bool
	tx.OnAfterAbort(func() { afterA = true })
	tx.RequestAbort()
	tx.Commit()
	if !afterA {
		t.Fatal("after-abort hooks skipped on doomed commit")
	}
}

func TestAfterCommitCanStartSystemTxn(t *testing.T) {
	// The §5.5 pattern: a !dependent trigger action runs in a system
	// transaction launched after the detecting transaction completes.
	m := newManager()
	tx := m.Begin()
	var sysOID storage.OID
	tx.OnAfterCommit(func() {
		sys := m.BeginSystem()
		oid, _ := sys.NewOID()
		sys.Write(oid, []byte("from system txn"))
		if err := sys.Commit(); err != nil {
			t.Errorf("system txn: %v", err)
		}
		sysOID = oid
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !m.Store().Exists(sysOID) {
		t.Fatal("system txn effects missing")
	}
	if got := metric(t, m, "txn.system"); got != 1 {
		t.Fatalf("txn.system = %d, want 1", got)
	}
}

func TestSystemTxnAfterAbortPersists(t *testing.T) {
	// !dependent firing from an aborted transaction: "although the
	// actions themselves are rolled back, they may cause a system
	// transaction to make permanent changes" (§5.5).
	m := newManager()
	tx := m.Begin()
	lost, _ := tx.NewOID()
	tx.Write(lost, []byte("rolled back"))
	var kept storage.OID
	tx.OnAfterAbort(func() {
		sys := m.BeginSystem()
		oid, _ := sys.NewOID()
		sys.Write(oid, []byte("permanent"))
		if err := sys.Commit(); err != nil {
			t.Errorf("system txn: %v", err)
		}
		kept = oid
	})
	tx.Abort()
	if m.Store().Exists(lost) {
		t.Fatal("aborted write leaked")
	}
	if !m.Store().Exists(kept) {
		t.Fatal("!dependent system txn effects missing")
	}
}

func TestLockingAndDeadlockVictimAborts(t *testing.T) {
	m := newManager()
	a := lock.Resource{Space: lock.SpaceObject, ID: 1}
	b := lock.Resource{Space: lock.SpaceObject, ID: 2}

	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.LockExclusive(a); err != nil {
		t.Fatal(err)
	}
	if err := t2.LockExclusive(b); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t1.LockExclusive(b) }()
	time.Sleep(50 * time.Millisecond) // let t1 block on b first
	// t2 -> a completes the cycle; t2 is the victim and must be
	// auto-aborted.
	err := t2.LockExclusive(a)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("victim error = %v", err)
	}
	if t2.State() != Aborted {
		t.Fatalf("victim state = %v", t2.State())
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor lock: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitReleasesLocks(t *testing.T) {
	m := newManager()
	r := lock.Resource{Space: lock.SpaceObject, ID: 5}
	t1 := m.Begin()
	if err := t1.LockExclusive(r); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if err := t2.LockExclusive(r); err != nil {
		t.Fatalf("lock after commit-release: %v", err)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	m := newManager()
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				oid, err := tx.NewOID()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.LockExclusive(lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Write(oid, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := metric(t, m, "txn.committed"); got != workers*perWorker {
		t.Fatalf("committed %d, want %d", got, workers*perWorker)
	}
	count := 0
	m.Store().Iterate(func(storage.OID, []byte) error { count++; return nil })
	if count != workers*perWorker {
		t.Fatalf("store has %d objects, want %d", count, workers*perWorker)
	}
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Fatal("state strings")
	}
	if State(9).String() != "State(9)" {
		t.Fatal("unknown state string")
	}
}

func TestWriteCountAndOrderPreserved(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	a, _ := tx.NewOID()
	b, _ := tx.NewOID()
	tx.Write(a, []byte("1"))
	tx.Write(b, []byte("2"))
	tx.Write(a, []byte("3")) // rewrite does not duplicate
	if tx.WriteCount() != 2 {
		t.Fatalf("WriteCount = %d", tx.WriteCount())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Store().Read(a)
	if string(got) != "3" {
		t.Fatalf("last write lost: %q", got)
	}
}

func TestBeforeAbortHooks(t *testing.T) {
	m := newManager()
	// Explicit abort runs before-abort hooks while the txn is active.
	tx := m.Begin()
	var sawActive bool
	tx.OnBeforeAbort(func(tx *Txn) { sawActive = tx.State() == Active })
	tx.Abort()
	if !sawActive {
		t.Fatal("before-abort hook did not run in the active transaction")
	}

	// Doomed commit (tabort) also counts as an explicit abort request.
	tx2 := m.Begin()
	var ran bool
	tx2.OnBeforeAbort(func(*Txn) { ran = true })
	tx2.RequestAbort()
	tx2.Commit()
	if !ran {
		t.Fatal("before-abort hook skipped on doomed commit")
	}

	// Internal rollback (deadlock victim) must NOT run them.
	a := lock.Resource{Space: lock.SpaceObject, ID: 100}
	b := lock.Resource{Space: lock.SpaceObject, ID: 101}
	t1, t2 := m.Begin(), m.Begin()
	var victimHook bool
	t2.OnBeforeAbort(func(*Txn) { victimHook = true })
	t1.LockExclusive(a)
	t2.LockExclusive(b)
	done := make(chan error, 1)
	go func() { done <- t1.LockExclusive(b) }()
	time.Sleep(50 * time.Millisecond)
	if err := t2.LockExclusive(a); !errors.Is(err, ErrAborted) {
		t.Fatalf("victim error = %v", err)
	}
	<-done
	if victimHook {
		t.Fatal("before-abort hook ran for a deadlock victim")
	}
}

func TestBeforeAbortHookWritesDiscarded(t *testing.T) {
	m := newManager()
	tx := m.Begin()
	var oid storage.OID
	tx.OnBeforeAbort(func(tx *Txn) {
		oid, _ = tx.NewOID()
		tx.Write(oid, []byte("posted during abort"))
	})
	tx.Abort()
	if m.Store().Exists(oid) {
		t.Fatal("before-abort hook write survived rollback")
	}
}
