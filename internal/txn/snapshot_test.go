package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ode/internal/lock"
	"ode/internal/storage"
	"ode/internal/storage/dali"
)

// unversioned strips the storage.Versioned extension off a manager: the
// embedded interface value carries only storage.Manager's method set, so
// the BeginSnapshot type assertion fails.
type unversioned struct{ storage.Manager }

func TestBeginSnapshotUnversionedStore(t *testing.T) {
	m := NewManager(unversioned{dali.New()}, lock.NewManager())
	if _, err := m.BeginSnapshot(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("BeginSnapshot over unversioned store = %v, want ErrNoVersions", err)
	}
}

// commit writes data to a fresh OID in its own transaction and returns
// the OID.
func commit(t *testing.T, m *Manager, data string) storage.OID {
	t.Helper()
	tx := m.Begin()
	oid, err := tx.NewOID()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(oid, []byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return oid
}

// overwrite replaces oid's image in its own transaction.
func overwrite(t *testing.T, m *Manager, oid storage.OID, data string) {
	t.Helper()
	tx := m.Begin()
	if err := tx.LockExclusive(lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(oid, []byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotZeroLockTraffic(t *testing.T) {
	m := newManager()
	oid := commit(t, m, "img")

	acq, waits := metric(t, m, "lock.acquisitions"), metric(t, m, "lock.waits")
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.IsSnapshot() {
		t.Fatal("IsSnapshot() = false on a snapshot transaction")
	}
	if err := snap.LockShared(lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}); err != nil {
		t.Fatalf("LockShared on snapshot: %v (must be a lock-free no-op)", err)
	}
	if got, err := snap.Read(oid); err != nil || string(got) != "img" {
		t.Fatalf("snapshot Read = %q, %v", got, err)
	}
	if !snap.Exists(oid) {
		t.Fatal("snapshot Exists = false for committed object")
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if metric(t, m, "lock.acquisitions") != acq || metric(t, m, "lock.waits") != waits {
		t.Fatal("snapshot transaction touched the lock manager")
	}
	if snaps, reads := metric(t, m, "txn.snapshots"), metric(t, m, "txn.snapshot_reads"); snaps != 1 || reads != 1 {
		t.Fatalf("txn.snapshots = %d, txn.snapshot_reads = %d, want 1, 1", snaps, reads)
	}
}

func TestSnapshotWritesRejected(t *testing.T) {
	m := newManager()
	oid := commit(t, m, "img")
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Abort()

	if err := snap.Write(oid, []byte("x")); !errors.Is(err, ErrSnapshotWrite) {
		t.Errorf("Write = %v, want ErrSnapshotWrite", err)
	}
	if err := snap.Free(oid); !errors.Is(err, ErrSnapshotWrite) {
		t.Errorf("Free = %v, want ErrSnapshotWrite", err)
	}
	if _, err := snap.NewOID(); !errors.Is(err, ErrSnapshotWrite) {
		t.Errorf("NewOID = %v, want ErrSnapshotWrite", err)
	}
	if err := snap.LockExclusive(lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}); !errors.Is(err, ErrSnapshotWrite) {
		t.Errorf("LockExclusive = %v, want ErrSnapshotWrite", err)
	}
	// The rejections did not doom the transaction — it is still readable.
	if _, err := snap.Read(oid); err != nil {
		t.Errorf("Read after rejected writes: %v", err)
	}
}

func TestSnapshotRepeatableReads(t *testing.T) {
	m := newManager()
	oid := commit(t, m, "old")

	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := snap.Read(oid); string(got) != "old" {
		t.Fatalf("first read = %q", got)
	}

	// A writer commits over the object; the pinned snapshot must not
	// notice, while a fresh snapshot sees the new image.
	overwrite(t, m, oid, "new")
	if got, _ := snap.Read(oid); string(got) != "old" {
		t.Fatalf("read after concurrent commit = %q, want %q (repeatable)", got, "old")
	}
	fresh, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fresh.Read(oid); string(got) != "new" {
		t.Fatalf("fresh snapshot read = %q, want %q", got, "new")
	}
	if err := fresh.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSeesNoHalfCommit(t *testing.T) {
	m := newManager()
	a := commit(t, m, "a=0")
	b := commit(t, m, "b=0")

	// One transaction updates both objects. Any snapshot sees either
	// both old images or both new — never a mix. Deterministic check
	// first: a snapshot pinned before the multi-object commit.
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := tx.Write(a, []byte("a=1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(b, []byte("b=1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ga, _ := snap.Read(a)
	gb, _ := snap.Read(b)
	if string(ga) != "a=0" || string(gb) != "b=0" {
		t.Fatalf("pre-commit snapshot read %q/%q, want a=0/b=0", ga, gb)
	}
	snap.Commit()

	// Concurrent hammer: a writer commits matched pairs (c=i, d=i)
	// while snapshot readers assert the pair always matches.
	c := commit(t, m, "=1")
	d := commit(t, m, "=1")
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; !stop.Load(); i++ {
			tx := m.Begin()
			tx.Write(c, []byte(fmt.Sprintf("=%d", i)))
			tx.Write(d, []byte(fmt.Sprintf("=%d", i)))
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s, err := m.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		gc, _ := s.Read(c)
		gd, _ := s.Read(d)
		if string(gc) != string(gd) {
			t.Fatalf("snapshot saw torn commit: c=%q d=%q", gc, gd)
		}
		s.Commit()
	}
	stop.Store(true)
	wg.Wait()
}

func TestSnapshotGCPinSafety(t *testing.T) {
	m := newManager()
	oid := commit(t, m, "pinned")
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Push far more than gcEvery commits past the pin so auto-GC runs
	// repeatedly while the snapshot is live.
	for i := 0; i < 300; i++ {
		overwrite(t, m, oid, fmt.Sprintf("gen-%d", i))
	}
	v := m.store.(storage.Versioned)
	if st := v.VersionStats(); st.VersionsGcRuns == 0 {
		t.Fatal("auto-GC never ran; pin safety was not exercised")
	}
	if got, err := snap.Read(oid); err != nil || string(got) != "pinned" {
		t.Fatalf("pinned snapshot read = %q, %v; GC trimmed a pinned-reachable version", got, err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	// With the pin gone the floor rises to the durable LSN and GC can
	// reclaim the whole chain.
	v.GCVersions()
	if st := v.VersionStats(); st.VersionsLive != 0 {
		t.Fatalf("VersionsLive = %d after unpinned GC, want 0", st.VersionsLive)
	}
	if got, err := m.Store().Read(oid); err != nil || string(got) != "gen-299" {
		t.Fatalf("base store after GC = %q, %v", got, err)
	}
}

func TestSnapshotAbortUnpins(t *testing.T) {
	m := newManager()
	commit(t, m, "x")
	v := m.store.(storage.Versioned)
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st := v.VersionStats(); st.VersionsPins != 1 {
		t.Fatalf("VersionsPins = %d with one live snapshot, want 1", st.VersionsPins)
	}
	if err := snap.Abort(); err != nil {
		t.Fatal(err)
	}
	if st := v.VersionStats(); st.VersionsPins != 0 {
		t.Fatalf("VersionsPins = %d after abort, want 0", st.VersionsPins)
	}
}
