package obj

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"ode/internal/lock"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
	"ode/internal/txn"
)

func newMgr(t *testing.T) *Manager {
	t.Helper()
	m, err := New(txn.NewManager(dali.New(), lock.NewManager()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEnvelopeRoundTrip(t *testing.T) {
	h := Header{Flags: FlagTxnEvents | FlagHasTriggers, ClassID: 42}
	img := EncodeEnvelope(h, []byte("payload"))
	h2, payload, err := DecodeEnvelope(img)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Flags != h.Flags || h2.ClassID != 42 || string(payload) != "payload" {
		t.Fatalf("decoded %+v %q", h2, payload)
	}
}

func TestEnvelopeErrors(t *testing.T) {
	if _, _, err := DecodeEnvelope([]byte{1, 2}); err == nil {
		t.Fatal("short envelope accepted")
	}
	bad := EncodeEnvelope(Header{}, nil)
	bad[0] = 99
	if _, _, err := DecodeEnvelope(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBootstrapReservesOIDs(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	oid, err := tx.NewOID()
	if err != nil {
		t.Fatal(err)
	}
	if oid < FirstUserOID {
		t.Fatalf("first user OID = %d, want >= %d", oid, FirstUserOID)
	}
}

func TestBootstrapIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "boot.eos")
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm := txn.NewManager(store, lock.NewManager())
	if _, err := New(tm); err != nil {
		t.Fatal(err)
	}
	// Register a class so there is state to preserve.
	m1, _ := New(tm)
	tx := tm.Begin()
	id1, err := m1.EnsureClass(tx, "CredCard")
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	store.Close()

	store2, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	tm2 := txn.NewManager(store2, lock.NewManager())
	m2, err := New(tm2)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := tm2.Begin()
	defer tx2.Abort()
	id2, ok, err := m2.LookupClass(tx2, "CredCard")
	if err != nil || !ok {
		t.Fatalf("class lost across reopen: %v %v", ok, err)
	}
	if id2 != id1 {
		t.Fatalf("class ID changed: %d vs %d", id2, id1)
	}
}

func TestEnsureClassStable(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	a, err := m.EnsureClass(tx, "A")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.EnsureClass(tx, "B")
	a2, _ := m.EnsureClass(tx, "A")
	if a == b {
		t.Fatal("distinct classes same ID")
	}
	if a != a2 {
		t.Fatal("EnsureClass not idempotent")
	}
	tx.Commit()

	tx2 := m.Txns().Begin()
	defer tx2.Abort()
	names, err := m.ClassNames(tx2)
	if err != nil {
		t.Fatal(err)
	}
	if names[a] != "A" || names[b] != "B" {
		t.Fatalf("ClassNames = %v", names)
	}
}

func TestCreateLoadUpdateDelete(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	cid, _ := m.EnsureClass(tx, "C")
	oid, err := m.Create(tx, cid, FlagTxnEvents, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := m.Load(tx, oid, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.ClassID != cid || h.Flags != FlagTxnEvents || string(payload) != "v1" {
		t.Fatalf("load: %+v %q", h, payload)
	}
	if err := m.Update(tx, oid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	h, payload, _ = m.Load(tx, oid, false)
	if string(payload) != "v2" || h.Flags != FlagTxnEvents {
		t.Fatalf("after update: %+v %q (flags must be preserved)", h, payload)
	}
	if err := m.Delete(tx, oid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Load(tx, oid, false); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("load after delete: %v", err)
	}
	tx.Commit()
}

func TestSetFlags(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	cid, _ := m.EnsureClass(tx, "C")
	oid, _ := m.Create(tx, cid, 0, []byte("x"))
	if err := m.SetFlags(tx, oid, FlagHasTriggers, 0); err != nil {
		t.Fatal(err)
	}
	h, _, _ := m.Load(tx, oid, false)
	if h.Flags&FlagHasTriggers == 0 {
		t.Fatal("flag not set")
	}
	if err := m.SetFlags(tx, oid, 0, FlagHasTriggers); err != nil {
		t.Fatal(err)
	}
	h, _, _ = m.Load(tx, oid, false)
	if h.Flags&FlagHasTriggers != 0 {
		t.Fatal("flag not cleared")
	}
}

func TestTriggerIndex(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	cid, _ := m.EnsureClass(tx, "C")
	oid, _ := m.Create(tx, cid, 0, []byte("x"))

	ts1, err := m.CreateTriggerState(tx, []byte("trig1"))
	if err != nil {
		t.Fatal(err)
	}
	ts2, _ := m.CreateTriggerState(tx, []byte("trig2"))
	if err := m.AddTrigger(tx, oid, ts1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTrigger(tx, oid, ts2); err != nil {
		t.Fatal(err)
	}
	// Fast-path bit set.
	h, _, _ := m.Load(tx, oid, false)
	if h.Flags&FlagHasTriggers == 0 {
		t.Fatal("FlagHasTriggers not set by AddTrigger")
	}
	got, err := m.TriggersOn(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != ts1 || got[1] != ts2 {
		t.Fatalf("TriggersOn = %v", got)
	}
	// Remove one: bit stays; remove both: bit clears.
	if err := m.RemoveTrigger(tx, oid, ts1); err != nil {
		t.Fatal(err)
	}
	h, _, _ = m.Load(tx, oid, false)
	if h.Flags&FlagHasTriggers == 0 {
		t.Fatal("flag cleared while a trigger remains")
	}
	if err := m.RemoveTrigger(tx, oid, ts2); err != nil {
		t.Fatal(err)
	}
	h, _, _ = m.Load(tx, oid, false)
	if h.Flags&FlagHasTriggers != 0 {
		t.Fatal("flag not cleared after last trigger removed")
	}
	got, _ = m.TriggersOn(tx, oid)
	if len(got) != 0 {
		t.Fatalf("TriggersOn after removal = %v", got)
	}
	tx.Commit()
}

func TestDeleteDropsIndexEntry(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	cid, _ := m.EnsureClass(tx, "C")
	oid, _ := m.Create(tx, cid, 0, []byte("x"))
	ts, _ := m.CreateTriggerState(tx, []byte("t"))
	m.AddTrigger(tx, oid, ts)
	if err := m.Delete(tx, oid); err != nil {
		t.Fatal(err)
	}
	got, err := m.TriggersOn(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("index entry survived object deletion: %v", got)
	}
	tx.Commit()
}

func TestTriggerStateLifecycle(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	oid, err := m.CreateTriggerState(tx, []byte("state0"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadTriggerState(tx, oid, false)
	if err != nil || !bytes.Equal(got, []byte("state0")) {
		t.Fatalf("load: %q %v", got, err)
	}
	if err := m.UpdateTriggerState(tx, oid, []byte("state1")); err != nil {
		t.Fatal(err)
	}
	got, _ = m.LoadTriggerState(tx, oid, true)
	if !bytes.Equal(got, []byte("state1")) {
		t.Fatalf("after update: %q", got)
	}
	if err := m.DeleteTriggerState(tx, oid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadTriggerState(tx, oid, false); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("load after delete: %v", err)
	}
	tx.Commit()
}

func TestTriggerStateRollback(t *testing.T) {
	// §5.5: trigger state rolls back with the transaction.
	m := newMgr(t)
	tx := m.Txns().Begin()
	oid, _ := m.CreateTriggerState(tx, []byte("initial"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := m.Txns().Begin()
	if err := m.UpdateTriggerState(tx2, oid, []byte("advanced")); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()

	tx3 := m.Txns().Begin()
	defer tx3.Abort()
	got, err := m.LoadTriggerState(tx3, oid, false)
	if err != nil || !bytes.Equal(got, []byte("initial")) {
		t.Fatalf("state after abort = %q, want initial", got)
	}
}

func TestClusters(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	cid, _ := m.EnsureClass(tx, "C")
	var oids []storage.OID
	for i := 0; i < 5; i++ {
		oid, _ := m.Create(tx, cid, 0, []byte{byte(i)})
		oids = append(oids, oid)
		if err := m.ClusterAdd(tx, "cards", oid); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate add is a no-op.
	if err := m.ClusterAdd(tx, "cards", oids[0]); err != nil {
		t.Fatal(err)
	}
	var scanned []storage.OID
	if err := m.ClusterScan(tx, "cards", func(oid storage.OID) error {
		scanned = append(scanned, oid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 5 {
		t.Fatalf("scanned %v", scanned)
	}
	for i := range oids {
		if scanned[i] != oids[i] {
			t.Fatalf("order broken: %v vs %v", scanned, oids)
		}
	}
	if err := m.ClusterRemove(tx, "cards", oids[2]); err != nil {
		t.Fatal(err)
	}
	n, _ := clusterLen(m, tx, "cards")
	if n != 4 {
		t.Fatalf("len after remove = %d", n)
	}
	// Unknown cluster scans nothing.
	if err := m.ClusterScan(tx, "nope", func(storage.OID) error {
		t.Fatal("callback on unknown cluster")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}

// clusterLen counts the members of the named cluster with ClusterScan.
func clusterLen(m *Manager, tx *txn.Txn, name string) (int, error) {
	n := 0
	err := m.ClusterScan(tx, name, func(storage.OID) error { n++; return nil })
	return n, err
}

func TestClustersSeparateNames(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	cid, _ := m.EnsureClass(tx, "C")
	a, _ := m.Create(tx, cid, 0, nil)
	b, _ := m.Create(tx, cid, 0, nil)
	m.ClusterAdd(tx, "one", a)
	m.ClusterAdd(tx, "two", b)
	n1, _ := clusterLen(m, tx, "one")
	n2, _ := clusterLen(m, tx, "two")
	if n1 != 1 || n2 != 1 {
		t.Fatalf("cluster cross-talk: %d %d", n1, n2)
	}
}

func TestIndexIsolationBetweenObjects(t *testing.T) {
	// Two objects in the same bucket must not see each other's triggers.
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	cid, _ := m.EnsureClass(tx, "C")
	// Create NumBuckets+1 objects to guarantee a bucket collision.
	var oids []storage.OID
	for i := 0; i <= NumBuckets; i++ {
		oid, _ := m.Create(tx, cid, 0, nil)
		oids = append(oids, oid)
	}
	ts, _ := m.CreateTriggerState(tx, []byte("t"))
	m.AddTrigger(tx, oids[0], ts)
	for _, other := range oids[1:] {
		got, _ := m.TriggersOn(tx, other)
		if len(got) != 0 {
			t.Fatalf("object %d sees foreign trigger %v", other, got)
		}
	}
}

func TestLoadForWriteUpgrades(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	cid, _ := m.EnsureClass(tx, "C")
	oid, _ := m.Create(tx, cid, 0, []byte("x"))
	if _, _, err := m.Load(tx, oid, false); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Txns().Locks().HeldMode(lock.TxnID(tx.ID()), lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}); !ok || mode != lock.Exclusive {
		// Create already took X; shared load keeps it.
		t.Fatalf("mode after create+load = %v, %v", mode, ok)
	}
}

func TestUpdateMissingObject(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	if err := m.Update(tx, 99999, []byte("x")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := m.SetFlags(tx, 99999, 1, 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("setflags missing: %v", err)
	}
	if err := m.Delete(tx, 99999); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestRemoveTriggerNotPresent(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	cid, _ := m.EnsureClass(tx, "C")
	oid, _ := m.Create(tx, cid, 0, nil)
	ts, _ := m.CreateTriggerState(tx, []byte("t"))
	m.AddTrigger(tx, oid, ts)
	// Removing an id that is not mapped leaves the real one alone.
	if err := m.RemoveTrigger(tx, oid, ts+12345); err != nil {
		t.Fatal(err)
	}
	got, _ := m.TriggersOn(tx, oid)
	if len(got) != 1 || got[0] != ts {
		t.Fatalf("TriggersOn = %v", got)
	}
}

func TestClusterRemoveUnknownCluster(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	if err := m.ClusterRemove(tx, "ghost", 5); err != nil {
		t.Fatalf("remove from unknown cluster: %v", err)
	}
	if n, err := clusterLen(m, tx, "ghost"); err != nil || n != 0 {
		t.Fatalf("ghost cluster len = %d, %v", n, err)
	}
}

func TestClusterScanCallbackError(t *testing.T) {
	m := newMgr(t)
	tx := m.Txns().Begin()
	defer tx.Abort()
	cid, _ := m.EnsureClass(tx, "C")
	for i := 0; i < 3; i++ {
		oid, _ := m.Create(tx, cid, 0, nil)
		m.ClusterAdd(tx, "cc", oid)
	}
	stop := errors.New("stop")
	n := 0
	err := m.ClusterScan(tx, "cc", func(storage.OID) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 2 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}
