package eos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ode/internal/antientropy"
	"ode/internal/storage"
	"ode/internal/wal"
)

// TestLSNsMonotonicAcrossCheckpoint is the replication prerequisite: a
// checkpoint must not reset log positions, and the base must survive a
// reopen via the header.
func TestLSNsMonotonicAcrossCheckpoint(t *testing.T) {
	m, path := openTemp(t, Options{})
	commitWrite(t, m, 1, 10, []byte("before"))
	end := m.Log().End()
	if end == 0 {
		t.Fatal("log end 0 after a commit")
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := m.Log().Base(); got != end {
		t.Fatalf("base after checkpoint = %d, want %d", got, end)
	}
	commitWrite(t, m, 2, 11, []byte("after"))
	end2 := m.Log().End()
	if end2 <= end {
		t.Fatalf("post-checkpoint commit did not advance the LSN space: %d ≤ %d", end2, end)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// Close checkpoints, so the reopened base must be the pre-close end.
	if got := m2.Log().Base(); got != end2 {
		t.Fatalf("base after reopen = %d, want %d", got, end2)
	}
	if data, err := m2.Read(11); err != nil || string(data) != "after" {
		t.Fatalf("read after reopen: %q, %v", data, err)
	}
}

func TestReadOnlyGate(t *testing.T) {
	m, _ := openTemp(t, Options{})
	commitWrite(t, m, 1, 10, []byte("seed"))
	m.SetReadOnly(true)
	if !m.ReadOnly() {
		t.Fatal("ReadOnly() false after SetReadOnly(true)")
	}
	err := m.ApplyCommit(2, []storage.Op{{Kind: storage.OpWrite, OID: 11, Data: []byte("nope")}})
	if !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("write on read-only store = %v, want ErrReadOnly", err)
	}
	// Read-only transactions (empty batches) still commit.
	if err := m.ApplyCommit(3, nil); err != nil {
		t.Fatalf("empty commit on read-only store: %v", err)
	}
	// The replication applier still writes.
	if err := m.ApplyReplicated(4, []storage.Op{{Kind: storage.OpWrite, OID: 12, Data: []byte("replicated")}}); err != nil {
		t.Fatalf("ApplyReplicated on read-only store: %v", err)
	}
	if data, err := m.Read(12); err != nil || string(data) != "replicated" {
		t.Fatalf("replicated object: %q, %v", data, err)
	}
	m.SetReadOnly(false)
	commitWrite(t, m, 5, 11, []byte("writable again"))
}

func TestExportImportRoundTrip(t *testing.T) {
	src, _ := openTemp(t, Options{})
	big := bytes.Repeat([]byte("x"), 3*PageSize) // force an overflow chain
	want := map[storage.OID][]byte{}
	for i := 0; i < 20; i++ {
		oid := storage.OID(100 + i)
		data := []byte(fmt.Sprintf("object-%d", i))
		if i == 7 {
			data = big
		}
		commitWrite(t, src, uint64(i+1), oid, data)
		want[oid] = data
	}
	// A freed object must not appear in the snapshot.
	if err := src.ApplyCommit(99, []storage.Op{{Kind: storage.OpFree, OID: 105}}); err != nil {
		t.Fatal(err)
	}
	delete(want, 105)
	srcNext, err := src.ReserveOID()
	if err != nil {
		t.Fatal(err)
	}

	lsn, nextOID, objs, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != src.Log().End() {
		t.Fatalf("snapshot LSN %d, log end %d", lsn, src.Log().End())
	}
	if len(objs) != len(want) {
		t.Fatalf("exported %d objects, want %d", len(objs), len(want))
	}

	dst, _ := openTemp(t, Options{})
	commitWrite(t, dst, 1, 5000, []byte("pre-existing junk the import must wipe"))
	if err := dst.ImportSnapshot(nextOID, objs); err != nil {
		t.Fatal(err)
	}
	if dst.Exists(5000) {
		t.Fatal("import left pre-existing object behind")
	}
	for oid, data := range want {
		got, err := dst.Read(oid)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("oid %d after import: %d bytes, %v", oid, len(got), err)
		}
	}
	dstNext, err := dst.ReserveOID()
	if err != nil {
		t.Fatal(err)
	}
	if dstNext < srcNext {
		t.Fatalf("imported allocator hands out %d, primary was at %d: replica could reuse OIDs", dstNext, srcNext)
	}
}

// TestExportDigests: the digest inventory matches a digest of every
// live object under the same fence as Export, and EnsureNextOID only
// ever raises the allocator.
func TestExportDigests(t *testing.T) {
	m, _ := openTemp(t, Options{})
	want := map[uint64]uint64{}
	for i := 0; i < 10; i++ {
		oid := storage.OID(200 + i)
		data := []byte(fmt.Sprintf("digestable-%d", i))
		commitWrite(t, m, uint64(i+1), oid, data)
		want[uint64(oid)] = antientropy.Digest(data)
	}
	if err := m.ApplyCommit(50, []storage.Op{{Kind: storage.OpFree, OID: 203}}); err != nil {
		t.Fatal(err)
	}
	delete(want, 203)

	lsn, nextOID, items, err := m.ExportDigests()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != m.Log().End() {
		t.Fatalf("digest LSN %d, log end %d", lsn, m.Log().End())
	}
	if m.ObjectCount() != len(want) || len(items) != len(want) {
		t.Fatalf("inventory has %d items, ObjectCount %d, want %d", len(items), m.ObjectCount(), len(want))
	}
	for _, it := range items {
		if want[it.Key] != it.Digest {
			t.Fatalf("oid %d digest %#x, want %#x", it.Key, it.Digest, want[it.Key])
		}
	}

	m.EnsureNextOID(nextOID - 1) // lowering is a no-op
	m.EnsureNextOID(nextOID + 100)
	got, err := m.ReserveOID()
	if err != nil {
		t.Fatal(err)
	}
	if got < nextOID+100 {
		t.Fatalf("allocator at %d after EnsureNextOID(%d)", got, nextOID+100)
	}
}

// TestWALPinBoundsCheckpoint: with a subscriber pinning the log, a
// checkpoint keeps the suffix the subscriber still needs, and the pinned
// records stay readable.
func TestWALPinBoundsCheckpoint(t *testing.T) {
	m, _ := openTemp(t, Options{})
	commitWrite(t, m, 1, 10, []byte("one"))
	pin := m.Log().End()
	commitWrite(t, m, 2, 11, []byte("two"))
	commitWrite(t, m, 3, 12, []byte("three"))

	pinned := pin
	m.SetWALPin(func() (wal.LSN, bool) { return pinned, true })
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := m.Log().Base(); got != pin {
		t.Fatalf("base after pinned checkpoint = %d, want pin %d", got, pin)
	}
	recs, next, _, err := m.Log().ReadDurable(pin, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || next != m.Log().End() {
		t.Fatalf("pinned suffix unreadable: %d recs, next %d, end %d", len(recs), next, m.Log().End())
	}
	// Releasing the pin lets the next checkpoint drop everything.
	m.SetWALPin(nil)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, end := m.Log().Base(), m.Log().End(); got != end {
		t.Fatalf("base after unpinned checkpoint = %d, want end %d", got, end)
	}
	if ckpts, truncated := metric(t, m, "storage.checkpoints"), metric(t, m, "storage.wal_truncated_bytes"); ckpts < 2 || truncated == 0 {
		t.Fatalf("checkpoint counters not recorded: checkpoints=%d truncated=%d", ckpts, truncated)
	}
}
