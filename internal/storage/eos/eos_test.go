package eos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/obs"
	"ode/internal/storage"
)

// metric reads one of m's storage.* counters through a registry, as
// every consumer does.
func metric(t *testing.T, m *Manager, name string) uint64 {
	t.Helper()
	r := obs.NewRegistry()
	m.RegisterMetrics(r)
	v, ok := r.Value(name)
	if !ok {
		t.Fatalf("eos registers no %s", name)
	}
	return v
}

func openTemp(t *testing.T, opts Options) (*Manager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.eos")
	m, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, path
}

// commitWrite is a one-op committed write helper.
func commitWrite(t *testing.T, m *Manager, txn uint64, oid storage.OID, data []byte) {
	t.Helper()
	if err := m.ApplyCommit(txn, []storage.Op{{Kind: storage.OpWrite, OID: oid, Data: data}}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, _ := openTemp(t, Options{})
	oid, err := m.ReserveOID()
	if err != nil {
		t.Fatal(err)
	}
	commitWrite(t, m, 1, oid, []byte("persistent object"))
	got, err := m.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("persistent object")) {
		t.Fatalf("read back %q", got)
	}
	if !m.Exists(oid) {
		t.Fatal("Exists false for live object")
	}
}

func TestReadNotFound(t *testing.T) {
	m, _ := openTemp(t, Options{})
	if _, err := m.Read(999); err == nil {
		t.Fatal("read of unknown OID succeeded")
	}
	if m.Exists(999) {
		t.Fatal("Exists true for unknown OID")
	}
}

func TestUpdateAndFree(t *testing.T) {
	m, _ := openTemp(t, Options{})
	oid, _ := m.ReserveOID()
	commitWrite(t, m, 1, oid, []byte("v1"))
	commitWrite(t, m, 2, oid, []byte("version two, longer"))
	got, err := m.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version two, longer" {
		t.Fatalf("after update: %q", got)
	}
	if err := m.ApplyCommit(3, []storage.Op{{Kind: storage.OpFree, OID: oid}}); err != nil {
		t.Fatal(err)
	}
	if m.Exists(oid) {
		t.Fatal("freed object still exists")
	}
}

func TestPersistsAcrossCleanClose(t *testing.T) {
	m, path := openTemp(t, Options{})
	var oids []storage.OID
	for i := 0; i < 100; i++ {
		oid, _ := m.ReserveOID()
		oids = append(oids, oid)
		commitWrite(t, m, uint64(i), oid, []byte(fmt.Sprintf("object %d", i)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i, oid := range oids {
		got, err := m2.Read(oid)
		if err != nil {
			t.Fatalf("oid %d: %v", oid, err)
		}
		if string(got) != fmt.Sprintf("object %d", i) {
			t.Fatalf("oid %d read %q", oid, got)
		}
	}
	// OIDs keep advancing after reopen.
	next, _ := m2.ReserveOID()
	for _, old := range oids {
		if next == old {
			t.Fatalf("OID %d reused after reopen", next)
		}
	}
}

// TestCrashRecovery simulates a crash by reopening without Close: the
// store file may be stale, but the WAL has the committed batches.
func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.eos")
	m, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oid1, _ := m.ReserveOID()
	oid2, _ := m.ReserveOID()
	commitWrite(t, m, 1, oid1, []byte("survives"))
	commitWrite(t, m, 2, oid2, []byte("also survives"))
	if err := m.ApplyCommit(3, []storage.Op{{Kind: storage.OpFree, OID: oid2}}); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon m without Close (dirty pages unflushed, WAL intact).
	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Read(oid1)
	if err != nil {
		t.Fatalf("oid1 lost in crash: %v", err)
	}
	if string(got) != "survives" {
		t.Fatalf("oid1 = %q", got)
	}
	if m2.Exists(oid2) {
		t.Fatal("freed oid2 resurrected by recovery")
	}
}

func TestCrashAfterCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.eos")
	m, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oid, _ := m.ReserveOID()
	commitWrite(t, m, 1, oid, []byte("before ckpt"))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitWrite(t, m, 2, oid, []byte("after ckpt"))
	// Crash without close.
	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after ckpt" {
		t.Fatalf("post-checkpoint update lost: %q", got)
	}
}

func TestLargeObjectsOverflow(t *testing.T) {
	m, path := openTemp(t, Options{})
	big := make([]byte, 3*PageSize+123) // spans 4 overflow pages
	for i := range big {
		big[i] = byte(i * 7)
	}
	oid, _ := m.ReserveOID()
	commitWrite(t, m, 1, oid, big)
	got, err := m.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("large object corrupted: %d bytes vs %d", len(got), len(big))
	}
	// Survives reopen (directory rebuild must find overflow heads).
	m.Close()
	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err = m2.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large object corrupted after reopen")
	}
	// Shrink back to inline: overflow pages must be reclaimed.
	commitWrite(t, m2, 2, oid, []byte("small again"))
	got, err = m2.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "small again" {
		t.Fatalf("after shrink: %q", got)
	}
}

func TestLargeToLargerRewrite(t *testing.T) {
	m, _ := openTemp(t, Options{})
	oid, _ := m.ReserveOID()
	a := bytes.Repeat([]byte{1}, PageSize*2)
	b := bytes.Repeat([]byte{2}, PageSize*5)
	commitWrite(t, m, 1, oid, a)
	commitWrite(t, m, 2, oid, b)
	got, err := m.Read(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("grown overflow object corrupted")
	}
}

func TestFreedPagesReused(t *testing.T) {
	m, _ := openTemp(t, Options{})
	// Fill then free a batch of large objects; page count must not keep
	// growing when new ones are written.
	var oids []storage.OID
	big := make([]byte, PageSize*2)
	for i := 0; i < 5; i++ {
		oid, _ := m.ReserveOID()
		oids = append(oids, oid)
		commitWrite(t, m, uint64(i), oid, big)
	}
	grown := m.pageCount
	for i, oid := range oids {
		if err := m.ApplyCommit(uint64(10+i), []storage.Op{{Kind: storage.OpFree, OID: oid}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		oid, _ := m.ReserveOID()
		commitWrite(t, m, uint64(20+i), oid, big)
	}
	if m.pageCount > grown {
		t.Fatalf("page count grew from %d to %d despite freed pages", grown, m.pageCount)
	}
}

func TestSmallCacheEvictsCorrectly(t *testing.T) {
	// A 2-page cache forces constant eviction; data must survive.
	m, _ := openTemp(t, Options{CacheSize: 2, NoAutoCheckpoint: true})
	const n = 200
	oids := make([]storage.OID, n)
	for i := 0; i < n; i++ {
		oid, _ := m.ReserveOID()
		oids[i] = oid
		commitWrite(t, m, uint64(i), oid, []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte("x"), 200))))
	}
	for i, oid := range oids {
		got, err := m.Read(oid)
		if err != nil {
			t.Fatalf("oid %d: %v", oid, err)
		}
		want := fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte("x"), 200))
		if string(got) != want {
			t.Fatalf("oid %d corrupted under eviction pressure", oid)
		}
	}
	if reads, writes := metric(t, m, "storage.page_reads"), metric(t, m, "storage.page_writes"); reads == 0 || writes == 0 {
		t.Fatalf("tiny cache should hit disk: page reads %d, page writes %d", reads, writes)
	}
}

func TestIterate(t *testing.T) {
	m, _ := openTemp(t, Options{})
	want := map[storage.OID]string{}
	for i := 0; i < 20; i++ {
		oid, _ := m.ReserveOID()
		val := fmt.Sprintf("v%d", i)
		want[oid] = val
		commitWrite(t, m, uint64(i), oid, []byte(val))
	}
	got := map[storage.OID]string{}
	err := m.Iterate(func(oid storage.OID, data []byte) error {
		got[oid] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d objects, want %d", len(got), len(want))
	}
	for oid, val := range want {
		if got[oid] != val {
			t.Fatalf("oid %d: %q vs %q", oid, got[oid], val)
		}
	}
}

func TestMultiOpAtomicBatch(t *testing.T) {
	m, path := openTemp(t, Options{})
	a, _ := m.ReserveOID()
	b, _ := m.ReserveOID()
	err := m.ApplyCommit(1, []storage.Op{
		{Kind: storage.OpWrite, OID: a, Data: []byte("A")},
		{Kind: storage.OpWrite, OID: b, Data: []byte("B")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash-reopen: both or neither.
	m2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !m2.Exists(a) || !m2.Exists(b) {
		t.Fatal("batch not atomic across crash")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-db")
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("opened a non-EOS file")
	}
}

func writeJunk(path string) error {
	junk := bytes.Repeat([]byte("junk data "), PageSize/10+1)[:PageSize]
	return os.WriteFile(path, junk, 0o644)
}

func TestStatsProgress(t *testing.T) {
	m, _ := openTemp(t, Options{})
	oid, _ := m.ReserveOID()
	commitWrite(t, m, 1, oid, []byte("x"))
	if _, err := m.Read(oid); err != nil {
		t.Fatal(err)
	}
	writes, reads, logBytes := metric(t, m, "storage.writes"), metric(t, m, "storage.reads"), metric(t, m, "storage.log_bytes")
	if writes != 1 || reads != 1 || logBytes == 0 {
		t.Fatalf("writes=%d reads=%d log_bytes=%d, want 1, 1, >0", writes, reads, logBytes)
	}
}

func TestClosedManagerRejectsOps(t *testing.T) {
	m, _ := openTemp(t, Options{})
	m.Close()
	if _, err := m.ReserveOID(); err == nil {
		t.Fatal("ReserveOID after close succeeded")
	}
	if _, err := m.Read(1); err == nil {
		t.Fatal("Read after close succeeded")
	}
	if err := m.ApplyCommit(1, nil); err == nil {
		t.Fatal("ApplyCommit after close succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
