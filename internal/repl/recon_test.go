package repl

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/antientropy"
	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/eos"
)

// sameStoreBytes asserts two stores hold byte-identical object sets.
func sameStoreBytes(t *testing.T, what string, a, b *eos.Manager) {
	t.Helper()
	_, _, ia, err := a.ExportDigests()
	if err != nil {
		t.Fatal(err)
	}
	_, _, ib, err := b.ExportDigests()
	if err != nil {
		t.Fatal(err)
	}
	da, db := antientropy.DigestSet(ia), antientropy.DigestSet(ib)
	if !da.Equal(db) {
		t.Fatalf("%s: stores differ: %d vs %d objects (digests %+v vs %+v)", what, len(ia), len(ib), da, db)
	}
}

// setupSyncedPair builds a primary with objCount committed objects and
// a replica fully caught up with it, then returns both plus the ref.
func setupSyncedPair(t *testing.T, dir string, objCount int) (*primary, *Replica, *eos.Manager, core.Ref) {
	t.Helper()
	var fired atomic.Uint64
	cls := seqClass(&fired)
	p := startPrimary(t, filepath.Join(dir, "primary.db"), cls)
	t.Cleanup(p.shutdown)

	tx := p.db.Begin()
	ref, err := p.db.Create(tx, "Acct", &Acct{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < objCount; i++ {
		tx := p.db.Begin()
		if _, err := p.db.Create(tx, "Acct", &Acct{Bal: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	rep, rstore := startReplica(t, dir, "replica.db", p.addr)
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return p, rep, rstore, ref
}

// TestReconRejoin is the O(drift) rejoin proof at unit scale: a replica
// whose resume position was checkpoint-truncated away reconciles the
// drift instead of loading a snapshot, ships only the divergent
// objects, and converges byte-exact.
func TestReconRejoin(t *testing.T) {
	dir := t.TempDir()
	const objCount = 60
	p, rep, rstore, ref := setupSyncedPair(t, dir, objCount)

	// Cut the replica off, then drift the primary: a handful of writes
	// followed by a checkpoint that truncates them out of the log. The
	// checkpoint may only pass the replica's position once the hub has
	// dropped its subscription, which releases the WAL pin.
	rep.Stop()
	waitFor(t, "hub to drop the stopped replica", func() bool { return p.hub.Subscribers() == 0 })
	rstorePath := filepath.Join(dir, "replica.db")
	if err := rstore.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		commitOp(t, p.db, ref, "Buy", 1)
	}
	if err := p.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldApplied := rep.Status().AppliedLSN
	if base := uint64(p.store.Log().Base()); oldApplied >= base {
		t.Fatalf("replica position %d still in range (base %d); drift setup broken", oldApplied, base)
	}

	// Restart the replica over the same store + sidecar.
	store2, err := eos.Open(rstorePath, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := NewReplica(p.addr, store2, ReplicaOptions{
		PosPath:    rstorePath + ".replpos",
		RedialBase: 5 * time.Millisecond,
		RedialMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2.Start()
	defer rep2.Stop()
	if err := rep2.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejoin catch-up", func() bool {
		return rep2.Status().AppliedLSN >= uint64(p.store.Log().End())
	})

	if got := p.hub.reconRejoins.Value(); got != 1 {
		t.Fatalf("recon rejoins = %d, want 1", got)
	}
	if got := p.hub.snapshotsShipped.Value(); got != 0 {
		t.Fatalf("snapshots shipped = %d, want 0 (rejoin must not bootstrap)", got)
	}
	if got := rep2.snapshotsLoaded.Value(); got != 0 {
		t.Fatalf("snapshots loaded = %d, want 0", got)
	}
	// Drift was a few object rewrites (plus trigger/catalog state the
	// writes touched); the shipped set must be a small fraction of the
	// store, or "O(drift)" is a lie.
	shipped := p.hub.reconObjects.Value()
	if shipped == 0 || shipped > objCount/2 {
		t.Fatalf("recon shipped %d objects for a %d-object store with ~5 divergent", shipped, objCount)
	}
	sameStoreBytes(t, "after rejoin", p.store, rep2.Store())
}

// corruptReplica flips object bytes directly in the replica's store,
// simulating disk rot beneath the stream. Returns the OIDs flipped.
func corruptReplica(t *testing.T, rstore *eos.Manager, n int) []uint64 {
	t.Helper()
	_, _, items, err := rstore.ExportDigests()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	if len(items) < n {
		t.Fatalf("store has only %d objects, need %d", len(items), n)
	}
	oids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		it := items[i*len(items)/n] // spread across the OID space
		data, err := rstore.Read(storage.OID(it.Key))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x5a
		if err := rstore.ApplyReplicated(reconTxnBase+uint64(i), []storage.Op{
			{Kind: storage.OpWrite, OID: storage.OID(it.Key), Data: data},
		}); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, it.Key)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids
}

// TestVerifyDetectsAndRepairs is the divergence chaos proof at unit
// scale: seeded byte flips (plus a local free and a phantom object) on
// the replica are all detected by Verify, detect-only returns the typed
// ErrDiverged with the exact OID set, and an authorized repair
// converges the store byte-exact.
func TestVerifyDetectsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	p, rep, rstore, _ := setupSyncedPair(t, dir, 30)
	defer rep.Stop()

	flipped := corruptReplica(t, rstore, 5)

	// A phantom object only the replica has, and a legitimate object
	// freed only on the replica: repair must free the former and
	// restore the latter.
	phantomOID := uint64(100000)
	if err := rstore.ApplyReplicated(reconTxnBase+100, []storage.Op{
		{Kind: storage.OpWrite, OID: storage.OID(phantomOID), Data: []byte("phantom")},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, items, err := p.store.ExportDigests()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	freedOID := items[len(items)-1].Key
	if err := rstore.ApplyReplicated(reconTxnBase+101, []storage.Op{
		{Kind: storage.OpFree, OID: storage.OID(freedOID)},
	}); err != nil {
		t.Fatal(err)
	}

	want := append(append([]uint64{}, flipped...), phantomOID, freedOID)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	fast := VerifyOptions{BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond}

	// Detect-only: typed error, exact OID set, counter, incident.
	report, err := rep.Verify(fast)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("Verify = %v, want ErrDiverged (report %+v)", err, report)
	}
	if len(report.Diverged) != len(want) {
		t.Fatalf("diverged = %v, want %v", report.Diverged, want)
	}
	for i, oid := range want {
		if report.Diverged[i] != oid {
			t.Fatalf("diverged = %v, want %v", report.Diverged, want)
		}
	}
	if got := rep.diverged.Value(); got != uint64(len(want)) {
		t.Fatalf("repl.diverged = %d, want %d", got, len(want))
	}

	// Repair: converges byte-exact, reports what it rewrote.
	fixRep := fast
	fixRep.Repair = true
	report, err = rep.Verify(fixRep)
	if err != nil {
		t.Fatalf("repair Verify: %v (report %+v)", err, report)
	}
	if !report.InSync {
		t.Fatalf("repair did not converge: %+v", report)
	}
	if len(report.Repaired) != len(want) {
		t.Fatalf("repaired = %v, want %v", report.Repaired, want)
	}
	sameStoreBytes(t, "after repair", p.store, rstore)

	// And a clean audit now reports in-sync with no error.
	report, err = rep.Verify(fast)
	if err != nil || !report.InSync {
		t.Fatalf("post-repair Verify = %+v, %v; want clean", report, err)
	}
}

// TestVerifyLiveChurnNoFalsePositive: a replica that merely lags a hot
// primary must not be declared diverged — churn shows up as unstable
// pairs, never as a confirmed divergence.
func TestVerifyLiveChurnNoFalsePositive(t *testing.T) {
	dir := t.TempDir()
	p, rep, _, ref := setupSyncedPair(t, dir, 10)
	defer rep.Stop()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				commitOp(t, p.db, ref, "Buy", 1)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	report, err := rep.Verify(VerifyOptions{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	close(stop)
	<-done
	if errors.Is(err, ErrDiverged) {
		t.Fatalf("live churn misreported as divergence: %+v", report)
	}
	if err != nil && !errors.Is(err, ErrLagged) {
		t.Fatalf("Verify under churn: %v", err)
	}
}

// TestSidecarTornWrite (satellite): a torn/partial sidecar must read as
// "resume from zero", and the replica then rejoins and converges.
func TestSidecarTornWrite(t *testing.T) {
	dir := t.TempDir()
	p, rep, rstore, _ := setupSyncedPair(t, dir, 12)

	rep.Stop()
	path := filepath.Join(dir, "replica.db")
	if err := rstore.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the sidecar: 3 of 8 bytes.
	if err := os.WriteFile(path+".replpos", []byte{0xde, 0xad, 0xbe}, 0o644); err != nil {
		t.Fatal(err)
	}
	if pos, err := loadPos(path + ".replpos"); err != nil || pos != 0 {
		t.Fatalf("torn sidecar loaded as (%d, %v), want (0, nil)", pos, err)
	}

	store2, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := NewReplica(p.addr, store2, ReplicaOptions{
		PosPath:    path + ".replpos",
		RedialBase: 5 * time.Millisecond,
		RedialMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2.Start()
	defer rep2.Stop()
	if err := rep2.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "converged after torn sidecar", func() bool {
		return rep2.Status().AppliedLSN >= uint64(p.store.Log().End())
	})
	sameStoreBytes(t, "after torn-sidecar recovery", p.store, rep2.Store())
}

// TestSidecarStaleButValid (satellite): a stale-but-valid 8-byte
// sidecar — an older commit boundary — must be safe because the
// redo-only stream re-applies the gap idempotently.
func TestSidecarStaleButValid(t *testing.T) {
	dir := t.TempDir()
	p, rep, rstore, ref := setupSyncedPair(t, dir, 8)

	staleLSN := rep.Status().AppliedLSN // a real commit boundary, about to go stale
	for i := 0; i < 5; i++ {
		commitOp(t, p.db, ref, "Buy", 2)
	}
	waitFor(t, "tail applied", func() bool {
		return rep.Status().AppliedLSN >= uint64(p.store.Log().End())
	})
	rep.Stop()
	path := filepath.Join(dir, "replica.db")
	if err := rstore.Close(); err != nil {
		t.Fatal(err)
	}
	// Regress the sidecar to the stale boundary (valid 8 bytes).
	savePos(path+".replpos", staleLSN)
	if pos, _ := loadPos(path + ".replpos"); pos != staleLSN {
		t.Fatalf("sidecar roundtrip = %d, want %d", pos, staleLSN)
	}

	store2, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := NewReplica(p.addr, store2, ReplicaOptions{
		PosPath:    path + ".replpos",
		RedialBase: 5 * time.Millisecond,
		RedialMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2.Start()
	defer rep2.Stop()
	waitFor(t, "idempotent re-apply converged", func() bool {
		return rep2.Status().AppliedLSN >= uint64(p.store.Log().End())
	})
	// No snapshot, no recon rejoin: the stale position was in range.
	if got := rep2.snapshotsLoaded.Value(); got != 0 {
		t.Fatalf("stale-but-valid sidecar triggered %d snapshot loads", got)
	}
	sameStoreBytes(t, "after stale-sidecar replay", p.store, rep2.Store())
}

// TestRedialBackoffReset pins the backoff contract documented on
// streamOnce: progress before a drop returns nil (run() resets the
// backoff); a connection that fails before any frame returns an error
// (backoff keeps growing).
func TestRedialBackoffReset(t *testing.T) {
	dir := t.TempDir()
	store, err := eos.Open(filepath.Join(dir, "replica.db"), eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// fakePrimary accepts one connection, reads the subscribe request,
	// runs serve over it, and closes.
	fakePrimary := func(serve func(conn net.Conn)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var req server.Request
			if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&req); err != nil {
				return
			}
			serve(conn)
		}()
		return ln.Addr().String()
	}

	newRep := func(addr string) *Replica {
		r, err := NewReplica(addr, store, ReplicaOptions{
			PosPath:     filepath.Join(dir, "replica.db.replpos"),
			ReadTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Progress then drop: one valid (empty) recs frame, then close.
	addr := fakePrimary(func(conn net.Conn) {
		json.NewEncoder(conn).Encode((&Frame{T: FrameRecs, End: 1}).seal())
	})
	if err := newRep(addr).streamOnce(); err != nil {
		t.Fatalf("progress-then-drop returned %v, want nil (backoff must reset)", err)
	}

	// Failure during subscribe: close before any frame.
	addr = fakePrimary(func(conn net.Conn) {})
	if err := newRep(addr).streamOnce(); err == nil {
		t.Fatal("no-progress drop returned nil, want error (backoff must keep growing)")
	}

	// Refused dial: error too.
	if err := newRep("127.0.0.1:1").streamOnce(); err == nil {
		t.Fatal("refused dial returned nil, want error")
	}
}

// TestFrameChecksum: the semantic checksum catches a payload mutation
// that still parses as valid JSON, and passes untouched frames.
func TestFrameChecksum(t *testing.T) {
	f := &Frame{T: FrameObj, OID: 7, Data: []byte("payload")}
	f.seal()
	if err := checkSum(f); err != nil {
		t.Fatalf("sealed frame failed its own checksum: %v", err)
	}
	g := *f
	g.Data = []byte("paYload") // same length: survives JSON/base64 framing
	if err := checkSum(&g); err == nil {
		t.Fatal("mutated payload passed the checksum")
	}
	h := *f
	h.OID = 8
	if err := checkSum(&h); err == nil {
		t.Fatal("mutated OID passed the checksum")
	}
	// Compatibility: no checksum, no check.
	i := &Frame{T: FramePing, End: 9}
	if err := checkSum(i); err != nil {
		t.Fatalf("CRC-less frame rejected: %v", err)
	}
	// Recon fields are covered too.
	root := antientropy.SetDigest{Count: 1, Sum: 2, Xor: 3}
	rf := (&Frame{T: FrameRecon, N: 5, Root: &root}).seal()
	rf.Root = &antientropy.SetDigest{Count: 1, Sum: 2, Xor: 4}
	if err := checkSum(rf); err == nil {
		t.Fatal("mutated recon root passed the checksum")
	}
}
