package core

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
)

// Doc is the cross-shard test class: a composite `,`-sequence trigger
// ("Flag , Review") anchored on one shard, whose first event arrives
// from another shard through the outbox.
type Doc struct {
	Audits int
}

func newDocClass() *Class {
	return MustClass("Doc",
		Factory(func() any { return new(Doc) }),
		Method("Bump", func(ctx *Ctx, self any, args []any) (any, error) {
			self.(*Doc).Audits++
			return nil, nil
		}),
		Events("Flag", "Review"),
		Trigger("Audit", "Flag , Review",
			func(ctx *Ctx, self any, act *Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "Bump")
				return err
			}),
	)
}

// evenOdd is a deterministic two-shard ownership split for tests that
// do not need the real ring: shard 0 owns even user OIDs, shard 1 odd.
func evenOdd(self uint64) func(uint64) bool {
	return func(oid uint64) bool {
		return oid < 18 || oid%2 == self
	}
}

// newShardPair returns two main-memory databases partitioned even/odd,
// both with Doc registered and sharding enabled.
func newShardPair(t *testing.T) (a, b *Database) {
	t.Helper()
	mk := func(self uint64, node uint64) *Database {
		store := dali.New()
		store.SetOIDFilter(evenOdd(self))
		db, err := NewDatabase(store)
		if err != nil {
			t.Fatal(err)
		}
		db.Causes().SetNode(node)
		if err := db.Register(newDocClass()); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableSharding(evenOdd(self)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	return mk(0, 0xA), mk(1, 0xB)
}

func TestShardOIDFilterPartitionsAllocation(t *testing.T) {
	a, b := newShardPair(t)
	for i := 0; i < 10; i++ {
		txA, txB := a.Begin(), b.Begin()
		refA, err := a.Create(txA, "Doc", &Doc{})
		if err != nil {
			t.Fatal(err)
		}
		refB, err := b.Create(txB, "Doc", &Doc{})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(refA.OID())%2 != 0 {
			t.Fatalf("shard 0 minted odd oid %v", refA)
		}
		if uint64(refB.OID())%2 != 1 {
			t.Fatalf("shard 1 minted even oid %v", refB)
		}
		if err := txA.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := txB.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// mkDoc creates a Doc on db and returns its ref.
func mkDoc(t *testing.T, db *Database) Ref {
	t.Helper()
	tx := db.Begin()
	ref, err := db.Create(tx, "Doc", &Doc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestShardCaptureAndExactlyOnceIngest(t *testing.T) {
	a, b := newShardPair(t)

	// Anchor on shard B: activate the composite sequence.
	target := mkDoc(t, b)
	tx := b.Begin()
	if _, err := b.Activate(tx, target, "Audit"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Shard A posts the first event of the pattern to B's object: the
	// load would fail here, so the posting must be captured, not applied.
	txA := a.Begin()
	if err := a.PostUserEvent(txA, RefFromOID(target.OID()), "Flag"); err != nil {
		t.Fatalf("remote posting not captured: %v", err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	out := a.SettledOutbox()
	if len(out) != 1 {
		t.Fatalf("settled outbox has %d entries, want 1", len(out))
	}
	if out[0].Target != uint64(target.OID()) || out[0].Event != "Flag" || out[0].Node != 0xA {
		t.Fatalf("bad outbox entry: %+v", out[0])
	}

	// Deliver — then deliver again (the lost-ack case). The watermark
	// must absorb the duplicate.
	evs := []RemoteEvent{out[0].RemoteEvent}
	wm, err := b.IngestRemoteEvents(0xA, evs)
	if err != nil {
		t.Fatal(err)
	}
	if wm != out[0].Seq {
		t.Fatalf("watermark %d, want %d", wm, out[0].Seq)
	}
	for i := 0; i < 3; i++ {
		wm2, err := b.IngestRemoteEvents(0xA, evs)
		if err != nil {
			t.Fatal(err)
		}
		if wm2 != wm {
			t.Fatalf("redelivery moved watermark %d -> %d", wm, wm2)
		}
	}
	if persisted, err := b.IngestWatermark(0xA); err != nil || persisted != wm {
		t.Fatalf("persisted watermark %d (err %v), want %d", persisted, err, wm)
	}

	// Complete the pattern locally on B; the trigger must fire exactly
	// once even though "Flag" was delivered four times.
	txB := b.Begin()
	if err := b.PostUserEvent(txB, target, "Review"); err != nil {
		t.Fatal(err)
	}
	if err := txB.Commit(); err != nil {
		t.Fatal(err)
	}
	q := b.Begin()
	v, err := b.Get(q, target)
	if err != nil {
		t.Fatal(err)
	}
	audits := v.(*Doc).Audits
	q.Commit()
	if audits != 1 {
		t.Fatalf("composite fired %d times, want exactly 1", audits)
	}

	// Ack: trim the delivered record.
	if err := a.TrimOutbox([]uint64{out[0].Seq}); err != nil {
		t.Fatal(err)
	}
	if left := a.SettledOutbox(); len(left) != 0 {
		t.Fatalf("outbox not trimmed: %d entries left", len(left))
	}
}

func TestShardCaptureRollsBackOnAbort(t *testing.T) {
	a, b := newShardPair(t)
	target := mkDoc(t, b)
	tx := a.Begin()
	if err := a.PostUserEvent(tx, RefFromOID(target.OID()), "Flag"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if out := a.SettledOutbox(); len(out) != 0 {
		t.Fatalf("aborted capture leaked into the outbox: %+v", out)
	}
	// The record object must be gone from the store too.
	if n := a.Observability(); n == nil {
		t.Fatal("registry missing")
	}
}

func TestShardSettledFloorHoldsBackOpenCaptures(t *testing.T) {
	a, b := newShardPair(t)
	target := mkDoc(t, b)

	// tx1 captures first (smaller seq) and stays open; tx2 captures and
	// commits. tx2's record must NOT be settled — if it were forwarded
	// now and tx1 committed later, tx1's smaller seq would arrive below
	// the receiver's watermark and be dropped forever.
	tx1 := a.Begin()
	if err := a.PostUserEvent(tx1, RefFromOID(target.OID()), "Flag"); err != nil {
		t.Fatal(err)
	}
	tx2 := a.Begin()
	if err := a.PostUserEvent(tx2, RefFromOID(target.OID()), "Flag"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if out := a.SettledOutbox(); len(out) != 0 {
		t.Fatalf("outbox settled %d entries past an open capture", len(out))
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	out := a.SettledOutbox()
	if len(out) != 2 {
		t.Fatalf("settled outbox has %d entries after both commits, want 2", len(out))
	}
	if out[0].Seq >= out[1].Seq {
		t.Fatalf("settled outbox out of seq order: %d, %d", out[0].Seq, out[1].Seq)
	}
}

func TestShardIngestDropsInvalid(t *testing.T) {
	_, b := newShardPair(t)
	// Target OID 9999 does not exist on B (but is B-owned: odd).
	wm, err := b.IngestRemoteEvents(0xA, []RemoteEvent{
		{Seq: 7, Node: 0xA, Target: 9999, Event: "Flag"},
	})
	if err != nil {
		t.Fatalf("invalid event must be dropped, not fail the batch: %v", err)
	}
	if wm != 7 {
		t.Fatalf("watermark %d, want 7 (dropped events still advance it)", wm)
	}
	// An undeclared event on a real object drops too.
	target := mkDoc(t, b)
	wm, err = b.IngestRemoteEvents(0xA, []RemoteEvent{
		{Seq: 8, Node: 0xA, Target: uint64(target.OID()), Event: "NoSuchEvent"},
	})
	if err != nil || wm != 8 {
		t.Fatalf("undeclared event: wm %d err %v, want 8 nil", wm, err)
	}
}

func TestShardOutboxSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-a.eos")
	var seq uint64
	var target uint64 = 9991 // odd: remote from shard 0's perspective

	{
		store, err := eos.Open(path, eos.Options{})
		if err != nil {
			t.Fatal(err)
		}
		store.SetOIDFilter(evenOdd(0))
		db, err := NewDatabase(store)
		if err != nil {
			t.Fatal(err)
		}
		db.Causes().SetNode(0xA)
		if err := db.Register(newDocClass()); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableSharding(evenOdd(0)); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if err := db.PostUserEvent(tx, RefFromOID(storage.OID(target)), "Flag"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		out := db.SettledOutbox()
		if len(out) != 1 {
			t.Fatalf("outbox %d, want 1", len(out))
		}
		seq = out[0].Seq
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// "Reboot": the committed, untrimmed record must reload, and the
	// cause source must not re-issue its seq.
	{
		store, err := eos.Open(path, eos.Options{})
		if err != nil {
			t.Fatal(err)
		}
		store.SetOIDFilter(evenOdd(0))
		db, err := NewDatabase(store)
		if err != nil {
			t.Fatal(err)
		}
		db.Causes().SetNode(0xA)
		if err := db.Register(newDocClass()); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableSharding(evenOdd(0)); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		out := db.SettledOutbox()
		if len(out) != 1 || out[0].Seq != seq || out[0].Event != "Flag" {
			t.Fatalf("outbox after restart: %+v, want seq %d Flag", out, seq)
		}
		if next := db.Causes().Next(); next.Seq <= seq {
			t.Fatalf("cause seq %d re-issued at or below recovered %d", next.Seq, seq)
		}
		if err := db.TrimOutbox([]uint64{seq}); err != nil {
			t.Fatal(err)
		}
		if left := db.SettledOutbox(); len(left) != 0 {
			t.Fatalf("trim after restart left %d entries", len(left))
		}
	}
}

func TestShardEnableTwiceFails(t *testing.T) {
	db, err := NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.EnableSharding(evenOdd(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(evenOdd(0)); err == nil {
		t.Fatal("second EnableSharding must fail")
	}
	if _, err := db.IngestRemoteEvents(1, nil); err != nil {
		t.Fatalf("ingest of empty batch: %v", err)
	}
}

func TestShardDisabledErrors(t *testing.T) {
	db, err := NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.IngestRemoteEvents(1, nil); !errors.Is(err, ErrShardingDisabled) {
		t.Fatalf("got %v, want ErrShardingDisabled", err)
	}
	if err := db.TrimOutbox([]uint64{1}); !errors.Is(err, ErrShardingDisabled) {
		t.Fatalf("got %v, want ErrShardingDisabled", err)
	}
}

// gatedStore blocks the first OID reservation made while armed until
// release is closed, holding a capture between drawing its seq and
// creating its outbox record.
type gatedStore struct {
	*dali.Manager
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) ReserveOID() (storage.OID, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Manager.ReserveOID()
}

func TestShardCaptureHoldsFloorFromItsSeq(t *testing.T) {
	store := dali.New()
	store.SetOIDFilter(evenOdd(0))
	g := &gatedStore{Manager: store, entered: make(chan struct{}), release: make(chan struct{})}
	a, err := NewDatabase(g)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Register(newDocClass()); err != nil {
		t.Fatal(err)
	}
	if err := a.EnableSharding(evenOdd(0)); err != nil {
		t.Fatal(err)
	}
	remote := RefFromOID(19) // odd: the other shard's
	// tx1 draws the smaller seq, then stalls creating its record while
	// tx2 captures and commits. tx2's record must not settle before
	// tx1's: forwarded first, it would put tx1's seq below the owner's
	// watermark, and tx1's event would be skipped as a duplicate.
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		tx1 := a.Begin()
		if err := a.PostUserEvent(tx1, remote, "Flag"); err != nil {
			done <- err
			return
		}
		done <- tx1.Commit()
	}()
	<-g.entered
	tx2 := a.Begin()
	if err := a.PostUserEvent(tx2, remote, "Flag"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	out := a.SettledOutbox()
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("seq %d settled while the smaller seq of a capture in progress had no record yet", out[0].Seq)
	}
	if out := a.SettledOutbox(); len(out) != 2 || out[0].Seq >= out[1].Seq {
		t.Fatalf("settled outbox after both commits: %+v, want 2 entries in seq order", out)
	}
}
