package repl

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/storage/eos"
)

// Acct is the test fixture: a two-step composite event "after Buy,
// after PayBill" whose first half happens on the primary and second
// half on the promoted replica.
type Acct struct {
	Bal float64
}

func seqClass(fired *atomic.Uint64) *core.Class {
	return core.MustClass("Acct",
		core.Factory(func() any { return new(Acct) }),
		core.Method("Buy", func(ctx *core.Ctx, self any, args []any) (any, error) {
			a := self.(*Acct)
			a.Bal += args[0].(float64)
			return a.Bal, nil
		}),
		core.Method("PayBill", func(ctx *core.Ctx, self any, args []any) (any, error) {
			a := self.(*Acct)
			a.Bal -= args[0].(float64)
			return a.Bal, nil
		}),
		core.Events("after Buy", "after PayBill"),
		core.Trigger("Seq", "after Buy, after PayBill",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				fired.Add(1)
				return nil
			}),
	)
}

// primary bundles one primary's moving parts.
type primary struct {
	db    *core.Database
	store *eos.Manager
	hub   *Hub
	srv   *server.Server
	addr  string
}

func startPrimary(t testing.TB, path string, cls *core.Class) *primary {
	t.Helper()
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(cls); err != nil {
		t.Fatal(err)
	}
	hub := NewHub(store, HubOptions{PingInterval: 50 * time.Millisecond})
	hub.RegisterMetrics(db.Observability())
	srv := server.NewWithOptions(db, server.Options{ExtraOps: hub.Ops()})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &primary{db: db, store: store, hub: hub, srv: srv, addr: addr}
}

func (p *primary) shutdown() {
	p.srv.Close()
	p.hub.Close()
	p.db.Close()
}

func startReplica(t testing.TB, dir, name, addr string) (*Replica, *eos.Manager) {
	t.Helper()
	path := filepath.Join(dir, name)
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(addr, store, ReplicaOptions{
		PosPath:    path + ".replpos",
		RedialBase: 5 * time.Millisecond,
		RedialMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	return rep, store
}

// commitBuy runs one Buy in its own transaction.
func commitOp(t testing.TB, db *core.Database, ref core.Ref, method string, amt float64) {
	t.Helper()
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, method, amt); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverResumesCompositeEvent is the tentpole acceptance test: a
// composite event "after Buy, after PayBill" half-matched on the
// primary completes — exactly once — on the promoted replica, because
// the trigger's persistent FSM state rides the shipped log.
func TestFailoverResumesCompositeEvent(t *testing.T) {
	dir := t.TempDir()
	var fired atomic.Uint64
	cls := seqClass(&fired)
	p := startPrimary(t, filepath.Join(dir, "primary.db"), cls)

	// Primary: create the account, arm the trigger, and run the first
	// half of the sequence.
	tx := p.db.Begin()
	ref, err := p.db.Create(tx, "Acct", &Acct{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.db.Activate(tx, ref, "Seq"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	commitOp(t, p.db, ref, "Buy", 100)
	if n := fired.Load(); n != 0 {
		t.Fatalf("trigger fired %d times on primary after half the sequence", n)
	}

	// Replica: bootstrap, then build the database layer over the synced
	// store — read-only, so construction and Register write nothing.
	rep, rstore := startReplica(t, dir, "replica.db", p.addr)
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rdb, err := core.NewDatabase(rstore)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.Register(cls); err != nil {
		t.Fatal(err)
	}
	rep.AttachDatabase(rdb)

	// The replica serves reads and rejects writes.
	rt := rdb.Begin()
	v, err := rdb.Get(rt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*Acct).Bal; got != 100 {
		t.Fatalf("replica Bal = %v, want 100", got)
	}
	if _, err := rdb.Invoke(rt, ref, "Buy", 1.0); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica write = %v, want ErrReadOnly", err)
	}
	rt.Abort()

	// Drain any in-flight lag, fail the primary, promote the replica.
	waitFor(t, "zero lag", func() bool { return rep.Status().LagBytes == 0 })
	p.shutdown()
	rep.Promote()
	if !rep.Status().Promoted {
		t.Fatal("Status().Promoted false after Promote")
	}

	// Second half of the sequence on the promoted replica: the FSM
	// resumes mid-expression and fires exactly once.
	commitOp(t, rdb, ref, "PayBill", 40)
	if n := fired.Load(); n != 1 {
		t.Fatalf("trigger fired %d times after failover, want exactly 1", n)
	}
	// The sequence is consumed (not perpetual): running it again from
	// scratch must NOT fire — no duplicated trigger state.
	commitOp(t, rdb, ref, "PayBill", 1)
	if n := fired.Load(); n != 1 {
		t.Fatalf("trigger fired %d times total, want exactly 1", n)
	}
}

// TestSnapshotBootstrap: a replica whose position was truncated away by
// a primary checkpoint bootstraps from a full-store snapshot and then
// follows the live stream.
func TestSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	var fired atomic.Uint64
	cls := seqClass(&fired)
	p := startPrimary(t, filepath.Join(dir, "primary.db"), cls)
	defer p.shutdown()

	tx := p.db.Begin()
	ref, err := p.db.Create(tx, "Acct", &Acct{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		commitOp(t, p.db, ref, "Buy", 1)
	}
	// Checkpoint with no subscribers truncates the whole log: base > 0,
	// so a from-zero subscriber is out of range and gets a snapshot.
	if err := p.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if p.store.Log().Base() == 0 {
		t.Fatal("checkpoint did not advance the log base")
	}

	rep, rstore := startReplica(t, dir, "replica.db", p.addr)
	defer rep.Stop()
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := rep.snapshotsLoaded.Value(); got != 1 {
		t.Fatalf("snapshots loaded = %d, want 1", got)
	}

	rdb, err := core.NewDatabase(rstore)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.Register(cls); err != nil {
		t.Fatal(err)
	}
	rep.AttachDatabase(rdb)

	check := func(want float64) {
		rt := rdb.Begin()
		defer rt.Abort()
		v, err := rdb.Get(rt, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(*Acct).Bal; got != want {
			t.Fatalf("replica Bal = %v, want %v", got, want)
		}
	}
	check(10)

	// Live tail after the snapshot.
	commitOp(t, p.db, ref, "Buy", 5)
	waitFor(t, "live tail applied", func() bool {
		rt := rdb.Begin()
		defer rt.Abort()
		v, err := rdb.Get(rt, ref)
		return err == nil && v.(*Acct).Bal == 15
	})
}

// TestReplicaReconnect: the primary's listener flaps; the replica
// reconnects with backoff, resumes from its durable position, and
// catches up on writes that happened while it was cut off.
func TestReplicaReconnect(t *testing.T) {
	dir := t.TempDir()
	var fired atomic.Uint64
	cls := seqClass(&fired)
	p := startPrimary(t, filepath.Join(dir, "primary.db"), cls)
	defer func() { p.db.Close() }()

	tx := p.db.Begin()
	ref, err := p.db.Create(tx, "Acct", &Acct{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rep, rstore := startReplica(t, dir, "replica.db", p.addr)
	defer rep.Stop()
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Cut the link: stop the listener (the hub and store live on).
	if err := p.srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect noticed", func() bool { return !rep.Status().Connected })

	// Writes land while the replica is dark.
	commitOp(t, p.db, ref, "Buy", 7)

	// Listener returns on the same address.
	srv2 := server.NewWithOptions(p.db, server.Options{
		ExtraOps: p.hub.Ops(),
	})
	defer srv2.Close()
	waitFor(t, "rebind", func() bool {
		_, err := srv2.Listen(p.addr)
		return err == nil
	})

	pEnd := uint64(p.store.Log().End())
	waitFor(t, "catch-up after reconnect", func() bool {
		return rep.Status().AppliedLSN >= pEnd
	})
	if rep.Status().Reconnects == 0 {
		t.Fatal("no reconnect attempts recorded")
	}
	// Verify the dark-period write arrived.
	rdb, err := core.NewDatabase(rstore)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.Register(cls); err != nil {
		t.Fatal(err)
	}
	rt := rdb.Begin()
	defer rt.Abort()
	v, err := rdb.Get(rt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*Acct).Bal; got != 7 {
		t.Fatalf("replica Bal = %v, want 7", got)
	}
}

// TestReplicaRestartResumes: a stopped replica restarted with its
// sidecar position resumes the stream without a snapshot and without
// re-applying divergent state.
func TestReplicaRestartResumes(t *testing.T) {
	dir := t.TempDir()
	var fired atomic.Uint64
	cls := seqClass(&fired)
	p := startPrimary(t, filepath.Join(dir, "primary.db"), cls)
	defer p.shutdown()

	tx := p.db.Begin()
	ref, err := p.db.Create(tx, "Acct", &Acct{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	commitOp(t, p.db, ref, "Buy", 3)

	rep, rstore := startReplica(t, dir, "replica.db", p.addr)
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pos := rep.Status().AppliedLSN
	rep.Stop()
	if err := rstore.Close(); err != nil {
		t.Fatal(err)
	}

	// More writes while the replica is down.
	commitOp(t, p.db, ref, "Buy", 4)

	rep2, rstore2 := startReplica(t, dir, "replica.db", p.addr)
	defer rep2.Stop()
	if got := rep2.Status().AppliedLSN; got != pos {
		t.Fatalf("restart resume position = %d, want sidecar position %d", got, pos)
	}
	if err := rep2.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := rep2.snapshotsLoaded.Value(); got != 0 {
		t.Fatalf("restart loaded %d snapshots, want 0 (resume from sidecar)", got)
	}

	rdb, err := core.NewDatabase(rstore2)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.Register(cls); err != nil {
		t.Fatal(err)
	}
	rt := rdb.Begin()
	defer rt.Abort()
	v, err := rdb.Get(rt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*Acct).Bal; got != 7 {
		t.Fatalf("replica Bal after restart = %v, want 7", got)
	}
}
