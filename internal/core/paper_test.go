package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/event"
	"ode/internal/obj"
	"ode/internal/txn"
)

// The paper's measurable claims about the trigger engine, one
// TestPaperE<n> each, beside the benchmarks that time the same paths.
// EXPERIMENTS.md records their tables. Claims whose verdict reads a
// clock are in paper_clock_test.go.

// perOp times fn over n iterations and returns ns/op.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// counters snapshots the database's metrics registry by name.
func counters(db *Database) map[string]uint64 {
	out := map[string]uint64{}
	for _, mv := range db.Observability().Snapshot() {
		out[mv.Name] = mv.Value
	}
	return out
}

// activeCard commits a card whose limit no Buy reaches, with the named
// triggers activated on it (a name may repeat).
func activeCard(t testing.TB, db *Database, triggers ...string) Ref {
	t.Helper()
	ref := newCard(t, db, 1e15, true)
	tx := db.Begin()
	for _, name := range triggers {
		if _, err := db.Activate(tx, ref, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref
}

func mustInvoke(t testing.TB, db *Database, tx *txn.Txn, ref Ref, method string, args ...any) {
	t.Helper()
	if _, err := db.Invoke(tx, ref, method, args...); err != nil {
		t.Fatal(err)
	}
}

// invokeTxn invokes method in a transaction of its own and commits it.
func invokeTxn(t testing.TB, db *Database, ref Ref, method string, args ...any) {
	t.Helper()
	tx := db.Begin()
	mustInvoke(t, db, tx, ref, method, args...)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// benchInvoke times b.N invocations of method inside one transaction.
func benchInvoke(b *testing.B, db *Database, ref Ref, method string, args ...any) {
	tx := db.Begin()
	defer tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustInvoke(b, db, tx, ref, method, args...)
	}
}

// benchTxn times b.N one-invocation transactions.
func benchTxn(b *testing.B, db *Database, ref Ref, method string, args ...any) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invokeTxn(b, db, ref, method, args...)
	}
}

// queryDB registers a class whose read-only Query method drives a
// perpetual two-step trigger, so every posting advances (writes) the
// trigger state — §6's read-to-write amplification in its purest form —
// and returns cards objects, each with QueryPattern active if asked.
func queryDB(t testing.TB, cards int, withTrigger bool) (*Database, []Ref) {
	t.Helper()
	db := newTestDB(t, MustClass("QueryCard",
		Factory(func() any { return new(CredCard) }),
		ReadOnlyMethod("Query", func(ctx *Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).CurrBal, nil
		}),
		Events("after Query"),
		Trigger("QueryPattern", "after Query, after Query",
			func(ctx *Ctx, self any, act *Activation) error { return nil },
			Perpetual()),
	))
	refs := make([]Ref, cards)
	tx := db.Begin()
	for i := range refs {
		var err error
		if refs[i], err = db.Create(tx, "QueryCard", &CredCard{}); err != nil {
			t.Fatal(err)
		}
		if withTrigger {
			if _, err := db.Activate(tx, refs[i], "QueryPattern"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, refs
}

// TestOneObjectPostingsNeverDeadlock is E8's workload on one object:
// eight workers each run 400 read-only transactions of two Query
// postings with QueryPattern active. A posting takes each trigger-state
// lock exclusively when it first reads the state, so two postings to
// one object queue for that lock instead of each holding it shared and
// then both asking to upgrade: no transaction deadlocks or aborts.
func TestOneObjectPostingsNeverDeadlock(t *testing.T) {
	const workers, perWorker = 8, 400
	db, refs := queryDB(t, 1, true)
	deadlocks := metric(t, db, "lock.deadlocks")
	var wg sync.WaitGroup
	var aborted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				_, err1 := db.Invoke(tx, refs[0], "Query")
				_, err2 := db.Invoke(tx, refs[0], "Query")
				if err1 != nil || err2 != nil {
					tx.Abort()
					aborted.Add(1)
					continue
				}
				if tx.Commit() != nil {
					aborted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if d := metric(t, db, "lock.deadlocks") - deadlocks; d != 0 || aborted.Load() != 0 {
		t.Fatalf("%d deadlocks, %d aborted transactions; want 0 and 0", d, aborted.Load())
	}
}

// TestPaperE3OverheadOnlyWhereTriggersExist is experiment E3 (design goal
// 3, §5.4.5 footnote 3): only objects of classes with triggers pay trigger
// overhead, and an object with no *active* trigger pays only the
// header-bit test. The verdict is counted from registry deltas over the
// loop: every posting on an inactive object takes the header fast path,
// evaluates no mask and reads the store no more often than a class that
// declares no events; with DenyCredit active, every posting evaluates its
// mask and reads more (the index and the TriggerState).
func TestPaperE3OverheadOnlyWhereTriggersExist(t *testing.T) {
	plain := MustClass("Plain",
		Factory(func() any { return new(CredCard) }),
		Method("Buy", func(ctx *Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal += args[0].(float64)
			return nil, nil
		}),
	)
	db := newTestDB(t, newCredCardClass(), plain)
	const n = 5000
	type variant struct {
		ns                         float64
		posts, skips, masks, reads uint64
	}
	measure := func(class string, triggers ...string) variant {
		tx := db.Begin()
		ref, err := db.Create(tx, class, &CredCard{CredLim: 1e15, GoodHist: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range triggers {
			if _, err := db.Activate(tx, ref, name); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		btx := db.Begin()
		defer btx.Commit()
		before := counters(db)
		ns := perOp(n, func() { mustInvoke(t, db, btx, ref, "Buy", 1.0) })
		after := counters(db)
		d := func(name string) uint64 { return after[name] - before[name] }
		return variant{ns, d("core.events_posted"), d("core.fast_path_skips"), d("core.masks_evaluated"), d("storage.reads")}
	}
	plainV := measure("Plain")
	inactive := measure("CredCard")
	active := measure("CredCard", "DenyCredit")

	t.Logf("%-27s %9s %9s %9s %7s %11s", "variant", "ns/Invoke", "postings", "fast-path", "masks", "store reads")
	for _, row := range []struct {
		name string
		v    variant
	}{
		{"no events declared", plainV},
		{"events, no active trigger", inactive},
		{"active trigger (mask eval)", active},
	} {
		t.Logf("%-27s %9.0f %9d %9d %9d %11d", row.name, row.v.ns, row.v.posts, row.v.skips, row.v.masks, row.v.reads)
	}
	if inactive.posts != n || inactive.skips != n || inactive.masks != 0 || inactive.reads != plainV.reads {
		t.Errorf("inactive object left the fast path: %+v (plain class read the store %d times)", inactive, plainV.reads)
	}
	if active.posts != n || active.masks != n || active.reads <= inactive.reads {
		t.Errorf("active trigger did not take the full §5.4.5 path on every posting: %+v", active)
	}
}

// BenchmarkE3InvokeNoActiveTriggers measures the fast path: the event is
// declared but no trigger is active, so posting stops at the header bit.
func BenchmarkE3InvokeNoActiveTriggers(b *testing.B) {
	db := newTestDB(b)
	benchInvoke(b, db, activeCard(b, db), "Buy", 1.0)
}

// BenchmarkE3InvokeActiveTrigger measures the slow path with one active
// trigger whose mask is evaluated on every posting.
func BenchmarkE3InvokeActiveTrigger(b *testing.B) {
	db := newTestDB(b)
	benchInvoke(b, db, activeCard(b, db, "DenyCredit"), "Buy", 1.0)
}

// BenchmarkObsOverhead is E18: the E3 slow path under three tracing
// configurations. With tracing off the gate is a single atomic load, so
// TracingOff must stay within noise of BenchmarkE3InvokeActiveTrigger.
func BenchmarkObsOverhead(b *testing.B) {
	for _, cfg := range []struct {
		name string
		rate uint64
	}{
		{"TracingOff", 0},
		{"Sampled1In1024", 1024},
		{"TraceEvery", 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := newTestDB(b)
			ref := activeCard(b, db, "DenyCredit")
			db.Tracer().SetRate(cfg.rate)
			benchInvoke(b, db, ref, "Buy", 1.0)
		})
	}
}

// TestPaperE7OutOfObjectTriggerState is experiment E7 (design goal 5,
// §5.1.3, §6): trigger state lives outside the object, so activation
// never changes the stored object payload (no data conversion); the price
// is the object→trigger index, paid per active trigger. Counted: with 1,
// 4, 16 and 64 DenyCredit activations, every posting evaluates exactly
// one mask per activation, because every active machine sees the event
// (§5.4.5).
func TestPaperE7OutOfObjectTriggerState(t *testing.T) {
	db := newTestDB(t)
	ref := activeCard(t, db)
	payload := func() []byte {
		img, err := db.Store().Read(ref.OID())
		if err != nil {
			t.Fatal(err)
		}
		_, p, err := obj.DecodeEnvelope(img)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), p...)
	}
	before := payload()
	activated := 0
	const n = 2500
	t.Logf("%-16s %10s %14s", "active triggers", "ns/Invoke", "masks/posting")
	for _, target := range []int{1, 4, 16, 64} {
		tx := db.Begin()
		for ; activated < target; activated++ {
			if _, err := db.Activate(tx, ref, "DenyCredit"); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if target == 1 {
			if after := payload(); !bytes.Equal(before, after) {
				t.Errorf("activation changed the stored object payload:\nbefore %x\nafter  %x", before, after)
			}
		}
		btx := db.Begin()
		masks := metric(t, db, "core.masks_evaluated")
		ns := perOp(n, func() { mustInvoke(t, db, btx, ref, "Buy", 1.0) })
		masks = metric(t, db, "core.masks_evaluated") - masks
		if err := btx.Commit(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%-16d %10.0f %14.2f", target, ns, float64(masks)/n)
		if masks != uint64(n*target) {
			t.Errorf("%d active triggers: %d masks over %d postings, want %d", target, masks, n, n*target)
		}
	}
}

// BenchmarkE7IndexLookup16 posts to an object with 16 active triggers:
// the §5.1.3 index lookup plus 16 FSM advances.
func BenchmarkE7IndexLookup16(b *testing.B) {
	db := newTestDB(b)
	triggers := make([]string, 16)
	for i := range triggers {
		triggers[i] = "DenyCredit"
	}
	benchInvoke(b, db, activeCard(b, db, triggers...), "Buy", 1.0)
}

// couplingModesDB registers a class with one perpetual trigger per
// coupling mode, each listening to its own method so the modes can be
// driven independently, and returns one object with all four active.
func couplingModesDB(t testing.TB) (*Database, Ref) {
	t.Helper()
	noop := func(ctx *Ctx, self any, act *Activation) error { return nil }
	method := func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }
	db := newTestDB(t, MustClass("Coupled",
		Factory(func() any { return new(CredCard) }),
		Method("None", method),
		Method("Imm", method),
		Method("End", method),
		Method("Dep", method),
		Method("Indep", method),
		Events("after Imm", "after End", "after Dep", "after Indep"),
		Trigger("TImm", "after Imm", noop, Perpetual()),
		Trigger("TEnd", "after End", noop, Perpetual(), WithCoupling(Deferred)),
		Trigger("TDep", "after Dep", noop, Perpetual(), WithCoupling(Dependent)),
		Trigger("TIndep", "after Indep", noop, Perpetual(), WithCoupling(Independent)),
	))
	tx := db.Begin()
	ref, err := db.Create(tx, "Coupled", &CredCard{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"TImm", "TEnd", "TDep", "TIndep"} {
		if _, err := db.Activate(tx, ref, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref
}

// TestPaperE9CouplingModes is experiment E9 (§4.2, §5.5): immediate fires
// inside the transaction, end at commit, and dependent/!dependent each in
// a system transaction of their own. Counted per mode over n committing
// transactions: the mode's trigger fires exactly n times, no other mode
// fires, and the system transactions begun equal the detached firings —
// exactly once each. The cost column is informative; the paper makes no
// ordering claim beyond the extra transaction for detached modes.
func TestPaperE9CouplingModes(t *testing.T) {
	db, ref := couplingModesDB(t)
	const n = 1000
	fired := func() [4]uint64 {
		return [4]uint64{metric(t, db, "core.fired_immediate"), metric(t, db, "core.fired_deferred"),
			metric(t, db, "core.fired_dependent"), metric(t, db, "core.fired_independent")}
	}
	t.Logf("%-22s %9s %27s %12s", "coupling", "ns/txn", "fired imm/end/dep/indep", "system txns")
	for mode, row := range []struct{ label, method string }{
		{"immediate", "Imm"},
		{"end (deferred)", "End"},
		{"dependent", "Dep"},
		{"!dependent", "Indep"},
		{"no trigger (baseline)", "None"},
	} {
		before, sys := fired(), metric(t, db, "txn.system")
		ns := perOp(n, func() { invokeTxn(t, db, ref, row.method, 1.0) })
		after := fired()
		sys = metric(t, db, "txn.system") - sys
		var delta, want [4]uint64
		for i := range delta {
			delta[i] = after[i] - before[i]
		}
		if mode < len(want) {
			want[mode] = n
		}
		t.Logf("%-22s %9.0f %27s %12d", row.label, ns, fmt.Sprintf("%d/%d/%d/%d", delta[0], delta[1], delta[2], delta[3]), sys)
		if delta != want {
			t.Errorf("%s: fired %v over %d transactions, want %v", row.label, delta, n, want)
		}
		if sys != delta[2]+delta[3] {
			t.Errorf("%s: %d system transactions for %d detached firings", row.label, sys, delta[2]+delta[3])
		}
	}
}

func benchCoupling(b *testing.B, method string) {
	db, ref := couplingModesDB(b)
	benchTxn(b, db, ref, method)
}

// BenchmarkE9CouplingImmediate / Deferred / Dependent / Independent time
// one firing transaction per coupling mode (§4.2).
func BenchmarkE9CouplingImmediate(b *testing.B)   { benchCoupling(b, "Imm") }
func BenchmarkE9CouplingDeferred(b *testing.B)    { benchCoupling(b, "End") }
func BenchmarkE9CouplingDependent(b *testing.B)   { benchCoupling(b, "Dep") }
func BenchmarkE9CouplingIndependent(b *testing.B) { benchCoupling(b, "Indep") }

// TestPaperE11RollbackOnAbort is experiment E11 (§5.5): "Event roll-back
// is handled using standard transaction roll-back of the triggers'
// states." AutoRaiseLimit's pattern armed inside a transaction that
// aborts stays un-armed, so a later PayBill does not fire it. The abort
// and commit costs are printed beside it.
func TestPaperE11RollbackOnAbort(t *testing.T) {
	db := newTestDB(t)
	ref := newCard(t, db, 1000, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	mustInvoke(t, db, tx, ref, "Buy", 900.0)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := payBill(t, db, ref, 10); err != nil {
		t.Fatal(err)
	}
	if limit := card(t, db, ref).CredLim; limit != 1000 {
		t.Errorf("pattern armed in an aborted transaction fired: limit %v, want 1000", limit)
	}

	const n = 1000
	run := func(end func(*txn.Txn) error) float64 {
		return perOp(n, func() {
			tx := db.Begin()
			mustInvoke(t, db, tx, ref, "GoodCredHist")
			if err := end(tx); err != nil {
				t.Fatal(err)
			}
		})
	}
	commitNs, abortNs := run((*txn.Txn).Commit), run((*txn.Txn).Abort)
	t.Logf("commit %.0f ns/txn, abort %.0f ns/txn (%.2fx)", commitNs, abortNs, abortNs/commitNs)
}

// BenchmarkE11Abort measures transaction rollback: write-set discard plus
// trigger-state rollback (§5.5).
func BenchmarkE11Abort(b *testing.B) {
	db := newTestDB(b)
	ref := newCard(b, db, 1e15, true)
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "AutoRaiseLimit", 500.0); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		mustInvoke(b, db, tx, ref, "Buy", 1.0)
		if err := tx.Abort(); err != nil {
			b.Fatal(err)
		}
	}
}

// maskChainDB registers a class whose perpetual trigger T chains k
// always-true masks ("after Poke & m0 & … & m(k-1)") and returns one
// object with T active.
func maskChainDB(t testing.TB, k int) (*Database, Ref) {
	t.Helper()
	opts := []Option{
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke"),
	}
	expr := "after Poke"
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("m%d", i)
		opts = append(opts, Mask(name, func(ctx *Ctx, self any, act *Activation) (bool, error) { return true, nil }))
		expr += " & " + name
	}
	opts = append(opts, Trigger("T", expr, func(ctx *Ctx, self any, act *Activation) error { return nil }, Perpetual()))
	db := newTestDB(t, MustClass("Masked", opts...))
	tx := db.Begin()
	ref, err := db.Create(tx, "Masked", &CredCard{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "T"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref
}

// TestPaperE12MaskCascade is experiment E12 (§5.1.2, §5.4.5):
// "Potentially, multiple mask events must be posted before the system
// quiesces." With k chained masks, every posting cascades through all k
// mask states before quiescing: exactly k masks per posting for k = 1…16.
func TestPaperE12MaskCascade(t *testing.T) {
	const n = 2500
	t.Logf("%-6s %10s %14s", "masks", "ns/Invoke", "masks/posting")
	for _, k := range []int{1, 2, 4, 8, 16} {
		db, ref := maskChainDB(t, k)
		tx := db.Begin()
		posted, masks := metric(t, db, "core.events_posted"), metric(t, db, "core.masks_evaluated")
		ns := perOp(n, func() { mustInvoke(t, db, tx, ref, "Poke") })
		posted, masks = metric(t, db, "core.events_posted")-posted, metric(t, db, "core.masks_evaluated")-masks
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%-6d %10.0f %14.2f", k, ns, float64(masks)/float64(posted))
		if posted != n || masks != uint64(k*n) {
			t.Errorf("%d chained masks: %d masks over %d postings, want %d over %d", k, masks, posted, k*n, n)
		}
	}
}

// BenchmarkE12MaskChain8 posts through a trigger whose expression chains
// eight masks; all eight evaluate per posting (§5.4.5).
func BenchmarkE12MaskChain8(b *testing.B) {
	db, ref := maskChainDB(b, 8)
	benchInvoke(b, db, ref, "Poke")
}

// TestPaperE14GlobalVsLocal is experiment E14 (§7): Ode stores
// TriggerStates in the database, so a composite event armed by one
// application completes in another; Sentinel keeps its detector in
// transient program memory — an int32 advanced by the same compiled
// machine — so a restarted application starts over and cannot complete
// it. The price of globality (persistent versus transient posting) is
// printed beside the verdict.
func TestPaperE14GlobalVsLocal(t *testing.T) {
	limit := crossProcessLimit(t)
	t.Logf("Ode: pattern armed in process 1 fired in process 2: %v (limit %v)", limit == 1500, limit)
	if limit != 1500 {
		t.Errorf("persistent trigger state did not carry the armed pattern across processes: limit %v, want 1500", limit)
	}

	db := newTestDB(t)
	bc, _ := db.ClassOf("CredCard")
	arl, _ := bc.TriggerByName("AutoRaiseLimit")
	m := arl.Machine
	buyID, _ := bc.EventID("after Buy")
	payID, _ := bc.EventID("after PayBill")
	always := func(string) (bool, error) { return true, nil }
	if armed, _, err := m.Advance(m.Start, buyID, always); err != nil || armed == m.Start {
		t.Fatalf("transient detector did not arm on Buy: state %d, %v", armed, err)
	}
	// The restarted application's detector begins again at Start.
	_, fired, err := m.Advance(m.Start, payID, always)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("transient detector fired across restart: %v", fired)
	if fired {
		t.Error("a transient detector completed a pattern armed before the restart")
	}

	ref := activeCard(t, db, "DenyCredit")
	tx := db.Begin()
	persistentNs := perOp(1000, func() { mustInvoke(t, db, tx, ref, "Buy", 1.0) })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	deny, _ := bc.TriggerByName("DenyCredit")
	st := deny.Machine.Start
	transientNs := perOp(10_000, func() { st, _, _ = deny.Machine.Advance(st, buyID, always) })
	t.Logf("persistent posting %.0f ns vs transient %.0f ns (%.0fx, the price of global events)",
		persistentNs, transientNs, persistentNs/transientNs)
}

// BenchmarkE14PersistentPosting posts through the full engine: index
// lookup, persistent TriggerState advance, write lock — the price of
// global composite events (§7).
func BenchmarkE14PersistentPosting(b *testing.B) {
	db := newTestDB(b)
	benchInvoke(b, db, activeCard(b, db, "DenyCredit"), "Buy", 1.0)
}

// BenchmarkE14TransientPosting drives the AutoRaiseLimit machine the way
// a Sentinel-style detector does: the state is a local int32, reset to
// Start after each detection, and nothing is persisted.
func BenchmarkE14TransientPosting(b *testing.B) {
	db := newTestDB(b)
	bc, _ := db.ClassOf("CredCard")
	arl, _ := bc.TriggerByName("AutoRaiseLimit")
	m := arl.Machine
	buyID, _ := bc.EventID("after Buy")
	payID, _ := bc.EventID("after PayBill")
	evs := [2]event.ID{buyID, payID}
	always := func(string) (bool, error) { return true, nil }
	st := m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, accepted, err := m.Advance(st, evs[i&1], always)
		if err != nil {
			b.Fatal(err)
		}
		if accepted {
			next = m.Start
		}
		st = next
	}
}

// auditedDB registers a class whose perpetual triggers count the
// transaction events that follow a Touch: C fires on before tcomplete
// (immediate), A on before tabort (!dependent, so it survives the
// abort). Both need a Touch first, so a system transaction that merely
// runs a detached action does not count.
func auditedDB(t testing.TB) (db *Database, ref Ref, completes, aborts *int) {
	t.Helper()
	completes, aborts = new(int), new(int)
	db = newTestDB(t, MustClass("Audited",
		Factory(func() any { return new(CredCard) }),
		Method("Touch", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Touch", "before tcomplete", "before tabort"),
		Trigger("C", "after Touch, *any, before tcomplete",
			func(ctx *Ctx, self any, act *Activation) error { *completes++; return nil },
			Perpetual()),
		Trigger("A", "after Touch, *any, before tabort",
			func(ctx *Ctx, self any, act *Activation) error { *aborts++; return nil },
			Perpetual(), WithCoupling(Independent)),
	))
	tx := db.Begin()
	ref, err := db.Create(tx, "Audited", &CredCard{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C", "A"} {
		if _, err := db.Activate(tx, ref, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ref, completes, aborts
}

// TestPaperE15TransactionEvents is experiment E15 (§5.5, §6): before
// tcomplete posts once per interested object per committing transaction,
// before tabort only on an explicit abort, and after tabort / after
// tcommit were dropped from the design, so declaring them is rejected.
func TestPaperE15TransactionEvents(t *testing.T) {
	db, ref, completes, aborts := auditedDB(t)

	*completes, *aborts = 0, 0
	tx := db.Begin()
	for i := 0; i < 3; i++ {
		mustInvoke(t, db, tx, ref, "Touch")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t.Logf("3 accesses, 1 commit -> tcomplete posted %d time(s), tabort %d", *completes, *aborts)
	if *completes != 1 || *aborts != 0 {
		t.Errorf("commit posted tcomplete %d and tabort %d times, want 1 and 0", *completes, *aborts)
	}

	*completes, *aborts = 0, 0
	tx = db.Begin()
	mustInvoke(t, db, tx, ref, "Touch")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	t.Logf("explicit abort -> tabort posted %d time(s), tcomplete %d", *aborts, *completes)
	if *aborts != 1 || *completes != 0 {
		t.Errorf("abort posted tabort %d and tcomplete %d times, want 1 and 0", *aborts, *completes)
	}

	for _, dropped := range []string{"after tabort", "after tcommit"} {
		if _, err := NewClass("Bad", Factory(func() any { return new(CredCard) }), Events(dropped)); err == nil {
			t.Errorf("declaring %q was accepted; §6 dropped it from the design", dropped)
		}
	}
}

// BenchmarkE15TxnEventCommit measures a commit that posts before
// tcomplete to one interested object (§5.5).
func BenchmarkE15TxnEventCommit(b *testing.B) {
	db, ref, _, _ := auditedDB(b)
	benchTxn(b, db, ref, "Touch")
}
