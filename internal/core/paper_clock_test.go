//go:build !race

package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ode/internal/storage/dali"
	"ode/internal/workload"
)

// The trigger-engine claims whose verdict reads a clock. The race
// detector's instrumentation can invert their orderings, so they build
// only without it.

// volatileBuy is CredCard's Buy as a plain Go method on a volatile value.
func volatileBuy(c *CredCard, amount float64) { c.CurrBal += amount }

// TestPaperE4VolatileCallsPayNothing is experiment E4 (design goal 4,
// §5.3): member functions invoked on volatile objects post no events —
// there is no wrapper, so no overhead. A direct call must post nothing
// and be over 10× cheaper than the persistent Invoke, which posts one
// event per call.
func TestPaperE4VolatileCallsPayNothing(t *testing.T) {
	db := newTestDB(t)
	ref := activeCard(t, db)
	volatile := &CredCard{CredLim: 1e15}

	posted := metric(t, db, "core.events_posted")
	volatileNs := perOp(100_000, func() { volatileBuy(volatile, 1) })
	volatilePosted := metric(t, db, "core.events_posted") - posted

	const n = 5000
	tx := db.Begin()
	persistentNs := perOp(n, func() { mustInvoke(t, db, tx, ref, "Buy", 1.0) })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	persistentPosted := metric(t, db, "core.events_posted") - posted - volatilePosted

	t.Logf("volatile direct call: %8.2f ns/op, events posted: %d", volatileNs, volatilePosted)
	t.Logf("persistent Invoke:    %8.2f ns/op, events posted: %d", persistentNs, persistentPosted)
	if volatilePosted != 0 || persistentPosted != n {
		t.Errorf("events posted: volatile %d (want 0), persistent %d (want %d)", volatilePosted, persistentPosted, n)
	}
	if volatileNs*10 >= persistentNs {
		t.Errorf("volatile call %.1f ns is not 10x cheaper than persistent Invoke %.1f ns", volatileNs, persistentNs)
	}
}

// BenchmarkE4VolatileCall is a direct Go method call on a volatile
// object: no wrapper, no events, no trigger machinery (design goal 4).
func BenchmarkE4VolatileCall(b *testing.B) {
	c := &CredCard{CredLim: 1e15}
	for i := 0; i < b.N; i++ {
		volatileBuy(c, 1)
	}
}

// BenchmarkE4PersistentInvoke is the same operation through a persistent
// Ref, paying the wrapper path (§5.3).
func BenchmarkE4PersistentInvoke(b *testing.B) {
	db := newTestDB(b)
	benchInvoke(b, db, activeCard(b, db), "Buy", 1.0)
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

// TestPaperE8ReadsBecomeWrites is experiment E8 (§6): "triggers turn read
// access into write access, increasing both the amount of time the
// transactions spend waiting for locks and the likelihood of deadlock."
// Eight workers run read-only transactions over four shared objects,
// touching two in random order; with the trigger active they must wait
// on locks more and get less done.
func TestPaperE8ReadsBecomeWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent lock-contention run skipped in -short mode")
	}
	const workers, perWorker, cards = 8, 400, 4
	run := func(withTrigger bool) (qps float64, waits, deadlocks uint64) {
		db, refs := queryDB(t, cards, withTrigger)
		waits, deadlocks = metric(t, db, "lock.waits"), metric(t, db, "lock.deadlocks")
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-gate
				rnd := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < perWorker; i++ {
					for {
						// Deadlock victims abort and retry.
						tx := db.Begin()
						a, b := refs[rnd.Intn(cards)], refs[rnd.Intn(cards)]
						_, err1 := db.Invoke(tx, a, "Query")
						_, err2 := db.Invoke(tx, b, "Query")
						if err1 != nil || err2 != nil {
							tx.Abort()
							continue
						}
						if tx.Commit() == nil {
							break
						}
					}
				}
			}(w)
		}
		start := time.Now()
		close(gate)
		wg.Wait()
		return float64(workers*perWorker*2) / time.Since(start).Seconds(),
			metric(t, db, "lock.waits") - waits, metric(t, db, "lock.deadlocks") - deadlocks
	}
	offQps, offWaits, offDead := run(false)
	onQps, onWaits, onDead := run(true)
	t.Logf("%-16s %12s %8s %10s", "configuration", "queries/sec", "waits", "deadlocks")
	t.Logf("%-16s %12.0f %8d %10d", "no triggers", offQps, offWaits, offDead)
	t.Logf("%-16s %12.0f %8d %10d", "active triggers", onQps, onWaits, onDead)
	if onWaits <= offWaits || onQps >= offQps {
		t.Errorf("active triggers did not turn readers into waiting writers: waits %d -> %d, %.0f -> %.0f queries/s",
			offWaits, onWaits, offQps, onQps)
	}
}

// BenchmarkE8ReadOnlyNoTrigger runs read-only transactions with no active
// trigger: shared locks only.
func BenchmarkE8ReadOnlyNoTrigger(b *testing.B) {
	db, refs := queryDB(b, 1, false)
	benchTxn(b, db, refs[0], "Query")
}

// BenchmarkE8ReadOnlyWithTrigger runs the same transactions with
// QueryPattern active: every posting writes the trigger state (§6).
func BenchmarkE8ReadOnlyWithTrigger(b *testing.B) {
	db, refs := queryDB(b, 1, true)
	benchTxn(b, db, refs[0], "Query")
}

// TestPaperE10DaliVsEos is experiment E10 (§2, §5.6): the same trigger
// run-time runs over both storage managers — the engine code is
// identical over the storage.Manager seam — and the main-memory manager
// (MM-Ode's Dali) beats the disk manager (EOS, one WAL fsync per commit)
// on the credit-card mix, one transaction per operation, with DenyCredit
// active on every card.
func TestPaperE10DaliVsEos(t *testing.T) {
	ops := workload.CardStream(11, 1000, 16, workload.DefaultCardMix, 0)
	run := func(name string, db *Database) float64 {
		refs := make([]Ref, 16)
		for i := range refs {
			refs[i] = activeCard(t, db, "DenyCredit")
		}
		start := time.Now()
		for _, op := range ops {
			tx := db.Begin()
			var err error
			switch op.Kind {
			case workload.OpBuy:
				_, err = db.Invoke(tx, refs[op.Card], "Buy", op.Amount)
			case workload.OpPay:
				_, err = db.Invoke(tx, refs[op.Card], "PayBill", op.Amount)
			case workload.OpBigBuy:
				err = db.PostUserEvent(tx, refs[op.Card], "BigBuy")
			default:
				_, err = db.Invoke(tx, refs[op.Card], "GoodCredHist")
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		rate := float64(len(ops)) / time.Since(start).Seconds()
		// Page and WAL counters are registered by eos only.
		pages, _ := db.Observability().Value("storage.page_writes")
		logBytes, _ := db.Observability().Value("storage.log_bytes")
		t.Logf("%-5s %8.0f txn/s (page writes %d, WAL %d KB)", name, rate, pages, logBytes/1024)
		return rate
	}
	daliRate := run("dali", newTestDB(t))
	disk := openDiskDB(t, filepath.Join(t.TempDir(), "e10.eos"))
	defer disk.Close()
	eosRate := run("eos", disk)
	if daliRate <= eosRate {
		t.Errorf("dali %.0f txn/s does not beat eos %.0f txn/s", daliRate, eosRate)
	}
}

// BenchmarkE10DaliTxn commits one triggered Buy per iteration on the
// main-memory manager (MM-Ode).
func BenchmarkE10DaliTxn(b *testing.B) {
	db := newTestDB(b)
	benchTxn(b, db, activeCard(b, db, "DenyCredit"), "Buy", 1.0)
}

// BenchmarkE10EosTxn commits the same transaction on the disk manager
// (WAL fsync per commit).
func BenchmarkE10EosTxn(b *testing.B) {
	db := openDiskDB(b, filepath.Join(b.TempDir(), "bench.eos"))
	b.Cleanup(func() { db.Close() })
	benchTxn(b, db, activeCard(b, db, "DenyCredit"), "Buy", 1.0)
}

// registerOnce binds cls to a fresh main-memory database: catalog
// registration plus FSM compilation for every trigger, as one program
// start does.
func registerOnce(t testing.TB, cls *Class) {
	db, err := NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(cls); err != nil {
		t.Fatal(err)
	}
	db.Close()
}

// TestPaperE13CompileEveryRun is experiment E13 (§5.1.3): Ode compiles
// FSMs on every program run instead of persisting them, which avoids a
// central trigger database and is viable only if compilation is cheap.
// Binding a class with 32 composite triggers must take well under 50 ms
// of program start-up.
func TestPaperE13CompileEveryRun(t *testing.T) {
	card := newCredCardClass()
	cardUs := perOp(500, func() { registerOnce(t, card) }) / 1000
	opts := []Option{
		Factory(func() any { return new(CredCard) }),
		Method("Poke", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Poke", "U0", "U1", "U2"),
	}
	for i := 0; i < 32; i++ {
		opts = append(opts, Trigger(fmt.Sprintf("T%d", i), "relative((after Poke || U0), U1, *U2, after Poke)",
			func(ctx *Ctx, self any, act *Activation) error { return nil }))
	}
	wide := MustClass("Wide32", opts...)
	wideUs := perOp(126, func() { registerOnce(t, wide) }) / 1000
	t.Logf("CredCard (catalog + 2 triggers): %8.1f µs", cardUs)
	t.Logf("class with 32 composite triggers: %7.1f µs", wideUs)
	if wideUs >= 50_000 {
		t.Errorf("binding a 32-trigger class took %.0f µs, want < 50 ms", wideUs)
	}
}

// BenchmarkE13RegisterClass binds the full CredCard class: catalog
// registration plus FSM compilation for both triggers (§5.1.3).
func BenchmarkE13RegisterClass(b *testing.B) {
	card := newCredCardClass()
	for i := 0; i < b.N; i++ {
		registerOnce(b, card)
	}
}
