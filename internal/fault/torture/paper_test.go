package torture

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/fault"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

const e17Committers = 8

// e17Commit drives e17Committers goroutines over disjoint OIDs and
// returns acknowledged commits/s plus the acknowledged count. When
// lastAcked is non-nil, slot w records the highest iteration committer w
// saw acknowledged as durable — what recovery must reproduce for its
// object.
func e17Commit(t *testing.T, m storage.Manager, perOps int, lastAcked *[e17Committers]int64) (float64, int64) {
	oids := make([]storage.OID, e17Committers)
	for i := range oids {
		oid, err := m.ReserveOID()
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	var txnSeq atomic.Uint64
	var total atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for w := 0; w < e17Committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			for i := 1; i <= perOps; i++ {
				data := []byte(fmt.Sprintf("w%d-i%d", w, i))
				if err := m.ApplyCommit(txnSeq.Add(1), []storage.Op{{Kind: storage.OpWrite, OID: oids[w], Data: data}}); err != nil {
					continue // injected failure: not acknowledged
				}
				total.Add(1)
				if lastAcked != nil {
					atomic.StoreInt64(&lastAcked[w], int64(i))
				}
			}
		}(w)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds(), total.Load()
}

// e17Recovered reopens the crashed store without faults and checks that
// each committer's object holds exactly its last acknowledged write.
func e17Recovered(path string, lastAcked [e17Committers]int64) error {
	m, err := eos.Open(path, eos.Options{NoAutoCheckpoint: true})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer m.Close()
	for w, last := range lastAcked {
		oid := storage.OID(w + 1) // ReserveOID hands out 1..committers on a fresh store
		got, err := m.Read(oid)
		if last == 0 {
			if err == nil {
				return fmt.Errorf("committer %d: never acknowledged, but recovered %q", w, got)
			}
			continue
		}
		if want := fmt.Sprintf("w%d-i%d", w, last); err != nil || string(got) != want {
			return fmt.Errorf("committer %d: recovered %q (%v), want %q", w, got, err, want)
		}
	}
	return nil
}

// faultyStore opens an eos store whose WAL file fails as s dictates.
func faultyStore(t *testing.T, path string, s *fault.Schedule) *eos.Manager {
	m, err := eos.Open(path, eos.Options{
		NoAutoCheckpoint: true,
		WALFile:          func(f wal.File) wal.File { return fault.Wrap(f, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// metric reads one counter from reg.
func metric(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("no metric %s", name)
	}
	return v
}

// TestPaperE17FaultInjection is experiment E17 (§5.6 durability, §5.5
// detached execution). The paper's recovery story — redo logging with
// no-steal buffering — is only credible if the implementation survives
// the failures the log exists for, so fsync fails at seeded 0/1/5% rates
// under the eos WAL while 8 committers run. The store must self-heal
// (truncate to the durable prefix and continue), and a crash and reopen
// must show exactly each committer's last acknowledged write. Then
// dependent trigger actions that increment two shared objects in opposite
// orders (a deadlock factory) run under 5% faults: the engine's retry
// policy must deliver every firing exactly once, with none dropped.
// dali, with no fsync to fail, is the fault-free ceiling.
func TestPaperE17FaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection run skipped in -short mode")
	}
	dir := t.TempDir()
	const perOps = 150
	d := dali.New()
	daliRate, _ := e17Commit(t, d, perOps, nil)
	d.Close()

	t.Logf("%-10s %13s %14s %6s %6s %6s", "fsync fail", "eos commits/s", "dali commits/s", "acked", "failed", "heals")
	for i, rate := range []float64{0, 0.01, 0.05} {
		path := filepath.Join(dir, fmt.Sprintf("e17-%d.eos", i))
		s := fault.NewSchedule()
		m := faultyStore(t, path, s)
		reg := obs.NewRegistry()
		m.RegisterMetrics(reg)
		if rate > 0 {
			s.FailSyncRate(rate, 1717+int64(i))
		}
		var lastAcked [e17Committers]int64
		commitRate, acked := e17Commit(t, m, perOps, &lastAcked)
		t.Logf("%-10s %13.0f %14.0f %6d %6d %6d", fmt.Sprintf("%.0f%%", rate*100), commitRate, daliRate,
			acked, e17Committers*perOps-int(acked), metric(t, reg, "storage.wal_heals"))
		if acked == 0 {
			t.Errorf("%.0f%% fsync faults: no commit was acknowledged; the WAL did not heal", rate*100)
		}
		// Crash (abandon m without Close) and reopen, faults gone: exactly
		// the acknowledged prefix must be visible.
		if err := e17Recovered(path, lastAcked); err != nil {
			t.Errorf("%.0f%% fsync faults: %v", rate*100, err)
		}
	}

	// Detached self-healing under 5% fsync faults plus colliding lock
	// orders.
	var pokeRefs, shared [2]core.Ref
	s := fault.NewSchedule()
	db, err := core.NewDatabase(faultyStore(t, filepath.Join(dir, "e17-detached.eos"), s))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.Register(core.MustClass("Pair",
		core.Factory(func() any { return new(TAcct) }),
		core.Method("Poke", func(ctx *core.Ctx, self any, args []any) (any, error) { return nil, nil }),
		core.Method("Incr", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*TAcct).Count++
			return nil, nil
		}),
		core.Events("after Poke"),
		core.Trigger("Mirror", "after Poke",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				first, second := shared[0], shared[1]
				if ctx.Self() == pokeRefs[1] {
					first, second = second, first
				}
				if _, err := ctx.Invoke(first, "Incr"); err != nil {
					return err
				}
				// Hold the first exclusive lock long enough for the
				// opposite-order sibling to take its own: a deadlock
				// whenever the two firings overlap.
				time.Sleep(100 * time.Microsecond)
				_, err := ctx.Invoke(second, "Incr")
				return err
			},
			core.WithCoupling(core.Dependent), core.Perpetual()),
	))
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := range pokeRefs {
		if pokeRefs[i], err = db.Create(tx, "Pair", &TAcct{}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Activate(tx, pokeRefs[i], "Mirror"); err != nil {
			t.Fatal(err)
		}
		if shared[i], err = db.Create(tx, "Pair", &TAcct{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.FailSyncRate(0.05, 4242)

	var committed atomic.Int64
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for _, ref := range pokeRefs {
			wg.Add(1)
			go func(ref core.Ref) {
				defer wg.Done()
				tx := db.Begin()
				if _, err := db.Invoke(tx, ref, "Poke"); err != nil {
					tx.Abort()
					return
				}
				if tx.Commit() == nil {
					committed.Add(1)
				}
			}(ref)
		}
		wg.Wait()
	}
	reg := db.Observability()
	dropped := metric(t, reg, "core.detached_dropped")
	t.Logf("detached under 5%% faults + lock collisions: %d firings for %d committed pokes, %d retries, %d permanent errors, %d dropped, %d WAL heals",
		metric(t, reg, "core.fired_dependent"), committed.Load(), metric(t, reg, "core.detached_retries"),
		metric(t, reg, "core.action_errors"), dropped, metric(t, reg, "storage.wal_heals"))
	if dropped != 0 {
		t.Errorf("%d detached firings dropped, want 0", dropped)
	}
	// Exactly once: each committed detecting transaction fired one action,
	// and each action incremented both shared objects once.
	rtx := db.Begin()
	defer rtx.Abort()
	for _, ref := range shared {
		v, err := db.Get(rtx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(v.(*TAcct).Count); got != committed.Load() {
			t.Errorf("shared object incremented %d times for %d committed pokes", got, committed.Load())
		}
	}
}
