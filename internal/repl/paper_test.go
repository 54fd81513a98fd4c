package repl

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/storage/eos"
)

// drive runs work on n goroutines released together through one gate and
// returns the wall time until the last finished, or the first error.
func drive(n int, work func(w int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	gate := make(chan struct{})
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			if err := work(w); err != nil {
				errs <- err
			}
		}(w)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return elapsed, nil
}

// createAccts commits n accounts with the given balance in one
// transaction.
func createAccts(t testing.TB, db *core.Database, n int, bal float64) []core.Ref {
	t.Helper()
	refs := make([]core.Ref, n)
	tx := db.Begin()
	for i := range refs {
		var err error
		if refs[i], err = db.Create(tx, "Acct", &Acct{Bal: bal}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestPaperE19Replication is experiment E19 (§5.6 logging, §7
// multi-application sharing): the WAL that makes recovery work makes
// log-shipping replication work. With 1, 4 and 16 committers driving the
// primary while a replica streams live over TCP, the replica must drain
// to zero lag and match the primary byte for byte — trigger state
// included, which is what makes promotion-time FSM resume sound. Then the
// same 8 readers spread over 1 → 3 serving nodes; their throughput is
// printed, not judged, because a ratio on one shared host is not a count.
func TestPaperE19Replication(t *testing.T) {
	if testing.Short() {
		t.Skip("replication run skipped in -short mode")
	}
	var fired atomic.Uint64
	cls := seqClass(&fired)

	t.Logf("%-10s %10s %11s %9s", "committers", "commits/s", "peak lag B", "drain ms")
	lagRow := func(committers int) {
		dir := t.TempDir()
		p := startPrimary(t, filepath.Join(dir, "p.eos"), cls)
		defer p.shutdown()
		refs := createAccts(t, p.db, committers, 0)
		rep, rstore := startReplica(t, dir, "r.eos", p.addr)
		defer rstore.Close()
		defer rep.Stop()
		if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}

		// Sample lag against the primary's durable end, not the replica's
		// last-heard end: the replica's own view is stale between frames,
		// which is exactly the window a lag measurement wants to see.
		var peak atomic.Uint64
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					end, applied := uint64(p.store.Log().End()), rep.Status().AppliedLSN
					if end > applied && end-applied > peak.Load() {
						peak.Store(end - applied)
					}
				}
			}
		}()
		per := 100 / committers
		elapsed, err := drive(committers, func(w int) error {
			for i := 0; i < per; i++ {
				tx := p.db.Begin()
				if _, err := p.db.Invoke(tx, refs[w], "Buy", 1.0); err != nil {
					tx.Abort()
					return err
				}
				if err := tx.Commit(); err != nil {
					return err
				}
			}
			return nil
		})
		close(stop)
		<-sampled
		if err != nil {
			t.Fatal(err)
		}

		// Drain through the primary's durable end (LagBytes alone can read
		// 0 against a stale end between frames), then compare.
		pEnd := uint64(p.store.Log().End())
		drainStart := time.Now()
		waitFor(t, "replica to drain", func() bool {
			st := rep.Status()
			return st.AppliedLSN >= pEnd && st.LagBytes == 0
		})
		drain := time.Since(drainStart)
		sameStoreBytes(t, fmt.Sprintf("%d committers", committers), p.store, rstore)
		t.Logf("%-10d %10.0f %11d %9.1f", committers, float64(per*committers)/elapsed.Seconds(),
			peak.Load(), float64(drain.Microseconds())/1000)
	}
	for _, committers := range []int{1, 4, 16} {
		lagRow(committers)
	}

	// Read scale-out: primary plus two caught-up replicas, each serving
	// reads from its own store, cache and lock manager.
	dir := t.TempDir()
	p := startPrimary(t, filepath.Join(dir, "p.eos"), cls)
	defer p.shutdown()
	const accts = 16
	refs := createAccts(t, p.db, accts, 1000)
	nodes := []*core.Database{p.db}
	for i := 0; i < 2; i++ {
		rep, rstore := startReplica(t, dir, fmt.Sprintf("r%d.eos", i), p.addr)
		if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		rdb, err := core.NewDatabase(rstore)
		if err != nil {
			t.Fatal(err)
		}
		defer rdb.Close()
		defer rep.Stop()
		if err := rdb.Register(cls); err != nil {
			t.Fatal(err)
		}
		rep.AttachDatabase(rdb)
		nodes = append(nodes, rdb)
	}
	rt := nodes[2].Begin()
	v, err := nodes[2].Get(rt, refs[0])
	rt.Abort()
	if err != nil || v.(*Acct).Bal != 1000 {
		t.Fatalf("replica read %v (%v), want the primary's committed balance 1000", v, err)
	}
	const readers, perReader = 8, 200
	t.Logf("%-8s %5s %9s %7s", "replicas", "nodes", "reads/s", "speedup")
	var base float64
	for replicas := 0; replicas <= 2; replicas++ {
		serving := nodes[:replicas+1]
		elapsed, err := drive(readers, func(j int) error {
			db := serving[j%len(serving)]
			for i := 0; i < perReader; i++ {
				tx := db.Begin()
				_, err := db.Get(tx, refs[(j+i)%accts])
				tx.Abort()
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rate := float64(readers*perReader) / elapsed.Seconds()
		if replicas == 0 {
			base = rate
		}
		t.Logf("%-8d %5d %9.0f %7.2f", replicas, replicas+1, rate, rate/base)
	}
}

// BenchmarkE19Replication measures replicated commit cost over real TCP:
// each iteration is one committed Buy on the primary, and the loop ends
// with a drain to the primary's durable log end, so ns/op amortizes
// shipping and replica apply on top of the local commit.
func BenchmarkE19Replication(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			dir := b.TempDir()
			var fired atomic.Uint64
			p := startPrimary(b, filepath.Join(dir, "p.eos"), seqClass(&fired))
			b.Cleanup(p.shutdown)
			reps := make([]*Replica, replicas)
			for i := range reps {
				rep, rstore := startReplica(b, dir, fmt.Sprintf("r%d.eos", i), p.addr)
				b.Cleanup(func() { rstore.Close() })
				b.Cleanup(rep.Stop)
				if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
					b.Fatal(err)
				}
				reps[i] = rep
			}
			ref := createAccts(b, p.db, 1, 0)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitOp(b, p.db, ref, "Buy", 1)
			}
			pEnd := uint64(p.store.Log().End())
			for _, rep := range reps {
				waitFor(b, "replica drain", func() bool { return rep.Status().AppliedLSN >= pEnd })
			}
		})
	}
}

// countConn counts the bytes read through it into n.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestPaperE22AntiEntropyRejoin is experiment E22 (robustness,
// anti-entropy): a replica whose resume position was checkpoint-truncated
// away reconciles with coded symbols and ships only the divergent
// objects, so its rejoin costs O(drift) downstream bytes, while a
// snapshot bootstrap pays O(database) however little changed. Over 4 000
// objects and cumulative drift of 0.1%, 1% and 10%, rejoin bytes must
// grow with drift and undercut the snapshot ≥ 10× at 0.1%. Bytes are
// counted at the replica's dial, so the verdict is a count.
func TestPaperE22AntiEntropyRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("anti-entropy run skipped in -short mode")
	}
	dir := t.TempDir()
	var fired atomic.Uint64
	p := startPrimary(t, filepath.Join(dir, "p.eos"), seqClass(&fired))
	defer p.shutdown()
	const objects = 4000
	var refs []core.Ref
	for len(refs) < objects {
		refs = append(refs, createAccts(t, p.db, min(256, objects-len(refs)), 0)...)
	}
	// Truncate the log so a from-zero subscriber cannot replay history:
	// the bootstrap must ship the snapshot, the rejoins must reconcile.
	if err := p.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// session syncs a replica over path and returns the downstream bytes
	// it took to reach the primary's log end.
	var wire atomic.Int64
	session := func(path string) int64 {
		rm, err := eos.Open(path, eos.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplica(p.addr, rm, ReplicaOptions{
			PosPath:     path + ".replpos",
			RedialBase:  5 * time.Millisecond,
			RedialMax:   50 * time.Millisecond,
			ReadTimeout: 5 * time.Second,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return &countConn{Conn: conn, n: &wire}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		start := wire.Load()
		rep.Start()
		waitFor(t, "replica to reach the primary's log end", func() bool {
			return rep.Status().AppliedLSN >= uint64(p.store.Log().End())
		})
		rep.Stop()
		if err := rm.Close(); err != nil {
			t.Fatal(err)
		}
		return wire.Load() - start
	}
	bootPath := filepath.Join(dir, "boot.eos")
	snapshot := session(bootPath)

	t.Logf("%d objects, snapshot bootstrap %d bytes downstream", objects, snapshot)
	t.Logf("%-6s %-8s %12s %11s", "drift", "objects", "rejoin bytes", "snap/rejoin")
	mutated := 0
	var prev int64
	for i, frac := range []float64{0.001, 0.01, 0.1} {
		for ; mutated < int(objects*frac+0.999); mutated++ {
			commitOp(t, p.db, refs[mutated], "Buy", 1)
		}
		if err := p.store.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Each rejoin starts from a copy of the bootstrapped replica's
		// files, so its resume position is out of the retained log.
		rp := filepath.Join(dir, fmt.Sprintf("rejoin-%d.eos", i))
		for _, suffix := range []string{"", ".wal", ".replpos"} {
			data, err := os.ReadFile(bootPath + suffix)
			if err == nil {
				err = os.WriteFile(rp+suffix, data, 0o644)
			}
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
		rejoin := session(rp)
		ratio := float64(snapshot) / float64(rejoin)
		t.Logf("%-6.3f %-8d %12d %11.1f", frac, mutated, rejoin, ratio)
		if rejoin < prev {
			t.Errorf("%.1f%% drift: rejoin %d bytes is below the smaller drift's %d", frac*100, rejoin, prev)
		}
		prev = rejoin
		if i == 0 && ratio < 10 {
			t.Errorf("%.1f%% drift: snapshot/rejoin %.1fx, want ≥ 10x", frac*100, ratio)
		}
	}
}
