package experiments

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage/eos"
)

// E22 measures the anti-entropy rejoin: a replica whose resume position
// was checkpoint-truncated away reconciles with coded symbols and ships
// only the divergent objects, so its rejoin cost is O(drift) — while a
// snapshot bootstrap pays O(database) no matter how little changed. The
// measured quantity is downstream bytes on the wire, counted by a
// wrapper on the replica's dial, which is machine-independent: the
// snapshot/rejoin ratio is a count, so its bar lives in the verdict.

// antiEntropyPoint is one measured drift level.
type antiEntropyPoint struct {
	Fraction    float64 // fraction of objects mutated since the replica left
	Objects     int     // objects that fraction works out to
	RejoinBytes int64   // downstream bytes to converge via reconciliation
}

// antiEntropyMeasurement is the E22 data set.
type antiEntropyMeasurement struct {
	Objects       int
	SnapshotBytes int64 // downstream bytes for a fresh snapshot bootstrap
	Points        []antiEntropyPoint
}

// countingDial returns a repl dial hook that counts downstream bytes
// into n.
func countingDial(n *atomic.Int64) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: conn, n: n}, nil
	}
}

type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func e22CopyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // a missing WAL/sidecar is a valid replica state
		}
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// copyReplica clones a replica's on-disk state (pages, log, sidecar).
func copyReplica(src, dst string) error {
	for _, suffix := range []string{"", ".wal", ".replpos"} {
		if err := e22CopyFile(src+suffix, dst+suffix); err != nil {
			return err
		}
	}
	return nil
}

// e22Converge waits until the replica has applied the primary's log.
func e22Converge(rep *repl.Replica, pm *eos.Manager) error {
	deadline := time.Now().Add(30 * time.Second)
	for rep.Status().AppliedLSN < uint64(pm.Log().End()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at %d, primary end %d", rep.Status().AppliedLSN, pm.Log().End())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// e22Session syncs a replica over path against addr through the
// counting dial and returns the downstream bytes it took.
func e22Session(path, addr string, pm *eos.Manager, bytes *atomic.Int64) (int64, error) {
	rm, err := eos.Open(path, eos.Options{})
	if err != nil {
		return 0, err
	}
	rep, err := repl.NewReplica(addr, rm, repl.ReplicaOptions{
		PosPath:     path + ".replpos",
		RedialBase:  5 * time.Millisecond,
		RedialMax:   50 * time.Millisecond,
		ReadTimeout: 5 * time.Second,
		Dial:        countingDial(bytes),
	})
	if err != nil {
		rm.Close()
		return 0, err
	}
	start := bytes.Load()
	rep.Start()
	err = e22Converge(rep, pm)
	rep.Stop()
	total := bytes.Load() - start
	if cerr := rm.Close(); err == nil {
		err = cerr
	}
	return total, err
}

// measureAntiEntropy loads a primary with the given number of objects,
// measures the downstream bytes of a fresh snapshot bootstrap, then for
// each drift fraction (ascending) mutates the primary up to that
// cumulative fraction, truncates its log, and measures the bytes an
// out-of-retained-log replica needs to reconcile back.
func measureAntiEntropy(dir string, objects int, drifts []float64) (*antiEntropyMeasurement, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pm, err := eos.Open(filepath.Join(dir, "p.eos"), eos.Options{NoAutoCheckpoint: true})
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(pm)
	if err != nil {
		pm.Close()
		return nil, err
	}
	defer db.Close()
	if err := db.Register(CredCardClass()); err != nil {
		return nil, err
	}
	hub := repl.NewHub(pm, repl.HubOptions{PingInterval: 50 * time.Millisecond})
	defer hub.Close()
	srv := server.NewWithOptions(db, server.Options{
		StreamOps: map[string]server.StreamHandler{
			repl.OpSubscribe: hub.HandleSubscribe,
			repl.OpRecon:     hub.HandleRecon,
		},
	})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	refs := make([]core.Ref, objects)
	const batch = 256
	for i := 0; i < objects; i += batch {
		tx := db.Begin()
		for j := i; j < i+batch && j < objects; j++ {
			if refs[j], err = db.Create(tx, "CredCard", &CredCard{Holder: "ae", CredLim: 1e12}); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	// Truncate the log so a from-zero subscriber cannot replay history:
	// the bootstrap must ship the snapshot, the rejoins must reconcile.
	if err := pm.Checkpoint(); err != nil {
		return nil, err
	}

	var wire atomic.Int64
	m := &antiEntropyMeasurement{Objects: objects}
	bootPath := filepath.Join(dir, "boot.eos")
	if m.SnapshotBytes, err = e22Session(bootPath, addr, pm, &wire); err != nil {
		return nil, fmt.Errorf("snapshot bootstrap: %w", err)
	}

	mutated := 0
	for i, frac := range drifts {
		target := int(float64(objects)*frac + 0.999)
		if target < 1 {
			target = 1
		}
		for ; mutated < target && mutated < objects; mutated++ {
			tx := db.Begin()
			if _, err := db.Invoke(tx, refs[mutated], "Buy", 1.0); err != nil {
				return nil, err
			}
			if err := tx.Commit(); err != nil {
				return nil, err
			}
		}
		if err := pm.Checkpoint(); err != nil {
			return nil, err
		}
		rp := filepath.Join(dir, fmt.Sprintf("rejoin-%d.eos", i))
		if err := copyReplica(bootPath, rp); err != nil {
			return nil, err
		}
		bytes, err := e22Session(rp, addr, pm, &wire)
		if err != nil {
			return nil, fmt.Errorf("rejoin at %.3f drift: %w", frac, err)
		}
		m.Points = append(m.Points, antiEntropyPoint{Fraction: frac, Objects: mutated, RejoinBytes: bytes})
	}
	return m, nil
}

// E22 reports the rejoin-bytes-proportional-to-drift shape: at small
// drift the reconciliation rejoin must be an order of magnitude cheaper
// than shipping the snapshot, and its cost must grow with drift, not
// with database size.
func (r *Runner) E22() Result {
	res := Result{ID: "E22", Title: "anti-entropy rejoin ships O(drift), not O(database)"}
	r.header("E22", res.Title, "robustness (anti-entropy)",
		"an out-of-retained-log replica reconciles divergent objects via coded symbols; rejoin bytes track drift and undercut a snapshot bootstrap ≥10x at ≤1% drift")

	objects := 4000
	drifts := []float64{0.001, 0.01, 0.1}
	minRatio := 10.0
	if r.Cfg.Quick {
		objects = 400
		drifts = []float64{0.01, 0.1}
		minRatio = 5.0
	}
	dir := r.Cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "ode-e22"); err != nil {
			res.Summary = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
	}
	m, err := measureAntiEntropy(filepath.Join(dir, "e22"), objects, drifts)
	if err != nil {
		res.Summary = err.Error()
		return res
	}

	fmt.Fprintf(r.W, "%d objects, snapshot bootstrap %d bytes downstream\n", m.Objects, m.SnapshotBytes)
	fmt.Fprintf(r.W, "%-8s %-10s %14s %14s %10s\n", "drift", "objects", "rejoin bytes", "snapshot", "snap/rejoin")
	monotone := true
	var prev int64
	lowRatio := 0.0
	for i, p := range m.Points {
		ratio := float64(m.SnapshotBytes) / float64(p.RejoinBytes)
		if i == 0 {
			lowRatio = ratio
		}
		if p.RejoinBytes < prev {
			monotone = false
		}
		prev = p.RejoinBytes
		fmt.Fprintf(r.W, "%-8.3f %-10d %14d %14d %10.1f\n",
			p.Fraction, p.Objects, p.RejoinBytes, m.SnapshotBytes, ratio)
	}
	res.Passed = monotone && lowRatio >= minRatio
	res.Summary = fmt.Sprintf("snapshot/rejoin %.1fx at %.1f%% drift (bar %.0fx), rejoin bytes %s with drift",
		lowRatio, m.Points[0].Fraction*100, minRatio,
		map[bool]string{true: "monotone", false: "NOT monotone"}[monotone])
	return res
}
