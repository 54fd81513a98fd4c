package torture

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ode/internal/core"
	"ode/internal/fault"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/eos"
)

// This file runs the link torture LIVE: where repl.go's ReplSweep
// drives the replica's apply semantics directly over decoded records,
// LinkSweep stands up a real primary (store + database + hub + TCP
// server) and a real Replica dialling through a fault.NetPlan, and
// attacks the actual wire session — cutting the link after every
// downstream frame, flipping a byte inside every frame, and delivering
// frames twice — while the trigger workload commits. After the armed
// fault fires and the link heals (the replica's own redial loop), the
// replica must converge byte-exact with the primary and the trigger
// FSM invariant (Fired == Count, activation intact) must hold: the
// fault may cost time, never state.
//
// Each mode is swept twice: once against the bootstrap/live stream and
// once against the anti-entropy rejoin (the replica's resume position
// is checkpoint-truncated away first, so reconnection goes through the
// coded-symbol reconciliation path instead of the log).

// LinkSweepResult reports what a live link sweep covered.
type LinkSweepResult struct {
	Iterations  int    // fault positions exercised across all modes
	Cuts        uint64 // link cuts that fired
	Corruptions uint64 // in-frame byte flips that fired
	Duplicates  uint64 // frames delivered twice
	Frames      uint64 // downstream frames observed in total
}

// maxLinkFrames caps each mode's sweep; every observed session is far
// shorter, so the cap only guards against a runaway stream.
const maxLinkFrames = 64

// LinkSweep sweeps every frame boundary of the live replication
// session with each fault mode and returns what it covered. Any
// violated invariant aborts with the mode and frame position.
func LinkSweep(dir string, cfg Config) (*LinkSweepResult, error) {
	cfg = cfg.withDefaults()
	res := &LinkSweepResult{}
	modes := []struct {
		name   string
		rejoin bool // arm the plan against the rejoin, not the bootstrap
		arm    func(p *fault.NetPlan, n uint64)
	}{
		{"cut", false, func(p *fault.NetPlan, n uint64) { p.CutAfterFrames(n).DuplicateFrames(0.1) }},
		{"corrupt", false, func(p *fault.NetPlan, n uint64) { p.CorruptFrame(n) }},
		{"cut-rejoin", true, func(p *fault.NetPlan, n uint64) { p.CutAfterFrames(n) }},
		{"corrupt-rejoin", true, func(p *fault.NetPlan, n uint64) { p.CorruptFrame(n) }},
	}
	for _, mode := range modes {
		for n := uint64(1); n <= maxLinkFrames; n++ {
			plan := fault.NewNetPlan(int64(n))
			mode.arm(plan, n)
			iterDir := filepath.Join(dir, fmt.Sprintf("%s-%d", mode.name, n))
			if err := os.MkdirAll(iterDir, 0o755); err != nil {
				return res, err
			}
			err := linkIteration(iterDir, cfg, plan, mode.rejoin)
			os.RemoveAll(iterDir)
			if err != nil {
				return res, fmt.Errorf("torture: %s at frame %d: %w", mode.name, n, err)
			}
			res.Iterations++
			c := plan.Counters()
			res.Duplicates += c.Duplicates
			res.Frames += c.Frames
			res.Cuts += c.Cuts
			res.Corruptions += c.Corruptions
			if !plan.Fired() {
				// The attacked stream had fewer than n frames: every
				// boundary of this mode is covered.
				break
			}
		}
	}
	return res, nil
}

// linkIteration runs one primary+replica session with plan interposed
// on the replica's dials. With rejoin=false the plan attacks the
// initial sync and live stream; with rejoin=true the initial sync runs
// clean, the replica is stopped, the primary drifts and checkpoints
// its log away, and the plan attacks the anti-entropy rejoin.
func linkIteration(dir string, cfg Config, plan *fault.NetPlan, rejoin bool) error {
	pm, err := eos.Open(filepath.Join(dir, "p.eos"), eos.Options{NoAutoCheckpoint: true})
	if err != nil {
		return err
	}
	db, err := core.NewDatabase(pm)
	if err != nil {
		pm.Close()
		return err
	}
	defer db.Close()
	if err := db.Register(tortureClass()); err != nil {
		return err
	}
	hub := repl.NewHub(pm, repl.HubOptions{PingInterval: 20 * time.Millisecond})
	defer hub.Close()
	srv := server.NewWithOptions(db, server.Options{ExtraOps: hub.Ops()})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}

	rp := filepath.Join(dir, "r.eos")
	ropts := repl.ReplicaOptions{
		PosPath:     rp + ".replpos",
		RedialBase:  2 * time.Millisecond,
		RedialMax:   20 * time.Millisecond,
		ReadTimeout: time.Second,
	}
	if !rejoin {
		ropts.Dial = plan.Dialer()
	}
	rm, err := eos.Open(rp, eos.Options{})
	if err != nil {
		return err
	}
	rep, err := repl.NewReplica(addr, rm, ropts)
	if err != nil {
		rm.Close()
		return err
	}
	rep.Start()

	// The workload commits while the (possibly faulted) stream runs.
	refs := make([]core.Ref, cfg.Objects)
	tx := db.Begin()
	for i := range refs {
		if refs[i], err = db.Create(tx, "TAcct", &TAcct{}); err != nil {
			return err
		}
		if err := db.ClusterAdd(tx, clusterName, refs[i]); err != nil {
			return err
		}
		if _, err := db.Activate(tx, refs[i], "Mirror"); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for i := 0; i < cfg.Txns; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, refs[i%cfg.Objects], "Bump"); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	if err := waitConverged(rep, pm); err != nil {
		rep.Stop()
		rm.Close()
		return fmt.Errorf("initial sync: %w", err)
	}
	rep.Stop()

	if rejoin {
		// Drift the primary past the replica and truncate the log, so
		// resume is impossible and reconnection must reconcile — with
		// the plan now attacking those frames.
		for i := 0; i < cfg.Objects; i++ {
			tx := db.Begin()
			if _, err := db.Invoke(tx, refs[i], "Bump"); err != nil {
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		if err := pm.Checkpoint(); err != nil {
			return err
		}
		if pm.Log().Base() == 0 {
			return fmt.Errorf("checkpoint retained the log; rejoin would resume, not reconcile")
		}
		ropts.Dial = plan.Dialer()
		if err := rm.Close(); err != nil {
			return err
		}
		if rm, err = eos.Open(rp, eos.Options{}); err != nil {
			return err
		}
		if rep, err = repl.NewReplica(addr, rm, ropts); err != nil {
			rm.Close()
			return err
		}
		rep.Start()
		if err := waitConverged(rep, pm); err != nil {
			rep.Stop()
			rm.Close()
			return fmt.Errorf("rejoin: %w", err)
		}
		rep.Stop()
	}
	if err := rm.Close(); err != nil {
		return err
	}

	// Byte-exact convergence against the live primary's object state,
	// then the FSM invariant on a fresh reopen of the replica files.
	want := make(map[storage.OID][]byte)
	if err := pm.Iterate(func(oid storage.OID, data []byte) error {
		want[oid] = append([]byte(nil), data...)
		return nil
	}); err != nil {
		return err
	}
	vm, err := eos.Open(rp, eos.Options{})
	if err != nil {
		return fmt.Errorf("reopen replica for verify: %w", err)
	}
	if err := compareStore(vm, want, int64(plan.Counters().Frames)); err != nil {
		vm.Close()
		return err
	}
	return verifyTriggerConsistency(vm, int64(plan.Counters().Frames))
}

// waitConverged waits until the replica has applied the primary's full
// log. The armed faults cost redials, so the deadline is generous.
func waitConverged(rep *repl.Replica, pm *eos.Manager) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if rep.Status().AppliedLSN >= uint64(pm.Log().End()) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at %d, primary log end %d", rep.Status().AppliedLSN, pm.Log().End())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
