package torture

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ode/internal/fault"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage/eos"
)

// primary serves the workload's store to replicas: a repl.Hub over its
// log behind a TCP server.
type primary struct {
	*workload
	hub  *repl.Hub
	srv  *server.Server
	addr string
}

func serve(w *workload, opts repl.HubOptions) (*primary, error) {
	p := &primary{workload: w, hub: repl.NewHub(w.m, opts)}
	p.srv = server.NewWithOptions(w.db, server.Options{ExtraOps: p.hub.Ops()})
	var err error
	if p.addr, err = p.srv.Listen("127.0.0.1:0"); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// close ends the hub's streams before the server waits them out.
func (p *primary) close() {
	p.hub.Close()
	p.srv.Close()
	p.db.Close()
}

// wire is a replica's dial hook. It remembers the connections it opens
// so the harness can take the link down at will, and once down it
// refuses to redial, so a stopped replica stays where it stopped.
type wire struct {
	dial func(addr string, timeout time.Duration) (net.Conn, error)
	once bool // go down after the first connection: a cut is final

	mu    sync.Mutex
	conns []net.Conn
	down  bool
}

func (w *wire) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down {
		return nil, errors.New("torture: link down")
	}
	conn, err := w.dial(addr, timeout)
	if err == nil {
		w.conns = append(w.conns, conn)
		w.down = w.once
	}
	return conn, err
}

func (w *wire) cut() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.down = true
	for _, c := range w.conns {
		c.Close()
	}
}

// follower is a repl.Replica over its own store, following a primary.
type follower struct {
	m    *eos.Manager
	rep  *repl.Replica
	wire *wire
}

// follow starts a replica of the primary at addr over the store at
// path, resuming from its .replpos sidecar, dialling through w.
func follow(addr, path string, w *wire) (*follower, error) {
	if w.dial == nil {
		w.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	m, err := eos.Open(path, eos.Options{})
	if err != nil {
		return nil, err
	}
	rep, err := repl.NewReplica(addr, m, repl.ReplicaOptions{
		PosPath:     path + ".replpos",
		RedialBase:  2 * time.Millisecond,
		RedialMax:   20 * time.Millisecond,
		ReadTimeout: time.Second,
		Dial:        w.Dial,
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	rep.Start()
	return &follower{m: m, rep: rep, wire: w}, nil
}

// wait waits until done holds; the armed faults cost redials, so the
// deadline is generous.
func (f *follower) wait(done func(repl.Status) bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for !done(f.rep.Status()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at %d", f.rep.Status().AppliedLSN)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// stop waits until done holds, takes the link down, stops the replica
// and closes its store. It returns the replica's resume position.
func (f *follower) stop(done func(repl.Status) bool) (applied uint64, err error) {
	err = f.wait(done)
	f.wire.cut()
	f.rep.Stop()
	applied = f.rep.Status().AppliedLSN
	if cerr := f.m.Close(); err == nil {
		err = cerr
	}
	return applied, err
}

// caughtUp reports whether a replica has applied up to end.
func caughtUp(end int64) func(repl.Status) bool {
	return func(st repl.Status) bool { return st.AppliedLSN >= uint64(end) }
}

// verifyReplica checks the stopped replica store at path against the
// replay of the primary's log up to upto.
func verifyReplica(path string, h *history, upto int64) error {
	walBytes, err := os.ReadFile(path + ".wal")
	if err != nil {
		return err
	}
	return check(path, walBytes, h.replay(upto), nil)
}

// addLink counts one verified link position and what its plan did.
func (res *result) addLink(plan *fault.NetPlan) {
	c := plan.Counters()
	res.points++
	res.link.Frames += c.Frames
	res.link.Cuts += c.Cuts
	res.link.Corruptions += c.Corruptions
	res.link.Duplicates += c.Duplicates
}

// sweepRecordCut streams a finished workload's log to a real replica, one
// record per frame, and cuts the link after every frame.
func sweepRecordCut(dir string, cfg config) (*result, error) {
	w, err := openWorkload(filepath.Join(dir, "p.eos"), nil)
	if err != nil {
		return nil, err
	}
	_, commits, err := w.run(cfg)
	if err != nil {
		w.db.Close()
		return nil, err
	}
	// No pings: every frame of the stream carries one record.
	p, err := serve(w, repl.HubOptions{MaxBatchBytes: 1, PingInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer p.close()
	h, _, err := readHistory(w.path)
	if err != nil {
		return nil, err
	}
	res := &result{commits: commits, records: len(h.recs)}
	end := h.end()
	_, err = fault.Enumerate(func(n uint64) (bool, error) {
		rp := filepath.Join(dir, fmt.Sprintf("cut-%d", n), "r.eos")
		if err := os.MkdirAll(filepath.Dir(rp), 0o755); err != nil {
			return false, err
		}
		defer os.RemoveAll(filepath.Dir(rp))
		plan := fault.NewNetPlan(int64(n)).CutAfterFrames(n)
		f, err := follow(p.addr, rp, &wire{dial: plan.Dialer(), once: true})
		if err != nil {
			return false, err
		}
		// Stopped: the cut fired and the replica dropped the link, or the
		// stream ran out of frames before the n-th.
		resume, err := f.stop(func(st repl.Status) bool {
			return plan.Fired() && !st.Connected || caughtUp(end)(st)
		})
		if err == nil {
			err = verifyReplica(rp, h, int64(resume))
		}
		if err != nil {
			return false, fmt.Errorf("cut at resume %d: %w", resume, err)
		}
		// Restart from the sidecar: the replica converges to the full log.
		if f, err = follow(p.addr, rp, &wire{}); err != nil {
			return false, err
		}
		if _, err = f.stop(caughtUp(end)); err == nil {
			err = verifyReplica(rp, h, end)
		}
		if err != nil {
			return false, fmt.Errorf("restart from %d: %w", resume, err)
		}
		res.addLink(plan)
		return plan.Fired(), nil
	})
	return res, err
}

// sweepLink runs the workload live against a replica whose stream — or,
// for a rejoin row, whose anti-entropy rejoin — has the row's fault
// armed at every frame position.
func sweepLink(dir string, r row) (*result, error) {
	res := &result{}
	_, err := fault.Enumerate(func(n uint64) (bool, error) {
		plan := fault.NewNetPlan(int64(n))
		if r.attack == linkCorrupt {
			plan.CorruptFrame(n)
		} else {
			plan.CutAfterFrames(n).DuplicateFrames(0.1)
		}
		sub := filepath.Join(dir, fmt.Sprintf("%s-%d", r.name, n))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return false, err
		}
		defer os.RemoveAll(sub)
		commits, err := linkOnce(sub, r, plan)
		if err != nil {
			return false, err
		}
		res.commits = commits
		res.addLink(plan)
		return plan.Fired(), nil
	})
	return res, err
}

// linkOnce runs one primary+replica session with plan on the replica's
// dials; the hub frames the stream with its default batching, the shape
// production traffic has. A bootstrap row attacks the first sync. For a
// rejoin row the first sync runs clean; then the replica stops, the
// primary drifts and checkpoints its log away, and the plan attacks the
// reconnect, which must reconcile instead of resume. Either way the
// stopped replica must equal the replay of the primary's full log.
func linkOnce(dir string, r row, plan *fault.NetPlan) (commits int, err error) {
	w, err := openWorkload(filepath.Join(dir, "p.eos"), nil)
	if err != nil {
		return 0, err
	}
	p, err := serve(w, repl.HubOptions{PingInterval: 20 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	defer p.close()
	rp := filepath.Join(dir, "r.eos")
	first := &wire{dial: plan.Dialer()}
	if r.rejoin {
		first = &wire{}
	}
	f, err := follow(p.addr, rp, first)
	if err != nil {
		return 0, err
	}
	if !r.rejoin {
		// A stuck replica stops the pacing and fails the stop below.
		w.pace = func() {
			if f.wait(caughtUp(int64(w.m.Log().End()))) != nil {
				w.pace = nil
			}
		}
	}
	// The workload commits while the stream runs.
	_, commits, err = w.run(r.cfg)
	if err == nil && commits != r.cfg.txns {
		err = fmt.Errorf("fault-free primary acked %d/%d txns", commits, r.cfg.txns)
	}
	if _, serr := f.stop(caughtUp(int64(w.m.Log().End()))); err == nil {
		err = serr
	}
	if err != nil {
		return commits, err
	}
	if r.rejoin {
		w.bump(r.cfg.objects) // drift past the stopped replica
	}
	// The model is read before a checkpoint can discard the log.
	h, _, err := readHistory(w.path)
	if err != nil {
		return commits, err
	}
	if r.rejoin {
		if err := w.m.Checkpoint(); err != nil {
			return commits, err
		}
		if w.m.Log().Base() == 0 {
			return commits, fmt.Errorf("checkpoint retained the log; rejoin would resume, not reconcile")
		}
		if f, err = follow(p.addr, rp, &wire{dial: plan.Dialer()}); err != nil {
			return commits, err
		}
		if _, err := f.stop(caughtUp(int64(w.m.Log().End()))); err != nil {
			return commits, fmt.Errorf("rejoin: %w", err)
		}
	}
	return commits, verifyReplica(rp, h, h.end())
}
