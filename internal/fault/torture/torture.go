// Package torture is the fault harness: one table of rows, one run,
// one result. Every row drives the same trigger workload — TAcct
// objects in one cluster, each with the perpetual immediate trigger
// Mirror active, then Bump transactions round-robin over them — attacks
// it one way, and holds every store the attack leaves behind to the
// same two invariants:
//
//  1. The store equals the replay model: the committed transactions of
//     a prefix of the primary's log, applied at their commit records in
//     commit order, byte for byte. No torn transaction is visible and no
//     committed one is lost.
//  2. Trigger state is never ahead of committed object state: Mirror's
//     action bumps Fired in the transaction whose Bump moved Count, so
//     every surviving object has Fired == Count, and its one perpetual
//     Mirror activation is intact.
//
// The rows:
//
//   - truncate: the log is cut at every record boundary and inside
//     every record (its first byte and its midpoint); each cut must
//     recover to the replay of that prefix.
//   - fsync-fail: fsync fails at a seeded rate; the store must heal and
//     keep committing, and after a crash every member must hold exactly
//     its acknowledged bumps.
//   - crash: the process dies at the n-th fsync, for every fsync of the
//     workload; the files left behind must recover to the replay of the
//     log they hold.
//   - record-cut: a real repl.Replica streams the primary's log from a
//     real hub, one record per frame, and the link is cut after every
//     frame. The stopped replica must equal the replay up to its resume
//     position, and a replica restarted from its .replpos sidecar must
//     converge to the full log's replay.
//   - link-cut, link-corrupt and their -rejoin twins: the live stream
//     (or, for -rejoin, the anti-entropy rejoin after the primary
//     checkpointed the replica's position away), framed by the hub's
//     default batching, is cut, or has a byte flipped, at every frame
//     while the workload commits; the replica must converge to the full
//     log's replay.
//
// The crash, record-cut and link rows enumerate their fault positions
// with fault.Enumerate.
//
// Primary stores run with checkpointing off and a cache large enough
// that no page is ever evicted, so the page file stays header-only,
// every log truncation point is a reachable crash state, and LSNs are
// byte offsets into the log file.
package torture

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"ode/internal/core"
	"ode/internal/fault"
	"ode/internal/storage"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// config sizes the trigger workload.
type config struct {
	objects int // TAcct objects in the cluster
	txns    int // Bump transactions, round-robin over the objects
}

// attack is how a row attacks the workload; the package comment
// describes each.
type attack int

const (
	truncate attack = iota
	syncFail
	crash
	recordCut
	linkCut
	linkCorrupt
)

// row is one configuration of the harness.
type row struct {
	name   string
	attack attack
	cfg    config
	rejoin bool // link rows: attack the anti-entropy rejoin, not the bootstrap stream
}

// table is every row the harness runs.
var table = []row{
	{"truncate", truncate, config{objects: 3, txns: 24}, false},
	{"fsync-fail", syncFail, config{objects: 4, txns: 80}, false},
	{"crash", crash, config{objects: 2, txns: 12}, false},
	{"record-cut", recordCut, config{objects: 3, txns: 20}, false},
	{"link-cut", linkCut, config{objects: 3, txns: 10}, false},
	{"link-corrupt", linkCorrupt, config{objects: 3, txns: 10}, false},
	{"link-cut-rejoin", linkCut, config{objects: 3, txns: 10}, true},
	{"link-corrupt-rejoin", linkCorrupt, config{objects: 3, txns: 10}, true},
}

// result reports what one row covered.
type result struct {
	commits   int    // workload transactions acknowledged
	failed    int    // workload transactions that saw an injected fault
	records   int    // records in the attacked log
	points    int    // fault positions verified
	midRecord int    // truncate: points inside a record
	syncs     uint64 // crash: fsyncs of a run that did not crash
	heals     uint64 // fsync-fail: WAL heals of the faulted store
	link      fault.NetCounters
}

// run runs one row in dir and reports its coverage. Any violated
// invariant ends the row with an error naming the fault position.
func run(dir string, r row) (*result, error) {
	switch r.attack {
	case truncate:
		return sweepTruncate(dir, r.cfg)
	case syncFail:
		return sweepSyncFail(dir, r.cfg)
	case crash:
		return sweepCrash(dir, r.cfg)
	case recordCut:
		return sweepRecordCut(dir, r.cfg)
	case linkCut, linkCorrupt:
		return sweepLink(dir, r)
	}
	return nil, fmt.Errorf("torture: row %q has no attack %d", r.name, r.attack)
}

const (
	clusterName = "torture"
	// cachePages is large enough that the workload never evicts a page:
	// eviction would flush post-crash-point data into the page file and
	// make log truncation an unreachable crash state.
	cachePages = 4096
	// syncFailRate and syncFailSeed drive the fsync-fail row.
	syncFailRate = 0.2
	syncFailSeed = 7
)

// TAcct is the workload object. Count moves in the method body, Fired
// in the immediate trigger's action — always in the same transaction,
// so committed state must have them equal at every recovery point.
type TAcct struct {
	Count int
	Fired int
}

func tortureClass() *core.Class {
	return core.MustClass("TAcct",
		core.Factory(func() any { return new(TAcct) }),
		core.Method("Bump", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*TAcct).Count++
			return nil, nil
		}),
		core.Method("MarkFired", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*TAcct).Fired++
			return nil, nil
		}),
		core.Events("after Bump"),
		core.Trigger("Mirror", "after Bump",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "MarkFired")
				return err
			},
			core.Perpetual()),
	)
}

// workload is the trigger workload over one primary store.
type workload struct {
	path string
	m    *eos.Manager
	db   *core.Database
	refs []core.Ref
	// pace, when set, runs after every workload transaction: the
	// bootstrap link rows wait there for the replica, so the stream has
	// a frame per transaction however loaded the machine is.
	pace func()
}

// openWorkload opens the primary store at path, its log file beneath
// sched when non-nil, and registers TAcct.
func openWorkload(path string, sched *fault.Schedule) (*workload, error) {
	opts := eos.Options{CacheSize: cachePages, NoAutoCheckpoint: true}
	if sched != nil {
		opts.WALFile = func(f wal.File) wal.File { return fault.Wrap(f, sched) }
	}
	m, err := eos.Open(path, opts)
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	if err := db.Register(tortureClass()); err != nil {
		db.Close()
		return nil, err
	}
	return &workload{path: path, m: m, db: db}, nil
}

// setup creates the cluster — n TAcct objects, each with Mirror
// active — in one transaction.
func (w *workload) setup(n int) error {
	w.refs = make([]core.Ref, n)
	tx := w.db.Begin()
	defer tx.Abort()
	for i := range w.refs {
		var err error
		if w.refs[i], err = w.db.Create(tx, "TAcct", &TAcct{}); err != nil {
			return err
		}
		if err := w.db.ClusterAdd(tx, clusterName, w.refs[i]); err != nil {
			return err
		}
		if _, err := w.db.Activate(tx, w.refs[i], "Mirror"); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("torture: setup commit: %w", err)
	}
	if w.pace != nil {
		w.pace()
	}
	return nil
}

// bump commits txns Bump transactions round-robin over the cluster and
// returns each member's acknowledged bumps; a transaction that fails is
// not acknowledged.
func (w *workload) bump(txns int) []int {
	acked := make([]int, len(w.refs))
	for i := 0; i < txns; i++ {
		obj := i % len(w.refs)
		tx := w.db.Begin()
		if _, err := w.db.Invoke(tx, w.refs[obj], "Bump"); err != nil {
			tx.Abort()
			continue
		}
		if tx.Commit() == nil {
			acked[obj]++
		}
		if w.pace != nil {
			w.pace()
		}
	}
	return acked
}

// run is setup plus cfg.txns bumps, with the acknowledged total.
func (w *workload) run(cfg config) (acked []int, commits int, err error) {
	if err := w.setup(cfg.objects); err != nil {
		return nil, 0, err
	}
	acked = w.bump(cfg.txns)
	for _, n := range acked {
		commits += n
	}
	return acked, commits, nil
}

// history is the replay model: a log's records and where each ends.
type history struct {
	recs []wal.Record
	ends []int64 // ends[i] is the LSN just past recs[i]
}

// readHistory decodes the log of the store at path as it stands on
// disk, through a scratch copy (wal.Open repairs a torn tail in place,
// and the store may still be open). It also returns the log's bytes.
func readHistory(path string) (*history, []byte, error) {
	walBytes, err := os.ReadFile(path + ".wal")
	if err != nil {
		return nil, nil, err
	}
	p := path + ".history"
	if err := os.WriteFile(p, walBytes, 0o644); err != nil {
		return nil, nil, err
	}
	defer os.Remove(p)
	l, err := wal.Open(p)
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	h := &history{}
	err = l.Scan(func(lsn wal.LSN, rec *wal.Record) error {
		h.recs = append(h.recs, *rec)
		h.ends = append(h.ends, int64(lsn)+int64(wal.EncodedSize(rec)))
		return nil
	})
	return h, walBytes, err
}

// end is the LSN just past the last record.
func (h *history) end() int64 {
	if len(h.ends) == 0 {
		return 0
	}
	return h.ends[len(h.ends)-1]
}

// replay is the object state a correct store holds after the first
// upto bytes of the log: the transactions whose commit record lies
// wholly inside the prefix, applied at their commit records in commit
// order.
func (h *history) replay(upto int64) map[storage.OID][]byte {
	state := make(map[storage.OID][]byte)
	pending := make(map[uint64][]*wal.Record)
	for i := range h.recs {
		if h.ends[i] > upto {
			break
		}
		rec := &h.recs[i]
		switch rec.Type {
		case wal.RecUpdate, wal.RecAllocate, wal.RecFree:
			pending[rec.Txn] = append(pending[rec.Txn], rec)
		case wal.RecCommit:
			for _, op := range pending[rec.Txn] {
				if op.Type == wal.RecFree {
					delete(state, storage.OID(op.OID))
				} else {
					state[storage.OID(op.OID)] = op.Data
				}
			}
			delete(pending, rec.Txn)
		}
	}
	return state
}

// check holds a copy of a store — the page file at page with the log
// walBytes, in page+".check" — to both invariants: its objects equal
// want byte for byte, and every cluster member has Fired == Count and
// its one perpetual Mirror. With acked non-nil, member i must also hold
// exactly acked[i] bumps. The copy keeps the trigger check's class
// registration out of the files under test.
func check(page string, walBytes []byte, want map[storage.OID][]byte, acked []int) error {
	dst := filepath.Join(page+".check", "s.eos")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	pageBytes, err := os.ReadFile(page)
	if err != nil {
		return err
	}
	if err := os.WriteFile(dst, pageBytes, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(dst+".wal", walBytes, 0o644); err != nil {
		return err
	}
	m, err := eos.Open(dst, eos.Options{CacheSize: cachePages, NoAutoCheckpoint: true})
	if err != nil {
		return err
	}
	if err := sameObjects(m, want); err != nil {
		m.Close()
		return err
	}
	db, err := core.NewDatabase(m)
	if err != nil {
		m.Close()
		return err
	}
	defer db.Close()
	if err := db.Register(tortureClass()); err != nil {
		return err
	}
	tx := db.Begin()
	defer tx.Abort()
	i := 0
	err = db.ClusterScan(tx, clusterName, func(ref core.Ref) error {
		v, err := db.Get(tx, ref)
		if err != nil {
			return err
		}
		a := v.(*TAcct)
		if a.Fired != a.Count {
			return fmt.Errorf("%v has Fired=%d Count=%d; trigger effects diverged from object state", ref, a.Fired, a.Count)
		}
		if acked != nil && a.Count != acked[i] {
			return fmt.Errorf("member %d has Count=%d, want its %d acknowledged bumps", i, a.Count, acked[i])
		}
		infos, err := db.ActiveTriggers(tx, ref)
		if err != nil {
			return err
		}
		if len(infos) != 1 || infos[0].Trigger != "Mirror" {
			return fmt.Errorf("%v has activations %+v, want the one perpetual Mirror", ref, infos)
		}
		i++
		return nil
	})
	if err == nil && acked != nil && i != len(acked) {
		err = fmt.Errorf("%d cluster members survived, want %d", i, len(acked))
	}
	return err
}

// sameObjects compares the live objects of m with want, byte for byte.
func sameObjects(m *eos.Manager, want map[storage.OID][]byte) error {
	got := make(map[storage.OID][]byte)
	if err := m.Iterate(func(oid storage.OID, data []byte) error {
		got[oid] = append([]byte(nil), data...)
		return nil
	}); err != nil {
		return err
	}
	for oid, w := range want {
		if g, ok := got[oid]; !ok {
			return fmt.Errorf("oid %d committed in the log but missing from the store", oid)
		} else if !bytes.Equal(g, w) {
			return fmt.Errorf("oid %d image diverges from the log's replay", oid)
		}
	}
	for oid := range got {
		if _, ok := want[oid]; !ok {
			return fmt.Errorf("oid %d in the store but not committed in the log", oid)
		}
	}
	return nil
}

// sweepTruncate cuts a fault-free run's log at every record boundary and
// inside every record.
func sweepTruncate(dir string, cfg config) (*result, error) {
	w, err := openWorkload(filepath.Join(dir, "work.eos"), nil)
	if err != nil {
		return nil, err
	}
	defer w.db.Close()
	_, commits, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if commits != cfg.txns {
		return nil, fmt.Errorf("torture: fault-free workload acked %d/%d txns", commits, cfg.txns)
	}
	// Nothing may have leaked into the page file, or truncating the log
	// would not be a reachable crash state.
	st, err := os.Stat(w.path)
	if err != nil {
		return nil, err
	}
	if st.Size() > eos.PageSize {
		return nil, fmt.Errorf("torture: page file grew to %d bytes (eviction or checkpoint ran); truncation states would be unreachable", st.Size())
	}
	h, walBytes, err := readHistory(w.path)
	if err != nil {
		return nil, err
	}
	res := &result{commits: commits, records: len(h.recs)}
	points := map[int64]bool{0: false} // point -> inside a record
	start := int64(0)
	for _, end := range h.ends {
		points[end] = false
		if start+1 < end {
			points[start+1] = true // torn inside the record header
		}
		if mid := start + (end-start)/2; mid > start {
			points[mid] = true // torn mid-record
		}
		start = end
	}
	for t, inside := range points {
		if err := check(w.path, walBytes[:t], h.replay(t), nil); err != nil {
			return nil, fmt.Errorf("truncated at %d: %w", t, err)
		}
		res.points++
		if inside {
			res.midRecord++
		}
	}
	return res, nil
}

// sweepSyncFail fails fsync at a seeded rate after the setup commit, then
// crashes: the recovered store must be exactly the acknowledged bumps.
func sweepSyncFail(dir string, cfg config) (*result, error) {
	sched := fault.NewSchedule()
	w, err := openWorkload(filepath.Join(dir, "faulty.eos"), sched)
	if err != nil {
		return nil, err
	}
	if err := w.setup(cfg.objects); err != nil {
		return nil, err
	}
	sched.FailSyncRate(syncFailRate, syncFailSeed)
	acked := w.bump(cfg.txns)
	heals, _ := w.db.Observability().Value("storage.wal_heals")
	res := &result{points: 1, heals: heals}
	for _, n := range acked {
		res.commits += n
	}
	res.failed = cfg.txns - res.commits

	// Crash: the faulted store is abandoned and its files reopened
	// without the fault wrapper (the injected failures died with it).
	h, walBytes, err := readHistory(w.path)
	if err != nil {
		return nil, err
	}
	res.records = len(h.recs)
	return res, check(w.path, walBytes, h.replay(h.end()), acked)
}

// sweepCrash kills the workload at its n-th fsync for every n, and recovers
// each state it leaves behind.
func sweepCrash(dir string, cfg config) (*result, error) {
	res := &result{}
	_, err := fault.Enumerate(func(n uint64) (bool, error) {
		sub := filepath.Join(dir, fmt.Sprintf("crash-%d", n))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return false, err
		}
		defer os.RemoveAll(sub)
		sched := fault.NewSchedule().CrashAt(fault.OpSync, n)
		page := filepath.Join(sub, "work.eos")
		crashed, err := runToCrash(page, cfg, sched)
		if err != nil {
			return false, err
		}
		if !crashed {
			res.syncs = sched.Counters().Syncs
		}
		// The store, crashed or not, is abandoned as a kill -9 would
		// abandon it.
		h, walBytes, err := readHistory(page)
		if err != nil {
			return false, err
		}
		res.records = len(h.recs)
		res.points++
		return crashed, check(page, walBytes, h.replay(h.end()), nil)
	})
	return res, err
}

// runToCrash runs the workload under sched, absorbing the simulated
// machine crash.
func runToCrash(path string, cfg config, sched *fault.Schedule) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fault.Crash); !ok {
				panic(r)
			}
			crashed, err = true, nil
		}
	}()
	w, err := openWorkload(path, sched)
	if err == nil {
		_, _, err = w.run(cfg)
	}
	return false, err
}
