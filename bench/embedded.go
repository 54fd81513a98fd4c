package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/lock"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/storage/eos"
	"ode/internal/txn"
)

// execRec is one executed transaction: its stream index and what the
// system under test did with it.
type execRec struct {
	i         int32
	committed bool
}

// embWorker is one closed-loop client of an embedded database.
type embWorker struct {
	txID      atomic.Uint64 // read by the other client's stamp hook
	callStart time.Time     // start of the engine call in progress
	fires     []sample      // fire latency: action entry − callStart
	log       []execRec
	retries   int // re-runs after a deadlock rollback
	tt        *threadTrace
}

// embSUT is the embedded topology: the benchmark process calls
// core.Database directly.
type embSUT struct {
	def     *workloadDef
	s       *stream
	dir     string
	db      *core.Database
	refs    []core.Ref
	workers []embWorker
	ts      *traceSet // nil unless the decorators are installed
	// fireEpoch is the wall-clock origin fire samples are timed from; the
	// runner moves it to each phase's start.
	fireEpoch time.Time
}

func startEmbedded(def *workloadDef, s *stream, cards int, traced bool) (*embSUT, error) {
	e := &embSUT{def: def, s: s, workers: make([]embWorker, def.clients)}
	if traced {
		e.ts = newTraceSet()
	}
	var path string
	if def.store == "eos" {
		dir, err := scratchDir()
		if err != nil {
			return nil, err
		}
		e.dir = dir
		path = filepath.Join(dir, "s0.eos")
	}
	store, err := openStore(def.store, path, nil, e.ts)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.db, err = core.NewDatabase(store); err != nil {
		store.Close()
		e.close()
		return nil, err
	}
	if err := e.db.Register(credCardClass(e.stamp)); err != nil {
		e.close()
		return nil, err
	}
	const batch = 64
	e.refs = make([]core.Ref, cards)
	for lo := 0; lo < cards; lo += batch {
		tx := e.db.Begin()
		for i := lo; i < lo+batch && i < cards; i++ {
			ref, err := e.db.Create(tx, "CredCard", &CredCard{Holder: def.holder(), CredLim: def.limit, CurrBal: def.initialBal(i), GoodHist: true})
			if err == nil {
				e.refs[i] = ref
				for _, a := range def.acts {
					if _, err = e.db.Activate(tx, ref, a.trigger, a.args...); err != nil {
						break
					}
				}
			}
			if err != nil {
				tx.Abort()
				e.close()
				return nil, fmt.Errorf("load card %d: %w", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			e.close()
			return nil, fmt.Errorf("load commit: %w", err)
		}
	}
	return e, nil
}

// stamp is the embedded stamp hook: every trigger action runs
// synchronously on the goroutine that called into the engine, so the
// latency from that call's start to the action's entry is known here.
// Detached couplings run in a system transaction of their own, which
// only a single-client workload uses.
func (e *embSUT) stamp(ctx *core.Ctx, _ *CredCard, _ *core.Activation) {
	now := time.Now()
	id := uint64(ctx.Tx().ID())
	for w := range e.workers {
		wk := &e.workers[w]
		if wk.txID.Load() == id || len(e.workers) == 1 {
			wk.fires = append(wk.fires, sample{end: int64(now.Sub(e.fireEpoch)), lat: int64(now.Sub(wk.callStart))})
			return
		}
	}
}

func (e *embSUT) exec(w, i int, _ time.Time) (committed, correct bool) {
	wk := &e.workers[w]
	if wk.tt == nil && e.ts != nil && e.ts.on.Load() {
		wk.tt = e.ts.pinThread()
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = e.attempt(wk, i)
		// A deadlock victim is rolled back through no fault of its own;
		// like any client of a locking database, run it again.
		if !errors.Is(err, lock.ErrDeadlock) || attempt == maxRetries {
			break
		}
		wk.retries++
	}
	committed = err == nil
	wk.log = append(wk.log, execRec{int32(i), committed})
	// An abort is a correct outcome exactly when the generator predicted
	// DenyCredit would deny this transaction.
	correct = committed != e.s.wantAbort[i] && (committed || errors.Is(err, txn.ErrAborted))
	return committed, correct
}

// attempt runs transaction i once and returns what ended it: nil for a
// commit.
func (e *embSUT) attempt(wk *embWorker, i int) error {
	tt := wk.tt
	if tt != nil {
		tt.op = int64(i)
		tt.begin(spBegin)
	}
	tx := e.db.Begin()
	if tt != nil {
		tt.end()
	}
	wk.txID.Store(uint64(tx.ID()))
	for _, o := range e.s.txn(i) {
		ref := e.refs[o.card]
		if tt != nil {
			tt.begin(spInvoke)
		}
		wk.callStart = time.Now()
		var err error
		switch o.kind {
		case opBuy:
			_, err = e.db.Invoke(tx, ref, "Buy", o.amount)
		case opPay:
			_, err = e.db.Invoke(tx, ref, "PayBill", o.amount)
		case opBigBuy:
			err = e.db.PostUserEvent(tx, ref, "BigBuy")
		case opQuery:
			_, err = e.db.Invoke(tx, ref, "GoodCredHist")
		case opActivate:
			_, err = e.db.Activate(tx, ref, "AutoRaiseLimit", raiseStep)
		default:
			err = fmt.Errorf("op kind %d has no embedded form", o.kind)
		}
		if tt != nil {
			tt.end()
		}
		if err != nil {
			if tx.State() == txn.Active {
				tx.Abort()
			}
			return err
		}
	}
	if tt != nil {
		tt.begin(spCommit)
	}
	wk.callStart = time.Now()
	err := tx.Commit()
	if tt != nil {
		tt.end()
	}
	return err
}

func (e *embSUT) clients() int { return len(e.workers) }

func (e *embSUT) startPhase(start time.Time) {
	e.fireEpoch = start
	for w := range e.workers {
		e.workers[w].fires = e.workers[w].fires[:0]
	}
}

func (e *embSUT) fireSamples(_, _ time.Time) ([]sample, error) {
	var out []sample
	for w := range e.workers {
		out = append(out, e.workers[w].fires...)
	}
	return out, nil
}

func (e *embSUT) execLog() []execRec {
	var out []execRec
	for w := range e.workers {
		out = append(out, e.workers[w].log...)
	}
	return out
}

func (e *embSUT) traceOn(on bool) {
	if e.ts != nil {
		e.ts.on.Store(on)
	}
}

func (e *embSUT) stats() (sutStats, error) {
	return foldStats([]procStats{selfStats(e.ts, e.db.Observability())}, nil), nil
}

func (e *embSUT) micro() (beginUs, snapUs float64, err error) {
	beginUs, snapUs = microTxn(e.db)
	return beginUs, snapUs, nil
}

func (e *embSUT) drain() error { return nil }

func readCards(db *core.Database, refs []core.Ref) ([]CredCard, error) {
	out := make([]CredCard, len(refs))
	tx := db.Begin()
	defer tx.Abort()
	for i, ref := range refs {
		v, err := db.Get(tx, ref)
		if err != nil {
			return nil, fmt.Errorf("read card %d: %w", i, err)
		}
		out[i] = *v.(*CredCard)
	}
	return out, nil
}

func (e *embSUT) readBack() (cards, targets []CredCard, err error) {
	cards, err = readCards(e.db, e.refs)
	return cards, nil, err
}

// durable copies the store and its log while the database is still open,
// opens the copy — which runs recovery over it — and returns every card
// as the copy holds it. This is a process crash, not a power failure:
// the copy sees whatever the operating system's cache holds.
func (e *embSUT) durable() (cards, targets []CredCard, err error) {
	if e.def.store != "eos" {
		return nil, nil, nil
	}
	oids := make([]uint64, len(e.refs))
	for i, r := range e.refs {
		oids[i] = uint64(r.OID())
	}
	stores, err := reopenCopies(e.dir, 1)
	if err != nil {
		return nil, nil, err
	}
	defer stores.close()
	cards, err = stores.read(oids)
	return cards, nil, err
}

func (e *embSUT) writeSpans(path string) error {
	if e.ts == nil {
		return nil
	}
	return e.ts.writeSpans(path, "generator")
}

func (e *embSUT) traceSet() *traceSet { return e.ts }

func (e *embSUT) close() {
	if e.db != nil {
		e.db.Close()
		e.db = nil
	}
	if e.dir != "" {
		removeScratch(e.dir)
		e.dir = ""
	}
}

// --- durability reopen (shared by both eos workloads) -----------------------------

// reopened is a set of shard stores copied from a live run and opened
// read-side in this process.
type reopened struct {
	dir string
	dbs []*core.Database
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// reopenCopies copies s<i>.eos and its .wal for each of n shards out of
// dir, without the owning process closing them, and opens each copy.
func reopenCopies(dir string, n int) (*reopened, error) {
	cdir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	r := &reopened{dir: cdir}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d.eos", i)
		for _, suffix := range []string{"", ".wal"} {
			if err := copyFile(filepath.Join(cdir, name+suffix), filepath.Join(dir, name+suffix)); err != nil {
				r.close()
				return nil, fmt.Errorf("durability copy: %w", err)
			}
		}
		store, err := eos.Open(filepath.Join(cdir, name), eos.Options{})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("durability reopen: %w", err)
		}
		db, err := core.NewDatabase(store)
		if err != nil {
			store.Close()
			r.close()
			return nil, err
		}
		r.dbs = append(r.dbs, db)
		if err := db.Register(credCardClass(wallStamp)); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// read returns the objects with the given OIDs, each from the copy that
// holds it.
func (r *reopened) read(oids []uint64) ([]CredCard, error) {
	out := make([]CredCard, len(oids))
	txs := make([]*txn.Txn, len(r.dbs))
	for d, db := range r.dbs {
		txs[d] = db.Begin()
		defer txs[d].Abort()
	}
	for i, oid := range oids {
		found := false
		for d, db := range r.dbs {
			v, err := db.Get(txs[d], core.RefFromOID(storage.OID(oid)))
			if errors.Is(err, storage.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("reopened copy: object %d: %w", oid, err)
			}
			out[i] = *v.(*CredCard)
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("reopened copy: acknowledged object %d is missing", oid)
		}
	}
	return out, nil
}

func (r *reopened) close() {
	for _, db := range r.dbs {
		db.Close()
	}
	removeScratch(r.dir)
}

// --- stats folding ---------------------------------------------------------------

// sutStats is the system under test's accounting at one instant, summed
// over its processes.
type sutStats struct {
	mallocs, gcPauseNs, cpuNs, hwmKB uint64
	metrics                          map[string]obs.MetricValue // node registries, summed by name
	router                           map[string]obs.MetricValue
	trace                            traceCounters
}

func sumMetrics(into map[string]obs.MetricValue, mvs []obs.MetricValue) {
	for _, mv := range mvs {
		acc := into[mv.Name]
		acc.Name, acc.Unit = mv.Name, mv.Unit
		acc.Value += mv.Value
		acc.Count += mv.Count
		acc.Sum += mv.Sum
		into[mv.Name] = acc
	}
}

func foldStats(nodes []procStats, router *procStats) sutStats {
	st := sutStats{metrics: map[string]obs.MetricValue{}, router: map[string]obs.MetricValue{}}
	add := func(p procStats) {
		st.mallocs += p.Mallocs
		st.gcPauseNs += p.GCPauseNs
		st.cpuNs += p.CPUNs
		st.hwmKB += p.HWMKB
	}
	for _, p := range nodes {
		add(p)
		sumMetrics(st.metrics, p.Metrics)
		// Everything sums over processes except the two high-water marks.
		pins, outbox := max(st.trace.PinsMax, p.Trace.PinsMax), max(st.trace.OutboxMax, p.Trace.OutboxMax)
		st.trace = st.trace.combine(p.Trace, func(x, y uint64) uint64 { return x + y })
		st.trace.PinsMax, st.trace.OutboxMax = pins, outbox
	}
	if router != nil {
		add(*router)
		sumMetrics(st.router, router.Metrics)
	}
	return st
}
