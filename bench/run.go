package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ode/internal/core"
	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/fsm"
	"ode/internal/obs"
	"ode/internal/server"
)

// sut is a system under test in one of the three topologies.
type sut interface {
	// exec runs transaction i to completion on client w. due is when it
	// was due (the open loop) or called (the closed loop).
	exec(w, i int, due time.Time) (committed, correct bool)
	clients() int
	startPhase(start time.Time)
	execLog() []execRec
	// fireSamples returns the fire latencies of firings whose
	// transaction was due in [from, to).
	fireSamples(from, to time.Time) ([]sample, error)
	stats() (sutStats, error)
	micro() (beginUs, snapUs float64, err error)
	drain() error
	readBack() (cards, targets []CredCard, err error)
	// durable returns the objects as a copy of the store files, reopened
	// without the owner closing them, holds them (nil for dali).
	durable() (cards, targets []CredCard, err error)
	traceOn(on bool)
	writeSpans(path string) error
	traceSet() *traceSet
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verifyReport is the outcome of the checks built into every run.
type verifyReport struct {
	OK bool `json:"ok"`
	// OutcomeMismatches counts transactions that committed when the
	// model says DenyCredit aborts them, or the reverse.
	OutcomeMismatches int      `json:"outcome_mismatches"`
	ObjectsChecked    int      `json:"objects_checked"`
	DurableChecked    int      `json:"durable_checked"`
	Problems          []string `json:"problems,omitempty"`
}

func (v *verifyReport) problem(format string, args ...any) {
	if len(v.Problems) < 10 {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}
	v.OK = false
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Workload     string                  `json:"workload"`
	Seed         int64                   `json:"seed"`
	Seconds      float64                 `json:"seconds"`
	Traced       bool                    `json:"traced"`
	StreamDigest string                  `json:"stream_digest"`
	Phases       map[string]*phaseResult `json:"phases"`
	Fire         latSummary              `json:"fire_latency"`
	Attempted    int                     `json:"attempted"`
	Failed       int                     `json:"failed"`
	Verify       verifyReport            `json:"verify"`
	Metrics      map[string]metric       `json:"metrics"`
	LayerTable   []layerRow              `json:"layer_table,omitempty"`
	DroppedSpans uint64                  `json:"dropped_spans,omitempty"`
	MeanOpUs     float64                 `json:"mean_op_us,omitempty"`
}

func (r *workloadResult) correct() bool {
	return r.Verify.OK && r.Failed == 0
}

type runOpts struct {
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	traceOut string // JSONL file for the spans of a traced run ("" = none)
}

func (o runOpts) cards(def *workloadDef) int {
	if o.quick {
		return def.cards / 8
	}
	return def.cards
}

const warmupTxns = 200

// buildStream generates the workload's transactions for a run.
func buildStream(def *workloadDef, o runOpts, bc *core.BoundClass) (*stream, error) {
	cards := o.cards(def)
	n := warmupTxns + int(float64(def.maxRate)*o.seconds*1.2)
	switch def.name {
	case "embedded-detect":
		m, err := newModel(bc, def.acts, cards, def.limit)
		if err != nil {
			return nil, err
		}
		for i := range m.cards {
			m.cards[i].bal = def.initialBal(i)
		}
		return genDetect(o.seed, n, cards, m)
	case "embedded-commit":
		return genCommit(o.seed, n, cards), nil
	case "server-readmostly":
		return genReadMostly(o.seed, n, cards), nil
	case "fleet-routed":
		return genFleet(o.seed, n, cards), nil
	}
	return nil, fmt.Errorf("no generator for workload %q", def.name)
}

func startSUT(def *workloadDef, s *stream, cards int, traced bool) (sut, error) {
	if def.networked() {
		return startNet(def, s, cards, traced)
	}
	return startEmbedded(def, s, cards, traced)
}

// setUp starts the system under test, loads it and runs the warm-up
// transactions; the time this takes is setup_s. go build is not in it.
func setUp(def *workloadDef, s *stream, o runOpts, traced bool) (sut, float64, error) {
	t0 := time.Now()
	su, err := startSUT(def, s, o.cards(def), traced)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warmupTxns; i++ {
		if _, correct := su.exec(0, i, time.Now()); !correct {
			su.close()
			return nil, 0, fmt.Errorf("warm-up transaction %d failed", i)
		}
	}
	return su, time.Since(t0).Seconds(), nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type measured struct {
	closed, lo, hi *phaseResult
	hiFrom, hiTo   time.Time // the window fire samples are taken from
	committed      int
}

// boundedExec is su.exec, failing instead of running off the end of the
// pre-generated stream (raise the workload's maxRate if it ever does).
func boundedExec(su sut, s *stream) execFn {
	return func(w, i int, due time.Time) (bool, bool) {
		if i >= s.len() {
			return false, false
		}
		return su.exec(w, i, due)
	}
}

// measure runs the timed phases against su, starting at stream index
// first: a closed loop for the embedded workloads; for the networked
// ones a closed-loop capacity phase (a quarter of the time), then the
// open loop at rate_lo (a quarter) and rate_hi (half).
func measure(def *workloadDef, su sut, s *stream, o runOpts, first int, seconds float64, withLo bool, beforeHi func() error) (*measured, error) {
	m := &measured{}
	exec := boundedExec(su, s)
	if !def.networked() {
		start := time.Now()
		su.startPhase(start)
		m.closed = runClosed(su.clients(), secs(seconds), first, exec)
		m.hiFrom, m.hiTo = start, time.Now()
		m.committed = m.closed.Committed
		if m.closed.next > s.len() {
			return nil, fmt.Errorf("%s: stream of %d transactions exhausted; raise maxRate", def.name, s.len())
		}
		return m, nil
	}
	closedFrac, loFrac, hiFrac := 0.25, 0.25, 0.5
	if !withLo {
		closedFrac, loFrac, hiFrac = 1.0/3, 0, 2.0/3
	}
	m.closed = runClosed(su.clients(), secs(seconds*closedFrac), first, exec)
	next := m.closed.next
	rng := rand.New(rand.NewSource(o.seed ^ 0x0a11))
	open := func(rate, frac float64) *phaseResult {
		spec := arrivalSpec{Kind: 'p', Value: rate}
		dur := secs(seconds * frac)
		due := spec.schedule(rng, dur)
		p := runOpen(spec, due, dur, su.clients(), next, exec)
		next = p.next
		return p
	}
	if withLo {
		m.lo = open(def.rateLo, loFrac)
	}
	if beforeHi != nil {
		if err := beforeHi(); err != nil {
			return nil, err
		}
	}
	m.hiFrom = time.Now()
	m.hi = open(def.rateHi, hiFrac)
	m.hiTo = m.hiFrom.Add(secs(seconds * hiFrac))
	if next > s.len() {
		return nil, fmt.Errorf("%s: stream of %d transactions exhausted; raise maxRate", def.name, s.len())
	}
	m.committed = m.closed.Committed + m.hi.Committed
	if m.lo != nil {
		m.committed += m.lo.Committed
	}
	return m, nil
}

// latencyPhase is the phase op_p50_us and op_p99_us are read from.
func (m *measured) latencyPhase() *phaseResult {
	if m.hi != nil {
		return m.hi
	}
	return m.closed
}

func (m *measured) phases() map[string]*phaseResult {
	out := map[string]*phaseResult{"closed": m.closed}
	if m.lo != nil {
		out["rate_lo"] = m.lo
	}
	if m.hi != nil {
		out["rate_hi"] = m.hi
	}
	return out
}

func (m *measured) tally() (attempted, failed int) {
	for _, p := range m.phases() {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// runWorkload runs one workload once and verifies it.
func runWorkload(def *workloadDef, o runOpts) (*workloadResult, error) {
	bc, err := schemaMachines()
	if err != nil {
		return nil, err
	}
	s, err := buildStream(def, o, bc)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: def.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		StreamDigest: fmt.Sprintf("%016x", s.digest()), Metrics: map[string]metric{}}
	if o.traced {
		err = runTraced(def, s, o, bc, res)
	} else {
		err = runUntraced(def, s, o, bc, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runUntraced(def *workloadDef, s *stream, o runOpts, bc *core.BoundClass, res *workloadResult) error {
	su, setupS, err := setUp(def, s, o, false)
	if err != nil {
		return err
	}
	defer su.close()
	st0, err := su.stats()
	if err != nil {
		return err
	}
	m, err := measure(def, su, s, o, warmupTxns, o.seconds, true, nil)
	if err != nil {
		return err
	}
	st1, err := su.stats()
	if err != nil {
		return err
	}
	if err := su.drain(); err != nil {
		return err
	}
	fires, err := su.fireSamples(m.hiFrom, m.hiTo)
	if err != nil {
		return err
	}
	res.Phases = m.phases()
	res.Attempted, res.Failed = m.tally()
	res.Fire = summarize(fires, int64(m.hiTo.Sub(m.hiFrom)))
	if _, err := verify(def, su, s, o, bc, &res.Verify); err != nil {
		return err
	}
	lat := m.latencyPhase().Lat
	put := func(name string, v float64) {
		for _, d := range endToEndMetrics {
			if d.Name == name {
				res.Metrics[name] = metric{v, d.Unit}
			}
		}
	}
	put("op_p50_us", lat.P50)
	put("ops_per_s", m.closed.opsPerSec())
	put("fire_p50_us", res.Fire.P50)
	put("allocs_per_op", float64(st1.mallocs-st0.mallocs)/float64(max(m.committed, 1)))
	put("setup_s", setupS)
	return nil
}

// verify checks the run against the model: every transaction's outcome,
// every object read back, the engine's own firing counters, and — for
// the disk workloads — every object again from a copy of the store files
// reopened without a Close. It returns the replayed model.
func verify(def *workloadDef, su sut, s *stream, o runOpts, bc *core.BoundClass, v *verifyReport) (*model, error) {
	v.OK = true
	cards := o.cards(def)
	m, err := newModel(bc, def.acts, cards, def.limit)
	if err != nil {
		return nil, err
	}
	for i := range m.cards {
		m.cards[i].bal = def.initialBal(i)
	}
	log := su.execLog()
	order := make([]int32, len(log))
	committed := make([]bool, len(log))
	for k, r := range log {
		order[k], committed[k] = r.i, r.committed
	}
	t0 := time.Now()
	if v.OutcomeMismatches, err = replay(m, s, order, committed); err != nil {
		return nil, err
	}
	m.replayNs = time.Since(t0).Nanoseconds()
	if v.OutcomeMismatches > 0 {
		v.problem("%d transactions committed or aborted against the model's prediction", v.OutcomeMismatches)
	}
	check := func(where string, got, targets []CredCard) int {
		if len(got) != cards {
			v.problem("%s: read %d cards, want %d", where, len(got), cards)
			return 0
		}
		for i, c := range got {
			w := &m.cards[i]
			if c.CurrBal != w.bal || c.CredLim != w.lim || c.Raises != w.raises {
				v.problem("%s: card %d holds bal=%v lim=%v raises=%d, model says bal=%v lim=%v raises=%d",
					where, i, c.CurrBal, c.CredLim, c.Raises, w.bal, w.lim, w.raises)
			}
			if def.networked() && len(c.Stamps) != w.stamps {
				v.problem("%s: card %d carries %d firing stamps, model says %d", where, i, len(c.Stamps), w.stamps)
			}
		}
		if def.topology != "fleet" {
			return len(got)
		}
		if len(targets) != cards {
			v.problem("%s: read %d targets, want %d", where, len(targets), cards)
			return len(got)
		}
		for i, t := range targets {
			// Exactly once: one Pair completion per committed Kick.
			if len(t.Stamps) != m.cards[i].kicks {
				v.problem("%s: target %d fired Pair %d times for %d committed Kicks", where, i, len(t.Stamps), m.cards[i].kicks)
			}
		}
		return len(got) + len(targets)
	}
	got, targets, err := su.readBack()
	if err != nil {
		return nil, err
	}
	v.ObjectsChecked = check("read-back", got, targets)
	if def.store == "eos" {
		got, targets, err := su.durable()
		if err != nil {
			v.problem("durability: %v", err)
		} else {
			v.DurableChecked = check("reopened copy", got, targets)
		}
	}
	// The engine's own counters must agree with the model on how many
	// trigger actions ran under each coupling. Pair runs on the target's
	// shard, once per committed Kick.
	st, err := su.stats()
	if err != nil {
		return nil, err
	}
	want := m.fires
	for i := range m.cards {
		want[core.Immediate] += uint64(m.cards[i].kicks)
	}
	for c, name := range []string{"core.fired_immediate", "core.fired_deferred", "core.fired_dependent", "core.fired_independent"} {
		if got := st.metrics[name].Value; got != want[c] {
			v.problem("%s = %d, model says %d", name, got, want[c])
		}
	}
	return m, nil
}

// --- the traced run -------------------------------------------------------------

func runTraced(def *workloadDef, s *stream, o runOpts, bc *core.BoundClass, res *workloadResult) error {
	pl := map[string]float64{}
	for _, d := range perLayerMetrics {
		pl[d.Name] = 0
	}
	// Reference: the same closed loop with no decorator installed.
	refSeconds := o.seconds / 4
	ref, _, err := setUp(def, s, o, false)
	if err != nil {
		return err
	}
	ref.startPhase(time.Now())
	refPhase := runClosed(ref.clients(), secs(refSeconds), warmupTxns, boundedExec(ref, s))
	ref.close()

	su, _, err := setUp(def, s, o, true)
	if err != nil {
		return err
	}
	defer su.close()
	su.traceOn(true)
	st0, err := su.stats()
	if err != nil {
		return err
	}
	// For the networked workloads the per-layer figures cover the rate_hi
	// phase alone — the phase op_p50_us is read from; the traced closed
	// loop before it only measures the tracing overhead.
	m, err := measure(def, su, s, o, warmupTxns, o.seconds*3/4, false, func() (err error) {
		su.traceOn(true) // a node empties its span ring when told again
		st0, err = su.stats()
		return err
	})
	if err != nil {
		return err
	}
	st1, err := su.stats()
	su.traceOn(false)
	if err != nil {
		return err
	}
	if err := su.drain(); err != nil {
		return err
	}
	res.Phases = m.phases()
	res.Phases["untraced_closed"] = refPhase
	res.Attempted, res.Failed = m.tally()
	fires, err := su.fireSamples(m.hiFrom, m.hiTo)
	if err != nil {
		return err
	}
	res.Fire = summarize(fires, int64(m.hiTo.Sub(m.hiFrom)))
	mdl, err := verify(def, su, s, o, bc, &res.Verify)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := su.writeSpans(o.traceOut); err != nil {
			return err
		}
	}

	// Per-transaction figures divide by the transactions attempted: the
	// few DenyCredit aborts did their work too.
	ops := float64(max(m.latencyPhase().Attempted, 1))
	delta := func(name string) float64 {
		return float64(st1.metrics[name].Value) - float64(st0.metrics[name].Value)
	}
	histMean := func(a, b map[string]obs.MetricValue, name string) float64 {
		n := float64(b[name].Count) - float64(a[name].Count)
		if n <= 0 {
			return 0
		}
		return (float64(b[name].Sum) - float64(a[name].Sum)) / n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// eventexpr + fsm: time the public compile path on every expression
	// of the schema, and the bare-FSM replay verification just did.
	pl["fsm.compile_us"] = compileMicros(bc)
	pl["fsm.advance_ns"] = ratio(float64(mdl.replayNs), float64(mdl.advances))

	posts := delta("core.events_posted")
	dt := st1.trace.combine(st0.trace, func(after, before uint64) uint64 { return after - before })
	reads, readNs := float64(dt.Reads), float64(dt.ReadNs)
	readAts, readAtNs := float64(dt.ReadAts), float64(dt.ReadAtNs)
	applies, applyNs, applyOps := float64(dt.Applies), float64(dt.ApplyNs), float64(dt.ApplyOps)
	walNs, walBytes := float64(dt.WALWriteNs+dt.WALSyncNs), float64(dt.WALBytes)
	walSyncs, walSyncNs := float64(dt.WALSyncs), float64(dt.WALSyncNs)
	frames, frameBusyNs, frameResNs := float64(dt.Frames), float64(dt.FrameBusyNs), float64(dt.FrameResNs)
	ingests, ingestNs := float64(dt.Ingests), float64(dt.IngestNs)

	fired := delta("core.fired_immediate") + delta("core.fired_deferred") + delta("core.fired_dependent") + delta("core.fired_independent")
	pl["core.state_reads_per_post"] = ratio(reads, posts)
	pl["core.state_writes_per_post"] = ratio(applyOps, posts)
	pl["core.fires"] = fired
	pl["core.mask_evals"] = delta("core.masks_evaluated")
	loaded := float64(st1.metrics["core.fsm_advance_ns"].Count) - float64(st0.metrics["core.fsm_advance_ns"].Count)
	pl["core.advance_useful_frac"] = ratio(delta("core.triggers_advanced")+fired, loaded)
	pl["core.post_to_fire_ns"] = histMean(st0.metrics, st1.metrics, "core.post_to_fire_ns")
	pl["core.fsm_advance_ns"] = histMean(st0.metrics, st1.metrics, "core.fsm_advance_ns")

	pl["lock.acquires_per_op"] = delta("lock.acquisitions") / ops
	pl["lock.waits"] = delta("lock.waits")
	pl["lock.upgrades"] = delta("lock.upgrades")
	pl["lock.deadlocks"] = delta("lock.deadlocks")
	pl["txn.aborts"] = delta("txn.aborted")

	beginUs, snapUs, err := su.micro()
	if err != nil {
		return err
	}
	pl["txn.begin_us"] = beginUs
	if def.checkModulus { // the one workload that begins snapshots
		pl["txn.snapshot_begin_us"] = snapUs
	}

	storeSelfNs := readNs + readAtNs + applyNs - walNs
	if def.store == "eos" {
		pl["eos.apply_commit_us"] = ratio(applyNs, applies) / 1e3
		pl["wal.sync_us"] = ratio(walSyncNs, walSyncs) / 1e3
		pl["wal.syncs_per_commit"] = ratio(walSyncs, applies)
		pl["wal.bytes_per_commit"] = ratio(walBytes, applies)
		pl["eos.commit_queue_us"] = ratio(applyNs-walNs, applies) / 1e3
		pl["eos.cache_hit_frac"] = ratio(delta("storage.cache_hits"), delta("storage.cache_hits")+delta("storage.page_reads"))
	} else {
		pl["dali.apply_commit_us"] = ratio(applyNs, applies) / 1e3
		pl["dali.read_us"] = ratio(readNs, reads) / 1e3
		pl["dali.reads_per_op"] = reads / ops
	}
	if def.checkModulus {
		pl["vstore.read_at_us"] = ratio(readAtNs, readAts) / 1e3
		pl["vstore.versions_live"] = float64(st1.metrics["obj.versions_live"].Value)
		pl["vstore.gc_reclaimed"] = delta("obj.versions_trimmed")
		pl["vstore.pins_max"] = float64(st1.trace.PinsMax)
	}

	var rows []layerRow
	meanOp := m.latencyPhase().Lat.Mean
	res.MeanOpUs = meanOp
	if ts := su.traceSet(); ts != nil {
		// Embedded: the span trees of the traced worker threads.
		kc, kb, ks, top := ts.kindSums()
		pl["core.invoke_self_us"] = ks[spInvoke] / ops / 1e3
		pl["txn.begin_us"] = ratio(kb[spBegin], kc[spBegin]) / 1e3
		pl["txn.commit_self_us"] = ratio(ks[spCommit], kc[spCommit]) / 1e3
		byLayer := map[string]*layerRow{}
		for k := spanKind(0); k < numSpanKinds; k++ {
			if kc[k] == 0 {
				continue
			}
			l := spanInfo[k].layer
			r := byLayer[l]
			if r == nil {
				r = &layerRow{Layer: l}
				byLayer[l] = r
			}
			r.Count += kc[k] / ops
			r.Busy += kb[k] / ops / 1e3
			r.Self += ks[k] / ops / 1e3
		}
		if r := byLayer["wal"]; r != nil {
			r.Waited = pl["eos.commit_queue_us"] * applies / ops
		}
		if r := byLayer["txn"]; r != nil {
			r.Failed = pl["txn.aborts"]
		}
		if r := byLayer["core"]; r != nil {
			r.Failed = delta("core.detached_retries")
		}
		for _, l := range []string{"txn", "core", "storage", "vstore", "wal"} {
			if r := byLayer[l]; r != nil {
				rows = append(rows, *r)
			}
		}
		// A closed loop's clients are never idle, so whatever part of
		// their time is in no span at all is the generator's own.
		clientNs := m.closed.Seconds * 1e9 * float64(su.clients())
		pl["obs.unattributed_frac"] = 1 - ratio(top, clientNs)
	} else {
		// Networked: the decorators' and the relay's sums, per
		// transaction. A frame's busy time is what its session spent on
		// it alone, so the rows add up along the transaction's path.
		framesPerOp := frames / ops
		codecUs := codecMicros() * framesPerOp
		pl["server.client_codec_us"] = codecUs
		pl["server.residence_us"] = ratio(frameResNs, frames) / 1e3
		pl["server.self_us"] = ratio(frameBusyNs-storeSelfNs-walNs, frames) / 1e3
		pl["server.bytes_per_op"] = (delta("server.bytes_in") + delta("server.bytes_out")) / ops
		pl["server.frames_per_op"] = delta("server.frames_in") / ops
		pl["server.pipeline_depth"] = histMean(st0.metrics, st1.metrics, "server.pipeline_depth")
		rows = append(rows, layerRow{Layer: "gen", Count: framesPerOp, Busy: codecUs, Self: codecUs,
			Waited: m.hi.LateMeanUs})
		var routerUs float64
		if def.topology == "fleet" {
			pl["router.route_ns"] = histMean(st0.router, st1.router, "router.route_ns")
			pl["router.forward_ns"] = histMean(st0.router, st1.router, "router.forward_ns")
			if n, ok := su.(*netSUT); ok {
				added, err := n.routerAdded()
				if err != nil {
					return err
				}
				pl["router.added_us"] = added
				routerUs = added * framesPerOp
			}
			pl["forwarder.batch_size"] = ratio(delta("shard.forward_events"), delta("shard.forward_batches"))
			pl["shard.outbox_depth_max"] = float64(st1.trace.OutboxMax)
			pl["shard.ingest_us"] = ratio(ingestNs, ingests) / 1e3
			delivered := delta("shard.ingested") + delta("shard.ingest_dups") + delta("shard.ingest_dropped")
			pl["shard.ingest_useful_frac"] = ratio(delta("shard.ingested"), delivered)
			rows = append(rows, layerRow{Layer: "shard", Count: framesPerOp, Busy: routerUs, Self: routerUs,
				Failed: delta("shard.forward_errors")})
		}
		serverSelf := (frameBusyNs - storeSelfNs - walNs) / ops / 1e3
		rows = append(rows,
			layerRow{Layer: "server", Count: framesPerOp, Busy: frameBusyNs / ops / 1e3, Self: serverSelf, Waited: (frameResNs - frameBusyNs) / ops / 1e3, Failed: pl["txn.aborts"]},
			layerRow{Layer: "storage", Count: (reads + readAts + applies) / ops, Busy: (readNs + readAtNs + applyNs) / ops / 1e3, Self: storeSelfNs / ops / 1e3},
		)
		attributed := codecUs + m.hi.LateMeanUs + routerUs + frameBusyNs/ops/1e3
		if def.store == "eos" {
			rows = append(rows, layerRow{Layer: "wal", Count: applies / ops, Busy: walNs / ops / 1e3,
				Self: walNs / ops / 1e3, Waited: pl["eos.commit_queue_us"] * applies / ops})
		}
		pl["obs.unattributed_frac"] = 1 - ratio(attributed, meanOp)
	}
	res.LayerTable = rows
	res.DroppedSpans = st1.trace.DroppedSpans

	pl["obs.trace_overhead_frac"] = 1 - ratio(m.closed.opsPerSec(), refPhase.opsPerSec())
	if m.hi != nil {
		pl["gen.late_p99_us"] = m.hi.LateP99Us
		pl["gen.late_frac"] = m.hi.LateFrac
	}
	pl["proc.rss_mb"] = float64(st1.hwmKB) / 1024
	pl["proc.cpu_s"] = float64(st1.cpuNs-st0.cpuNs) / 1e9
	pl["proc.gc_pause_ms"] = float64(st1.gcPauseNs-st0.gcPauseNs) / 1e6
	lat := m.latencyPhase().Lat
	pl["op_p99_us"] = lat.P99
	pl["op_p999_us"] = lat.P999
	pl["fire_p99_us"] = res.Fire.P99
	if m.lo != nil {
		pl["op_lo_p50_us"] = m.lo.Lat.P50
		pl["op_lo_p99_us"] = m.lo.Lat.P99
	}
	pl["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	for _, d := range perLayerMetrics {
		res.Metrics[d.Name] = metric{pl[d.Name], d.Unit}
	}
	return nil
}

// kindSums folds the traced threads' span trees into per-kind span
// counts, busy time and self time (ns), plus the total of the top-level
// spans. A span's self time is its duration minus its direct children's.
func (ts *traceSet) kindSums() (count, busy, self [numSpanKinds]float64, topLevel float64) {
	for _, t := range ts.tracedThreads() {
		spans := t.r.spans()
		child := make([]int64, len(spans))
		for _, s := range spans {
			if s.end != 0 && s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range spans {
			if s.end == 0 {
				continue
			}
			d := s.end - s.start
			count[s.kind]++
			busy[s.kind] += float64(d)
			self[s.kind] += float64(d - child[i])
			if s.parent < 0 {
				topLevel += float64(d)
			}
		}
	}
	return count, busy, self, topLevel
}

// compileMicros times eventexpr.Parse + fsm.Compile on every trigger
// expression of the schema and returns the mean µs per expression.
func compileMicros(bc *core.BoundClass) float64 {
	var exprs []string
	for _, name := range bc.Def.Triggers() {
		bt, _ := bc.TriggerByName(name)
		exprs = append(exprs, bt.Def.Expr)
	}
	// The class's seven declared events, as the engine would resolve them.
	ids := map[string]event.ID{"after Buy": 10, "after PayBill": 11, "BigBuy": 12, "after GoodCredHist": 13, "Kick": 14, "First": 15, "Second": 16}
	opts := fsm.Options{
		Resolve: func(n *eventexpr.Name) (event.ID, error) {
			id, ok := ids[n.String()]
			if !ok {
				return event.None, fmt.Errorf("undeclared event %q", n.String())
			}
			return id, nil
		},
		Alphabet: []event.ID{10, 11, 12, 13, 14, 15, 16},
	}
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range exprs {
			p, err := eventexpr.Parse(e)
			if err != nil {
				return 0
			}
			if _, err := fsm.Compile(p, opts); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(exprs)) / 1e3
}

// codecMicros times the client's share of one request/response pair
// through the public codec: marshal + WriteFrame, ReadFrame + unmarshal.
func codecMicros() float64 {
	req := invoke(12345, "Buy", 250.0)
	respPayload, _ := json.Marshal(&server.Response{OK: true})
	var frame bytes.Buffer
	server.WriteFrame(&frame, server.Frame{Type: server.FrameResponse, SID: 7, ID: 99, Payload: respPayload})
	wire := frame.Bytes()
	const n = 2000
	var out bytes.Buffer
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		out.Reset()
		payload, _ := json.Marshal(req)
		server.WriteFrame(&out, server.Frame{Type: server.FrameRequest, SID: 7, ID: uint64(i), Payload: payload})
		rd.Reset(wire)
		br.Reset(rd)
		f, err := server.ReadFrame(br, 0)
		if err != nil {
			return 0
		}
		var resp server.Response
		json.Unmarshal(f.Payload, &resp)
	}
	return float64(time.Since(t0).Nanoseconds()) / n / 1e3
}
