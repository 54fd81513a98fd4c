package core

import (
	"time"

	"ode/internal/event"
	"ode/internal/lock"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/txn"
)

// coreMetrics holds the trigger engine's hot-path metric handles: the
// counters the experiments read (core.fast_path_skips,
// core.masks_evaluated, ...) and histograms timing the stations of a
// firing: detection, FSM advance, action execution, durability wait,
// detached retry backoff. All of it lives in one obs.Registry per
// Database, exposed by Observability() and documented in
// docs/OBSERVABILITY.md.
type coreMetrics struct {
	eventsPosted     *obs.Counter
	fastPathSkips    *obs.Counter
	triggersAdvanced *obs.Counter
	masksEvaluated   *obs.Counter
	firedImmediate   *obs.Counter
	firedDeferred    *obs.Counter
	firedDependent   *obs.Counter
	firedIndependent *obs.Counter
	actionErrors     *obs.Counter
	actionPanics     *obs.Counter
	detachedRetries  *obs.Counter
	detachedDropped  *obs.Counter
	snapshotPosts    *obs.Counter

	postToFireNs         *obs.Histogram
	fsmAdvanceNs         *obs.Histogram
	actionNs             *obs.Histogram
	commitWaitNs         *obs.Histogram
	detachedRetryDelayNs *obs.Histogram
}

func newCoreMetrics(r *obs.Registry) *coreMetrics {
	return &coreMetrics{
		eventsPosted:     r.Counter("core.events_posted", "count", "basic events posted to objects (§5.4.5 PostEvent entries)"),
		fastPathSkips:    r.Counter("core.fast_path_skips", "count", "postings short-circuited by the object-header bit (§5.4.5 footnote 3)"),
		triggersAdvanced: r.Counter("core.triggers_advanced", "count", "FSM advances that changed persistent state without accepting (write locks taken, §6)"),
		masksEvaluated:   r.Counter("core.masks_evaluated", "count", "mask predicate evaluations (§5.1.2 pseudo-event cascades)"),
		firedImmediate:   r.Counter("core.fired_immediate", "count", "firings run inside the detecting transaction (§4.2 immediate)"),
		firedDeferred:    r.Counter("core.fired_deferred", "count", "firings run at commit (§4.2 'end'/deferred coupling)"),
		firedDependent:   r.Counter("core.fired_dependent", "count", "detached firings whose parent committed (§4.2 dependent)"),
		firedIndependent: r.Counter("core.fired_independent", "count", "detached firings independent of parent outcome (§4.2 !dependent)"),
		actionErrors:     r.Counter("core.action_errors", "count", "detached actions that ended in an aborted system transaction (permanent)"),
		actionPanics:     r.Counter("core.action_panics", "count", "trigger actions that panicked (recovered, treated as errors)"),
		detachedRetries:  r.Counter("core.detached_retries", "count", "detached system transactions re-run after a retryable abort"),
		detachedDropped:  r.Counter("core.detached_dropped", "count", "detached firings lost for good (permanent error or retry budget exhausted)"),
		snapshotPosts:    r.Counter("core.snapshot_posts", "count", "events posted inside snapshot transactions: local rules saw them, persistent trigger processing was suppressed"),

		postToFireNs:         r.Histogram("core.post_to_fire_ns", "ns", "event post to action start, per firing (detached firings include the parent's commit wait)"),
		fsmAdvanceNs:         r.Histogram("core.fsm_advance_ns", "ns", "one trigger-state FSM advance including its mask cascade (§5.4.5 steps a–c)"),
		actionNs:             r.Histogram("core.action_ns", "ns", "trigger action body execution"),
		commitWaitNs:         r.Histogram("txn.commit_wait_ns", "ns", "ApplyCommit duration per committed transaction (on eos: the WAL group-commit durability wait)"),
		detachedRetryDelayNs: r.Histogram("core.detached_retry_delay_ns", "ns", "backoff slept before each detached retry (§5.5 self-healing)"),
	}
}

// RegisterSubsystems registers the storage, txn and lock managers'
// metrics into r, each stated by the package that owns the counter,
// plus the obj.versions_* figures when the store keeps versions.
// Exported for tools (ode-inspect) that open the managers without a
// Database.
func RegisterSubsystems(r *obs.Registry, store storage.Manager, tm *txn.Manager, lm *lock.Manager) {
	store.RegisterMetrics(r)
	tm.RegisterMetrics(r)
	lm.RegisterMetrics(r)
	if v, ok := store.(storage.Versioned); ok {
		storage.RegisterVersionMetrics(r, v)
	}
}

// Observability returns the database's metric registry: the trigger
// engine's counters and latency histograms plus the storage, txn, and
// lock managers' counters. See docs/OBSERVABILITY.md for the full
// reference.
func (db *Database) Observability() *obs.Registry { return db.obsReg }

// Tracer returns the database's firing-trace recorder. Tracing is off by
// default; enable with db.Tracer().SetRate(n) to record one of every n
// postings into the ring buffer.
func (db *Database) Tracer() *obs.Tracer { return db.tracer }

// eventString renders an event ID for trace records ("CredCard::after
// Buy"). Only called on the sampled path.
func (db *Database) eventString(ev event.ID) string {
	if info, ok := db.reg.Info(ev); ok {
		return info.String()
	}
	return "?"
}

// wireObservability builds the registry, metric handles, and tracer for
// a new database and hooks the transaction manager's commit observer.
func wireObservability(store storage.Manager, tm *txn.Manager, lm *lock.Manager) (*obs.Registry, *coreMetrics, *obs.Tracer) {
	reg := obs.NewRegistry()
	met := newCoreMetrics(reg)
	RegisterSubsystems(reg, store, tm, lm)
	tm.SetCommitObserver(func(d time.Duration) { met.commitWaitNs.Observe(d.Nanoseconds()) })
	return reg, met, obs.NewTracer(obs.DefaultTraceCapacity)
}
