// Package lock implements the lock manager underlying Ode's storage layer:
// strict two-phase locking with shared/exclusive modes, lock upgrade, and
// immediate deadlock detection over a waits-for graph.
//
// The paper's §6 observes that "triggers turn read access into write
// access, increasing both the amount of time the transactions spend
// waiting for locks and the likelihood of deadlock" — advancing a
// trigger's FSM writes the trigger descriptor even when the triggering
// member function only read the object. Experiment E8 reproduces that
// effect on this lock manager, so the manager keeps counters for waits,
// upgrades, and deadlocks.
package lock

import (
	"errors"
	"fmt"
	"sync"

	"ode/internal/obs"
)

// TxnID identifies a lock-holding transaction.
type TxnID uint64

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Space namespaces lockable resources: Ode locks objects, trigger
// descriptors (the §5.1.3 "trigger descriptor" write), index entries, and
// catalog records independently.
type Space uint8

const (
	// SpaceObject covers persistent objects.
	SpaceObject Space = iota
	// SpaceTrigger covers TriggerState descriptors.
	SpaceTrigger
	// SpaceIndex covers the object → active-trigger index buckets.
	SpaceIndex
	// SpaceCluster covers cluster (extent) membership lists.
	SpaceCluster
	// SpaceMeta covers catalog/metatype records.
	SpaceMeta
)

// Resource names one lockable unit.
type Resource struct {
	Space Space
	ID    uint64
}

func (r Resource) String() string { return fmt.Sprintf("%d/%d", r.Space, r.ID) }

// ErrDeadlock is returned to the victim of a detected deadlock. The
// caller must abort its transaction and release its locks.
var ErrDeadlock = errors.New("lock: deadlock detected; transaction chosen as victim")

// waiter is one blocked request.
type waiter struct {
	txn     TxnID
	mode    Mode
	upgrade bool
	granted chan error // closed with nil on grant; receives ErrDeadlock on victimization
}

// entry is the lock table record for one resource.
type entry struct {
	holders map[TxnID]Mode
	queue   []*waiter
}

// Manager is the lock manager. All methods are safe for concurrent use.
type Manager struct {
	mu       sync.Mutex
	table    map[Resource]*entry
	held     map[TxnID]map[Resource]Mode // reverse index for ReleaseAll
	waitsFor map[TxnID]map[TxnID]int     // edge multiset for deadlock detection

	// Activity counters, exposed by RegisterMetrics; experiment E8
	// reads lock.upgrades and lock.waits.
	acquisitions, waits, upgrades, deadlocks obs.Counter
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		table:    make(map[Resource]*entry),
		held:     make(map[TxnID]map[Resource]Mode),
		waitsFor: make(map[TxnID]map[TxnID]int),
	}
}

// Lock acquires r in the given mode on behalf of txn, blocking until the
// lock is granted. It returns ErrDeadlock if granting would deadlock and
// txn was chosen as the victim; the caller must then abort txn. Requests
// for locks already held (at the same or stronger mode) succeed
// immediately; a Shared holder requesting Exclusive performs an upgrade.
func (m *Manager) Lock(txn TxnID, r Resource, mode Mode) error {
	m.mu.Lock()
	e := m.table[r]
	if e == nil {
		e = &entry{holders: make(map[TxnID]Mode)}
		m.table[r] = e
	}

	if cur, ok := e.holders[txn]; ok {
		if cur >= mode {
			m.acquisitions.Inc()
			m.mu.Unlock()
			return nil // re-entrant, same or stronger
		}
		// Upgrade S → X.
		m.upgrades.Inc()
		if len(e.holders) == 1 {
			e.holders[txn] = Exclusive
			m.recordHeld(txn, r, Exclusive)
			m.acquisitions.Inc()
			m.mu.Unlock()
			return nil
		}
		return m.wait(txn, r, e, mode, true)
	}

	if m.compatible(e, txn, mode) {
		e.holders[txn] = mode
		m.recordHeld(txn, r, mode)
		m.acquisitions.Inc()
		m.mu.Unlock()
		return nil
	}
	return m.wait(txn, r, e, mode, false)
}

// compatible reports whether txn may be granted mode on e right now:
// the request must not conflict with current holders, and — to prevent
// writer starvation — a new shared request must not overtake a queued
// upgrade or exclusive waiter.
func (m *Manager) compatible(e *entry, txn TxnID, mode Mode) bool {
	for h, hm := range e.holders {
		if h == txn {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	if mode == Shared {
		for _, w := range e.queue {
			if w.mode == Exclusive {
				return false
			}
		}
	}
	return true
}

// wait enqueues txn and blocks; m.mu must be held and is released.
func (m *Manager) wait(txn TxnID, r Resource, e *entry, mode Mode, upgrade bool) error {
	// Build waits-for edges: txn waits for every conflicting holder and
	// every queued waiter it must fall behind.
	blockers := m.blockersOf(e, txn, mode)
	for _, b := range blockers {
		m.addEdge(txn, b)
	}
	if m.cyclic(txn) {
		// txn is the victim: undo the edges and fail the request.
		for _, b := range blockers {
			m.removeEdge(txn, b)
		}
		m.deadlocks.Inc()
		m.mu.Unlock()
		return ErrDeadlock
	}
	m.waits.Inc()
	w := &waiter{txn: txn, mode: mode, upgrade: upgrade, granted: make(chan error, 1)}
	if upgrade {
		// Upgraders go to the front: they already hold Shared, so
		// granting anyone else Exclusive first is impossible anyway.
		e.queue = append([]*waiter{w}, e.queue...)
	} else {
		e.queue = append(e.queue, w)
	}
	m.mu.Unlock()

	err := <-w.granted
	return err
}

// blockersOf lists the transactions txn would wait for.
func (m *Manager) blockersOf(e *entry, txn TxnID, mode Mode) []TxnID {
	var out []TxnID
	for h, hm := range e.holders {
		if h == txn {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			out = append(out, h)
		}
	}
	for _, w := range e.queue {
		if w.txn != txn && (mode == Exclusive || w.mode == Exclusive) {
			out = append(out, w.txn)
		}
	}
	return out
}

func (m *Manager) addEdge(from, to TxnID) {
	edges := m.waitsFor[from]
	if edges == nil {
		edges = make(map[TxnID]int)
		m.waitsFor[from] = edges
	}
	edges[to]++
}

func (m *Manager) removeEdge(from, to TxnID) {
	edges := m.waitsFor[from]
	if edges == nil {
		return
	}
	if edges[to] <= 1 {
		delete(edges, to)
		if len(edges) == 0 {
			delete(m.waitsFor, from)
		}
	} else {
		edges[to]--
	}
}

// cyclic reports whether start can reach itself in the waits-for graph.
func (m *Manager) cyclic(start TxnID) bool {
	seen := make(map[TxnID]bool)
	var dfs func(TxnID) bool
	dfs = func(t TxnID) bool {
		for next := range m.waitsFor[t] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

func (m *Manager) recordHeld(txn TxnID, r Resource, mode Mode) {
	hs := m.held[txn]
	if hs == nil {
		hs = make(map[Resource]Mode)
		m.held[txn] = hs
	}
	hs[r] = mode
}

// Unlock releases txn's lock on r (early release; strict 2PL normally
// releases everything via ReleaseAll at commit/abort).
func (m *Manager) Unlock(txn TxnID, r Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.release(txn, r)
}

// release drops txn's hold on r and wakes grantable waiters. Callers hold m.mu.
func (m *Manager) release(txn TxnID, r Resource) {
	e := m.table[r]
	if e == nil {
		return
	}
	if _, ok := e.holders[txn]; !ok {
		return
	}
	delete(e.holders, txn)
	if hs := m.held[txn]; hs != nil {
		delete(hs, r)
		if len(hs) == 0 {
			delete(m.held, txn)
		}
	}
	m.grant(r, e)
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.table, r)
	}
}

// grant wakes queued waiters that are now compatible, front to back.
// Callers hold m.mu.
func (m *Manager) grant(r Resource, e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !m.grantable(e, w) {
			return
		}
		e.queue = e.queue[1:]
		// Tear down w's waits-for edges (w waits on one resource at a
		// time, so every outgoing edge belongs to this request).
		delete(m.waitsFor, w.txn)
		e.holders[w.txn] = w.mode
		m.recordHeld(w.txn, r, w.mode)
		w.granted <- nil
		m.acquisitions.Inc()
	}
}

// grantable reports whether the head waiter can run.
func (m *Manager) grantable(e *entry, w *waiter) bool {
	for h, hm := range e.holders {
		if h == w.txn {
			continue
		}
		if w.mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// ReleaseAll releases every lock txn holds and clears its wait state;
// called by the transaction manager at commit or abort.
func (m *Manager) ReleaseAll(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := m.held[txn]
	for r := range hs {
		m.release(txn, r)
	}
	delete(m.held, txn)
	delete(m.waitsFor, txn)
}

// HeldMode reports the mode txn holds on r (ok=false if none).
func (m *Manager) HeldMode(txn TxnID, r Resource) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.table[r]
	if e == nil {
		return 0, false
	}
	mode, ok := e.holders[txn]
	return mode, ok
}

// RegisterMetrics exposes the lock manager's counters on r. Names are
// documented in docs/OBSERVABILITY.md.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.Func("lock.acquisitions", "count", "granted lock requests, including re-entrant grants", m.acquisitions.Value)
	r.Func("lock.waits", "count", "lock requests that had to block", m.waits.Value)
	r.Func("lock.upgrades", "count", "shared-to-exclusive upgrades (the §6 read-to-write amplification)", m.upgrades.Value)
	r.Func("lock.deadlocks", "count", "deadlock victims aborted", m.deadlocks.Value)
}
