// Package storage defines the storage-manager interface beneath the Ode
// object manager. The paper's object manager "is built on top of a storage
// manager which provides much of the required database functionality such
// as locking, logging, transactions" (§2) and runs unchanged over either
// the disk-based EOS or the main-memory Dali (§5.6). This package is the
// seam that reproduces that property: the object manager and trigger
// engine are written against Manager and run byte-for-byte identically
// over the eos and dali implementations (experiment E10).
//
// Concurrency control lives above this interface (the lock manager
// serializes conflicting object access per transaction); a Manager only
// sees committed state. During a transaction, uncommitted writes are held
// in the transaction's write set; at commit they arrive here as one
// ApplyCommit batch, which the disk manager makes durable via its
// write-ahead log before applying.
package storage

import (
	"errors"
	"fmt"

	"ode/internal/obs"
)

// OID is a persistent object identifier — the run-time form of the
// paper's "pointer to a persistent object". OIDs are never reused.
type OID uint64

// InvalidOID is the zero, never-allocated OID (the persistent null).
const InvalidOID OID = 0

// ErrNotFound reports a read/write/free of an OID with no committed data.
var ErrNotFound = errors.New("storage: object not found")

// ErrReadOnly reports a write to a store serving as a read replica.
// Only the replication applier may mutate such a store; everyone else
// must be redirected to the primary.
var ErrReadOnly = errors.New("storage: store is read-only (replica)")

// OpKind tags one operation inside a commit batch.
type OpKind uint8

const (
	// OpWrite creates or replaces an object's committed image.
	OpWrite OpKind = iota + 1
	// OpFree deletes an object.
	OpFree
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpFree:
		return "free"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one effect of a committed transaction.
type Op struct {
	Kind OpKind
	OID  OID
	Data []byte // OpWrite only
}

// VersionStats counts multi-version (MVCC) activity in a Versioned
// manager; RegisterVersionMetrics serves each field as an
// obj.versions_* metric.
type VersionStats struct {
	VersionsLive         uint64 // versions currently retained across all chains
	VersionsChains       uint64 // objects with a non-empty version chain
	VersionsChainMax     uint64 // longest current chain
	VersionsAppended     uint64 // versions stamped by committed writes
	VersionsPreimages    uint64 // pre-images captured on first write
	VersionsTrimmed      uint64 // versions reclaimed by GC
	VersionsGcRuns       uint64 // GC passes (auto + explicit)
	VersionsPins         uint64 // snapshots currently pinned
	VersionsOldestPinLsn uint64 // oldest pinned snapshot LSN (0 = none)
}

// Versioned is the optional MVCC extension of Manager. A manager that
// implements it stamps every committed write with its commit LSN and can
// serve reads as of any pinned LSN without coordination with the lock
// manager — the substrate for txn.BeginSnapshot.
type Versioned interface {
	// SnapshotLSN returns the newest commit LSN a snapshot taken now
	// would observe (the durable, fully applied prefix).
	SnapshotLSN() uint64

	// PinSnapshot pins the current SnapshotLSN against version GC and
	// returns it. Every pin must be paired with one UnpinSnapshot.
	PinSnapshot() uint64

	// UnpinSnapshot releases a pin taken by PinSnapshot.
	UnpinSnapshot(lsn uint64)

	// ReadAt returns the committed image of oid as of lsn (the newest
	// version ≤ lsn). It returns ErrNotFound if the object did not
	// exist — or had been freed — at that point.
	ReadAt(oid OID, lsn uint64) ([]byte, error)

	// ExistsAt reports whether oid had a committed image as of lsn.
	ExistsAt(oid OID, lsn uint64) bool

	// VersionStats returns a snapshot of version-chain counters.
	VersionStats() VersionStats

	// GCVersions trims versions unreachable by every pinned snapshot
	// and returns how many were reclaimed.
	GCVersions() uint64
}

// RegisterVersionMetrics exposes v's version-chain figures on r as the
// obj.versions_* metrics: they describe what versions of objects
// snapshot readers can see.
func RegisterVersionMetrics(r *obs.Registry, v Versioned) {
	for _, m := range []struct {
		name, unit, help string
		field            func(VersionStats) uint64
	}{
		{"obj.versions_live", "count", "versions currently held across all chains (gauge)",
			func(s VersionStats) uint64 { return s.VersionsLive }},
		{"obj.versions_chains", "count", "objects with a live version chain (gauge)",
			func(s VersionStats) uint64 { return s.VersionsChains }},
		{"obj.versions_chain_max", "count", "longest single chain (gauge)",
			func(s VersionStats) uint64 { return s.VersionsChainMax }},
		{"obj.versions_appended", "count", "versions appended by committed writes",
			func(s VersionStats) uint64 { return s.VersionsAppended }},
		{"obj.versions_preimages", "count", "base images captured on a chain's first stamp (serve snapshots pinned before the first versioned write)",
			func(s VersionStats) uint64 { return s.VersionsPreimages }},
		{"obj.versions_trimmed", "count", "versions reclaimed by GC",
			func(s VersionStats) uint64 { return s.VersionsTrimmed }},
		{"obj.versions_gc_runs", "count", "GC sweeps, automatic and explicit",
			func(s VersionStats) uint64 { return s.VersionsGcRuns }},
		{"obj.versions_pins", "count", "snapshots currently pinned — every open snapshot counts, including several at one LSN (gauge)",
			func(s VersionStats) uint64 { return s.VersionsPins }},
		{"obj.versions_oldest_pin_lsn", "lsn", "oldest pinned snapshot LSN — the GC retention floor when anything is pinned (gauge; 0 when nothing is pinned)",
			func(s VersionStats) uint64 { return s.VersionsOldestPinLsn }},
	} {
		r.Func(m.name, m.unit, m.help, func() uint64 { return m.field(v.VersionStats()) })
	}
}

// Manager is the storage-manager seam shared by eos and dali.
type Manager interface {
	// Name identifies the implementation ("eos" or "dali").
	Name() string

	// ReserveOID hands out a fresh, never-used OID. The reservation
	// itself is volatile; the OID becomes durable when a commit batch
	// first writes it.
	ReserveOID() (OID, error)

	// Read returns the committed image of oid (a copy the caller may
	// keep). It returns ErrNotFound for unknown or freed OIDs.
	Read(oid OID) ([]byte, error)

	// Exists reports whether oid has a committed image.
	Exists(oid OID) bool

	// ApplyCommit durably applies one transaction's effects. On return
	// the batch is recoverable: either entirely visible after a crash or
	// (if the crash hit mid-call) entirely invisible.
	ApplyCommit(txn uint64, ops []Op) error

	// Iterate calls fn for every live object, in unspecified order,
	// until fn returns an error (which is propagated).
	Iterate(fn func(OID, []byte) error) error

	// Checkpoint bounds recovery work: it makes the current state
	// durable in the primary store and discards the log prefix.
	Checkpoint() error

	// RegisterMetrics exposes the manager's storage.* counters on r
	// (names in docs/OBSERVABILITY.md).
	RegisterMetrics(r *obs.Registry)

	// Close releases resources; the manager is unusable afterwards.
	Close() error
}
