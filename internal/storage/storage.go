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

// Stats counts storage activity; experiment E10 and the bench/ ledger
// report these alongside throughput.
type Stats struct {
	Reads      uint64 // object reads served
	Writes     uint64 // object writes applied
	Frees      uint64 // objects freed
	PageReads  uint64 // pages fetched from disk (eos only)
	PageWrites uint64 // pages written to disk (eos only)
	CacheHits  uint64 // buffer-pool hits (eos only)
	LogBytes   uint64 // WAL bytes appended (eos only)

	// Group-commit observability (eos only; see internal/wal).
	Fsyncs       uint64 // WAL fsyncs issued
	GroupCommits uint64 // commits made durable (GroupCommits/Fsyncs = avg batch)
	BatchMin     uint64 // smallest commits-per-fsync batch seen
	BatchMax     uint64 // largest commits-per-fsync batch seen
	CommitWaitNs uint64 // total time committers waited for durability
	WALHeals     uint64 // sticky WAL sync errors cleared by self-healing (eos only)

	// Checkpoint observability (eos only).
	Checkpoints       uint64 // checkpoints taken (explicit + auto)
	WALTruncatedBytes uint64 // log bytes reclaimed by checkpoint truncation
}

// VersionStats counts multi-version (MVCC) activity in a Versioned
// manager. Field names surface as obj.versions_* metrics via
// obs.RegisterStats.
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

	// Stats returns a snapshot of activity counters.
	Stats() Stats

	// Close releases resources; the manager is unusable afterwards.
	Close() error
}
