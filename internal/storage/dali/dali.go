// Package dali is the main-memory storage manager: the analog of the Dali
// store under MM-Ode (§2, §5.6). It implements storage.Manager with plain
// in-process memory, no buffer pool and no I/O on the access path, which is
// exactly the property experiment E10 measures against the disk-based eos
// manager.
//
// Substitution note (see DESIGN.md): the original Dali is a shared-memory
// storage manager with its own checkpointing and recovery. This analog
// reproduces the property the paper relies on — the object manager and
// trigger run-time execute unchanged over a memory-resident store — and
// supports Checkpoint as an optional snapshot-to-file so the credit-card
// demo can persist across process runs when asked to.
package dali

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"ode/internal/storage"
	"ode/internal/storage/vstore"
)

// Manager is the main-memory storage manager.
type Manager struct {
	mu      sync.RWMutex
	objects map[storage.OID][]byte
	nextOID storage.OID
	stats   storage.Stats
	// commitLSN numbers ApplyCommit batches (there is no WAL, so the
	// commit ordinal is the store's LSN); versions holds the
	// commit-LSN-stamped chains behind storage.Versioned. Both are
	// guarded by mu: written under the exclusive lock, and vstore
	// lookups (pure reads) run under the shared lock.
	commitLSN uint64
	versions  *vstore.Store
	// reads is kept out of stats (which mu guards) so the read path
	// needs only the shared lock — reads never serialize behind commits,
	// mirroring the eos commit/read decoupling.
	reads atomic.Uint64
	// snapshotPath, when non-empty, is where Checkpoint persists and Open
	// loads a point-in-time image of the store.
	snapshotPath string
	closed       bool
	// oidFilter, when set, restricts which OIDs ReserveOID may mint —
	// the sharding hook: each shard allocates only the OIDs its ring
	// slice owns, skipping the rest (see internal/shard).
	oidFilter func(uint64) bool
}

// New returns an empty, purely volatile manager.
func New() *Manager {
	return &Manager{objects: make(map[storage.OID][]byte), nextOID: 1, versions: vstore.New()}
}

// Open returns a manager that loads from — and checkpoints to — the
// snapshot file at path, creating it on first use.
func Open(path string) (*Manager, error) {
	m := New()
	m.snapshotPath = path
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dali: open snapshot: %w", err)
	}
	defer f.Close()
	if err := m.loadSnapshot(bufio.NewReader(f)); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements storage.Manager.
func (m *Manager) Name() string { return "dali" }

// SetOIDFilter installs (or clears, with nil) the allocation
// predicate: ReserveOID skips OIDs the filter rejects. A sharded
// deployment installs the ring's filter so every OID minted here is
// owned here; reads and applies are unaffected (a replica may hold
// remote-owned images).
func (m *Manager) SetOIDFilter(allow func(uint64) bool) {
	m.mu.Lock()
	m.oidFilter = allow
	m.mu.Unlock()
}

// ReserveOID implements storage.Manager.
func (m *Manager) ReserveOID() (storage.OID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return storage.InvalidOID, errClosed
	}
	oid := m.nextOID
	for i := 0; m.oidFilter != nil && !m.oidFilter(uint64(oid)); i++ {
		if i >= oidFilterScanCap {
			return storage.InvalidOID, errOIDFilterStuck
		}
		oid++
	}
	m.nextOID = oid + 1
	return oid, nil
}

// oidFilterScanCap bounds the filter skip scan: a consistent-hash
// slice admits roughly one OID in N, so a scan past a million rejects
// means the filter is broken (owns nothing), not unlucky.
const oidFilterScanCap = 1 << 20

var errOIDFilterStuck = fmt.Errorf("dali: OID filter rejected %d consecutive OIDs", oidFilterScanCap)

var errClosed = fmt.Errorf("dali: manager closed")

// Read implements storage.Manager. Only the shared lock is taken:
// concurrent readers proceed in parallel and never wait behind a
// committer's exclusive section.
func (m *Manager) Read(oid storage.OID) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.objects[oid]
	if !ok {
		m.mu.RUnlock()
		return nil, fmt.Errorf("%w: oid %d", storage.ErrNotFound, oid)
	}
	out := make([]byte, len(data))
	copy(out, data)
	m.mu.RUnlock()
	m.reads.Add(1)
	return out, nil
}

// Exists implements storage.Manager.
func (m *Manager) Exists(oid storage.OID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.objects[oid]
	return ok
}

// ApplyCommit implements storage.Manager. In main memory the batch is
// applied directly; "durability" is the store's residence in memory, as in
// MM-Ode (snapshotting is explicit via Checkpoint).
func (m *Manager) ApplyCommit(txn uint64, ops []storage.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	// Reject malformed batches before stamping: once a batch is stamped
	// the apply below must not fail, or chains would record images the
	// object map never received.
	for _, op := range ops {
		if op.Kind != storage.OpWrite && op.Kind != storage.OpFree {
			return fmt.Errorf("dali: unknown op kind %v", op.Kind)
		}
	}
	if len(ops) > 0 {
		m.commitLSN++
		m.versions.Stamp(m.commitLSN, ops, func(oid storage.OID) ([]byte, bool) {
			img, ok := m.objects[oid]
			return img, ok
		})
	}
	for _, op := range ops {
		switch op.Kind {
		case storage.OpWrite:
			img := make([]byte, len(op.Data))
			copy(img, op.Data)
			m.objects[op.OID] = img
			if op.OID >= m.nextOID {
				m.nextOID = op.OID + 1
			}
			m.stats.Writes++
		case storage.OpFree:
			delete(m.objects, op.OID)
			m.stats.Frees++
		}
	}
	return nil
}

// Iterate implements storage.Manager.
func (m *Manager) Iterate(fn func(storage.OID, []byte) error) error {
	// Copy the snapshot of entries to avoid holding the lock across fn.
	m.mu.RLock()
	oids := make([]storage.OID, 0, len(m.objects))
	for oid := range m.objects {
		oids = append(oids, oid)
	}
	m.mu.RUnlock()
	for _, oid := range oids {
		m.mu.RLock()
		data, ok := m.objects[oid]
		m.mu.RUnlock()
		if !ok {
			continue // freed since the snapshot
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if err := fn(oid, cp); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint implements storage.Manager. Without a snapshot path it is a
// no-op (a purely volatile store).
func (m *Manager) Checkpoint() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.snapshotPath == "" {
		return nil
	}
	tmp := m.snapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dali: checkpoint: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := m.writeSnapshot(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dali: checkpoint flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dali: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, m.snapshotPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dali: checkpoint rename: %w", err)
	}
	return nil
}

// Snapshot format: u64 nextOID, then per object:
// u64 oid | u32 len | data | u32 crc(data).
func (m *Manager) writeSnapshot(w io.Writer) error {
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.nextOID))
	if _, err := w.Write(buf[:8]); err != nil {
		return err
	}
	for oid, data := range m.objects {
		binary.LittleEndian.PutUint64(buf[:8], uint64(oid))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(len(data)))
		if _, err := w.Write(buf[:12]); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(data))
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) loadSnapshot(r io.Reader) error {
	var buf [12]byte
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		if err == io.EOF {
			return nil // empty snapshot
		}
		return fmt.Errorf("dali: snapshot header: %w", err)
	}
	m.nextOID = storage.OID(binary.LittleEndian.Uint64(buf[:8]))
	if m.nextOID == 0 {
		m.nextOID = 1
	}
	for {
		if _, err := io.ReadFull(r, buf[:12]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("dali: snapshot entry: %w", err)
		}
		oid := storage.OID(binary.LittleEndian.Uint64(buf[:8]))
		n := binary.LittleEndian.Uint32(buf[8:12])
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return fmt.Errorf("dali: snapshot data: %w", err)
		}
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return fmt.Errorf("dali: snapshot crc: %w", err)
		}
		if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(buf[:4]) {
			return fmt.Errorf("dali: snapshot corrupt at oid %d", oid)
		}
		m.objects[oid] = data
	}
}

// --- MVCC surface (storage.Versioned) ---------------------------------------

var _ storage.Versioned = (*Manager)(nil)

// SnapshotLSN implements storage.Versioned.
func (m *Manager) SnapshotLSN() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.versions.Durable()
}

// PinSnapshot implements storage.Versioned.
func (m *Manager) PinSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions.Pin()
}

// UnpinSnapshot implements storage.Versioned.
func (m *Manager) UnpinSnapshot(lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.versions.Unpin(lsn)
}

// ReadAt implements storage.Versioned. Like Read it takes only the
// shared lock: version lookups are pure reads, and stamping happens
// inside ApplyCommit's exclusive section.
func (m *Manager) ReadAt(oid storage.OID, lsn uint64) ([]byte, error) {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return nil, errClosed
	}
	if data, live, resolved := m.versions.Lookup(oid, lsn); resolved {
		m.mu.RUnlock()
		if !live {
			return nil, fmt.Errorf("%w: oid %d as of lsn %d", storage.ErrNotFound, oid, lsn)
		}
		m.reads.Add(1)
		return data, nil
	}
	data, ok := m.objects[oid]
	if !ok {
		m.mu.RUnlock()
		return nil, fmt.Errorf("%w: oid %d", storage.ErrNotFound, oid)
	}
	out := make([]byte, len(data))
	copy(out, data)
	m.mu.RUnlock()
	m.reads.Add(1)
	return out, nil
}

// ExistsAt implements storage.Versioned.
func (m *Manager) ExistsAt(oid storage.OID, lsn uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false
	}
	if _, live, resolved := m.versions.Lookup(oid, lsn); resolved {
		return live
	}
	_, ok := m.objects[oid]
	return ok
}

// VersionStats implements storage.Versioned.
func (m *Manager) VersionStats() storage.VersionStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.versions.Stats()
}

// GCVersions implements storage.Versioned.
func (m *Manager) GCVersions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions.GC()
}

// Stats implements storage.Manager.
func (m *Manager) Stats() storage.Stats {
	m.mu.RLock()
	st := m.stats
	m.mu.RUnlock()
	st.Reads = m.reads.Load()
	return st
}

// Len reports the number of live objects (tests use this).
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objects)
}

// Close implements storage.Manager.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
