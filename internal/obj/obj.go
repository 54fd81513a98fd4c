// Package obj implements the Ode object manager's storage-facing half:
// persistent objects with typed headers, the per-database class catalog
// (the analog of the paper's per-database metatype objects, §5.4.1), the
// hash index mapping an object to its active triggers (§5.1.3), and
// clusters of persistent objects (§2).
//
// Every persistent object image is an envelope:
//
//	u8 version | u8 flags | u32 class ID | payload
//
// The flags byte is the "persistent object's control information" of
// §5.4.5 footnote 3: FlagHasTriggers is the fast-path bit that lets
// PostEvent skip the trigger-index lookup entirely for objects with no
// active triggers, and FlagTxnEvents marks objects whose class expressed
// interest in transaction events (§5.5's transaction-event object list is
// populated when such an object is first accessed in a transaction).
package obj

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"ode/internal/lock"
	"ode/internal/storage"
	"ode/internal/txn"
)

// Envelope flag bits.
const (
	// FlagTxnEvents marks objects interested in transaction events.
	FlagTxnEvents uint8 = 1 << 0
	// FlagHasTriggers marks objects with at least one active trigger.
	FlagHasTriggers uint8 = 1 << 1
)

// Reserved OIDs.
const (
	// CatalogOID is the database catalog root.
	CatalogOID storage.OID = 1
	// NumBuckets is the trigger-index bucket count; buckets occupy OIDs
	// [FirstBucketOID, FirstBucketOID+NumBuckets).
	NumBuckets = 16
	// FirstBucketOID is the first trigger-index bucket.
	FirstBucketOID storage.OID = 2
	// FirstUserOID is the first OID handed to applications.
	FirstUserOID storage.OID = FirstBucketOID + NumBuckets
)

const envelopeHeader = 6

// ErrWrongClass reports a typed load whose stored class differs.
var ErrWrongClass = errors.New("obj: object has a different class")

// Header is the decoded envelope header.
type Header struct {
	Version uint8
	Flags   uint8
	ClassID uint32
}

// EncodeEnvelope prefixes payload with an envelope header.
func EncodeEnvelope(h Header, payload []byte) []byte {
	out := make([]byte, envelopeHeader+len(payload))
	out[0] = 1
	out[1] = h.Flags
	binary.LittleEndian.PutUint32(out[2:6], h.ClassID)
	copy(out[envelopeHeader:], payload)
	return out
}

// DecodeEnvelope splits an image into header and payload (payload aliases
// the input).
func DecodeEnvelope(img []byte) (Header, []byte, error) {
	if len(img) < envelopeHeader {
		return Header{}, nil, fmt.Errorf("obj: image too short (%d bytes)", len(img))
	}
	if img[0] != 1 {
		return Header{}, nil, fmt.Errorf("obj: unsupported envelope version %d", img[0])
	}
	h := Header{
		Version: img[0],
		Flags:   img[1],
		ClassID: binary.LittleEndian.Uint32(img[2:6]),
	}
	return h, img[envelopeHeader:], nil
}

// catalog is the persistent database catalog.
type catalog struct {
	NextClassID uint32
	Classes     map[string]uint32 // class name -> class ID
	Clusters    map[string]uint64 // cluster name -> cluster object OID
	// Named maps well-known singleton records (sharding watermarks,
	// future metadata) to their OIDs. nil in catalogs written before the
	// field existed; every use guards for that.
	Named map[string]uint64
}

// cluster is a persistent set of object OIDs with insertion order.
type cluster struct {
	Name    string
	Members []uint64
}

// bucket is one trigger-index bucket: object OID -> trigger-state OIDs.
type bucket struct {
	Entries map[uint64][]uint64
}

// Manager is the object manager for one database.
type Manager struct {
	tm *txn.Manager
}

// New binds an object manager to tm's store, bootstrapping the catalog
// and trigger-index buckets on first use.
func New(tm *txn.Manager) (*Manager, error) {
	m := &Manager{tm: tm}
	if tm.Store().Exists(CatalogOID) {
		return m, nil
	}
	boot := tm.BeginSystem()
	if err := boot.LockExclusive(catalogRes()); err != nil {
		return nil, err
	}
	if tm.Store().Exists(CatalogOID) { // raced with another bootstrap
		boot.Abort()
		return m, nil
	}
	// Burn reserved OIDs so user objects start at FirstUserOID.
	for {
		oid, err := boot.NewOID()
		if err != nil {
			boot.Abort()
			return nil, err
		}
		if oid >= FirstUserOID-1 {
			break
		}
	}
	cat := catalog{NextClassID: 1, Classes: map[string]uint32{}, Clusters: map[string]uint64{}}
	if err := writeGob(boot, CatalogOID, &cat); err != nil {
		boot.Abort()
		return nil, err
	}
	for i := storage.OID(0); i < NumBuckets; i++ {
		b := bucket{Entries: map[uint64][]uint64{}}
		if err := writeGob(boot, FirstBucketOID+i, &b); err != nil {
			boot.Abort()
			return nil, err
		}
	}
	if err := boot.Commit(); err != nil {
		return nil, fmt.Errorf("obj: bootstrap: %w", err)
	}
	return m, nil
}

// Txns exposes the transaction manager.
func (m *Manager) Txns() *txn.Manager { return m.tm }

func catalogRes() lock.Resource { return lock.Resource{Space: lock.SpaceMeta, ID: uint64(CatalogOID)} }

func objRes(oid storage.OID) lock.Resource {
	return lock.Resource{Space: lock.SpaceObject, ID: uint64(oid)}
}

func trigRes(oid storage.OID) lock.Resource {
	return lock.Resource{Space: lock.SpaceTrigger, ID: uint64(oid)}
}

func bucketOf(oid storage.OID) storage.OID {
	return FirstBucketOID + storage.OID(uint64(oid)%NumBuckets)
}

func bucketRes(b storage.OID) lock.Resource {
	return lock.Resource{Space: lock.SpaceIndex, ID: uint64(b)}
}

func writeGob(tx *txn.Txn, oid storage.OID, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("obj: encode %T: %w", v, err)
	}
	return tx.Write(oid, buf.Bytes())
}

func readGob(tx *txn.Txn, oid storage.OID, v any) error {
	img, err := tx.Read(oid)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(v); err != nil {
		return fmt.Errorf("obj: decode %T: %w", v, err)
	}
	return nil
}

// --- catalog ---------------------------------------------------------------

// EnsureClass returns the class ID for name, registering it if new. The
// catalog write happens inside tx.
func (m *Manager) EnsureClass(tx *txn.Txn, name string) (uint32, error) {
	if err := tx.LockExclusive(catalogRes()); err != nil {
		return 0, err
	}
	var cat catalog
	if err := readGob(tx, CatalogOID, &cat); err != nil {
		return 0, err
	}
	if id, ok := cat.Classes[name]; ok {
		return id, nil
	}
	id := cat.NextClassID
	cat.NextClassID++
	cat.Classes[name] = id
	if err := writeGob(tx, CatalogOID, &cat); err != nil {
		return 0, err
	}
	return id, nil
}

// LookupClass returns the class ID for name (false if unregistered).
func (m *Manager) LookupClass(tx *txn.Txn, name string) (uint32, bool, error) {
	if err := tx.LockShared(catalogRes()); err != nil {
		return 0, false, err
	}
	var cat catalog
	if err := readGob(tx, CatalogOID, &cat); err != nil {
		return 0, false, err
	}
	id, ok := cat.Classes[name]
	return id, ok, nil
}

// ClassNames returns the registered class names keyed by ID.
func (m *Manager) ClassNames(tx *txn.Txn) (map[uint32]string, error) {
	if err := tx.LockShared(catalogRes()); err != nil {
		return nil, err
	}
	var cat catalog
	if err := readGob(tx, CatalogOID, &cat); err != nil {
		return nil, err
	}
	out := make(map[uint32]string, len(cat.Classes))
	for name, id := range cat.Classes {
		out[id] = name
	}
	return out, nil
}

// --- objects ---------------------------------------------------------------

// Create allocates a new persistent object (the pnew path). The caller
// supplies the encoded payload and initial flags.
func (m *Manager) Create(tx *txn.Txn, classID uint32, flags uint8, payload []byte) (storage.OID, error) {
	oid, err := tx.NewOID()
	if err != nil {
		return storage.InvalidOID, err
	}
	if err := tx.LockExclusive(objRes(oid)); err != nil {
		return storage.InvalidOID, err
	}
	img := EncodeEnvelope(Header{Flags: flags, ClassID: classID}, payload)
	if err := tx.Write(oid, img); err != nil {
		return storage.InvalidOID, err
	}
	return oid, nil
}

// Load reads an object under a shared lock (or exclusive when forWrite).
func (m *Manager) Load(tx *txn.Txn, oid storage.OID, forWrite bool) (Header, []byte, error) {
	var err error
	if forWrite {
		err = tx.LockExclusive(objRes(oid))
	} else {
		err = tx.LockShared(objRes(oid))
	}
	if err != nil {
		return Header{}, nil, err
	}
	img, err := tx.Read(oid)
	if err != nil {
		return Header{}, nil, err
	}
	return decodeOwned(img)
}

func decodeOwned(img []byte) (Header, []byte, error) {
	h, payload, err := DecodeEnvelope(img)
	if err != nil {
		return Header{}, nil, err
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return h, out, nil
}

// Update rewrites an object's payload, preserving header flags.
func (m *Manager) Update(tx *txn.Txn, oid storage.OID, payload []byte) error {
	h, _, err := m.Load(tx, oid, true)
	if err != nil {
		return err
	}
	return tx.Write(oid, EncodeEnvelope(h, payload))
}

// SetFlags rewrites an object's flags byte (or-in set, and-out clear).
func (m *Manager) SetFlags(tx *txn.Txn, oid storage.OID, set, clear uint8) error {
	h, payload, err := m.Load(tx, oid, true)
	if err != nil {
		return err
	}
	h.Flags = (h.Flags | set) &^ clear
	return tx.Write(oid, EncodeEnvelope(h, payload))
}

// Delete removes an object (the pdelete path). The object's trigger-index
// entry, if any, is removed too.
func (m *Manager) Delete(tx *txn.Txn, oid storage.OID) error {
	h, _, err := m.Load(tx, oid, true)
	if err != nil {
		return err
	}
	if h.Flags&FlagHasTriggers != 0 {
		if err := m.dropIndexEntry(tx, oid); err != nil {
			return err
		}
	}
	return tx.Free(oid)
}

// --- trigger index -----------------------------------------------------------

// AddTrigger maps objOID -> trigOID in the trigger index and sets the
// object's fast-path bit.
func (m *Manager) AddTrigger(tx *txn.Txn, objOID, trigOID storage.OID) error {
	b := bucketOf(objOID)
	if err := tx.LockExclusive(bucketRes(b)); err != nil {
		return err
	}
	var bk bucket
	if err := readGob(tx, b, &bk); err != nil {
		return err
	}
	bk.Entries[uint64(objOID)] = append(bk.Entries[uint64(objOID)], uint64(trigOID))
	if err := writeGob(tx, b, &bk); err != nil {
		return err
	}
	return m.SetFlags(tx, objOID, FlagHasTriggers, 0)
}

// RemoveTrigger unmaps objOID -> trigOID, clearing the fast-path bit when
// the last trigger goes.
func (m *Manager) RemoveTrigger(tx *txn.Txn, objOID, trigOID storage.OID) error {
	b := bucketOf(objOID)
	if err := tx.LockExclusive(bucketRes(b)); err != nil {
		return err
	}
	var bk bucket
	if err := readGob(tx, b, &bk); err != nil {
		return err
	}
	list := bk.Entries[uint64(objOID)]
	out := list[:0]
	for _, id := range list {
		if id != uint64(trigOID) {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		delete(bk.Entries, uint64(objOID))
	} else {
		bk.Entries[uint64(objOID)] = out
	}
	if err := writeGob(tx, b, &bk); err != nil {
		return err
	}
	if len(out) == 0 {
		return m.SetFlags(tx, objOID, 0, FlagHasTriggers)
	}
	return nil
}

// dropIndexEntry removes every index entry for objOID (object deletion).
func (m *Manager) dropIndexEntry(tx *txn.Txn, objOID storage.OID) error {
	b := bucketOf(objOID)
	if err := tx.LockExclusive(bucketRes(b)); err != nil {
		return err
	}
	var bk bucket
	if err := readGob(tx, b, &bk); err != nil {
		return err
	}
	if _, ok := bk.Entries[uint64(objOID)]; !ok {
		return nil
	}
	delete(bk.Entries, uint64(objOID))
	return writeGob(tx, b, &bk)
}

// TriggersOn returns the trigger-state OIDs active on objOID, sorted.
// This is PostEvent's index lookup (§5.4.5 step 1).
func (m *Manager) TriggersOn(tx *txn.Txn, objOID storage.OID) ([]storage.OID, error) {
	b := bucketOf(objOID)
	if err := tx.LockShared(bucketRes(b)); err != nil {
		return nil, err
	}
	var bk bucket
	if err := readGob(tx, b, &bk); err != nil {
		return nil, err
	}
	list := bk.Entries[uint64(objOID)]
	out := make([]storage.OID, len(list))
	for i, id := range list {
		out[i] = storage.OID(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// --- trigger-state objects ---------------------------------------------------

// CreateTriggerState stores a trigger-state object (the persistent
// TriggerState of §5.4.1) and returns its OID.
func (m *Manager) CreateTriggerState(tx *txn.Txn, payload []byte) (storage.OID, error) {
	oid, err := tx.NewOID()
	if err != nil {
		return storage.InvalidOID, err
	}
	if err := tx.LockExclusive(trigRes(oid)); err != nil {
		return storage.InvalidOID, err
	}
	if err := tx.Write(oid, payload); err != nil {
		return storage.InvalidOID, err
	}
	return oid, nil
}

// LoadTriggerState reads a trigger-state object. Advancing an FSM writes
// the descriptor, so forWrite acquires the exclusive lock — this is the
// read-becomes-write amplification of §6.
func (m *Manager) LoadTriggerState(tx *txn.Txn, oid storage.OID, forWrite bool) ([]byte, error) {
	var err error
	if forWrite {
		err = tx.LockExclusive(trigRes(oid))
	} else {
		err = tx.LockShared(trigRes(oid))
	}
	if err != nil {
		return nil, err
	}
	return tx.Read(oid)
}

// UpdateTriggerState rewrites a trigger-state object.
func (m *Manager) UpdateTriggerState(tx *txn.Txn, oid storage.OID, payload []byte) error {
	if err := tx.LockExclusive(trigRes(oid)); err != nil {
		return err
	}
	return tx.Write(oid, payload)
}

// DeleteTriggerState removes a trigger-state object (deactivate).
func (m *Manager) DeleteTriggerState(tx *txn.Txn, oid storage.OID) error {
	if err := tx.LockExclusive(trigRes(oid)); err != nil {
		return err
	}
	return tx.Free(oid)
}

// --- clusters ---------------------------------------------------------------

// EnsureCluster returns the OID of the named cluster, creating it if
// needed.
func (m *Manager) EnsureCluster(tx *txn.Txn, name string) (storage.OID, error) {
	if err := tx.LockExclusive(catalogRes()); err != nil {
		return storage.InvalidOID, err
	}
	var cat catalog
	if err := readGob(tx, CatalogOID, &cat); err != nil {
		return storage.InvalidOID, err
	}
	if oid, ok := cat.Clusters[name]; ok {
		return storage.OID(oid), nil
	}
	oid, err := tx.NewOID()
	if err != nil {
		return storage.InvalidOID, err
	}
	if err := writeGob(tx, oid, &cluster{Name: name}); err != nil {
		return storage.InvalidOID, err
	}
	cat.Clusters[name] = uint64(oid)
	if err := writeGob(tx, CatalogOID, &cat); err != nil {
		return storage.InvalidOID, err
	}
	return oid, nil
}

// ClusterAdd appends oid to the named cluster.
func (m *Manager) ClusterAdd(tx *txn.Txn, name string, oid storage.OID) error {
	coid, err := m.EnsureCluster(tx, name)
	if err != nil {
		return err
	}
	if err := tx.LockExclusive(lock.Resource{Space: lock.SpaceCluster, ID: uint64(coid)}); err != nil {
		return err
	}
	var c cluster
	if err := readGob(tx, coid, &c); err != nil {
		return err
	}
	for _, m := range c.Members {
		if m == uint64(oid) {
			return nil // already present
		}
	}
	c.Members = append(c.Members, uint64(oid))
	return writeGob(tx, coid, &c)
}

// ClusterRemove removes oid from the named cluster (no-op if absent).
func (m *Manager) ClusterRemove(tx *txn.Txn, name string, oid storage.OID) error {
	coid, ok, err := m.lookupCluster(tx, name)
	if err != nil || !ok {
		return err
	}
	if err := tx.LockExclusive(lock.Resource{Space: lock.SpaceCluster, ID: uint64(coid)}); err != nil {
		return err
	}
	var c cluster
	if err := readGob(tx, coid, &c); err != nil {
		return err
	}
	out := c.Members[:0]
	for _, m := range c.Members {
		if m != uint64(oid) {
			out = append(out, m)
		}
	}
	c.Members = out
	return writeGob(tx, coid, &c)
}

func (m *Manager) lookupCluster(tx *txn.Txn, name string) (storage.OID, bool, error) {
	if err := tx.LockShared(catalogRes()); err != nil {
		return storage.InvalidOID, false, err
	}
	var cat catalog
	if err := readGob(tx, CatalogOID, &cat); err != nil {
		return storage.InvalidOID, false, err
	}
	oid, ok := cat.Clusters[name]
	return storage.OID(oid), ok, nil
}

// ClusterScan iterates the named cluster in insertion order (the O++
// "for ... in cluster" loop). Unknown clusters scan zero objects.
func (m *Manager) ClusterScan(tx *txn.Txn, name string, fn func(storage.OID) error) error {
	coid, ok, err := m.lookupCluster(tx, name)
	if err != nil || !ok {
		return err
	}
	if err := tx.LockShared(lock.Resource{Space: lock.SpaceCluster, ID: uint64(coid)}); err != nil {
		return err
	}
	var c cluster
	if err := readGob(tx, coid, &c); err != nil {
		return err
	}
	for _, member := range c.Members {
		if err := fn(storage.OID(member)); err != nil {
			return err
		}
	}
	return nil
}
