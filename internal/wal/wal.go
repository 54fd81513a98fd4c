// Package wal implements the write-ahead log used by the disk-based
// storage manager (the EOS analog). The paper's storage managers provide
// "locking, logging, transactions" (§2); this log supplies the logging and
// durability half.
//
// The log is redo-only under a no-steal policy: a transaction's updates
// are buffered by the transaction manager and reach the log only at
// commit, as a single batch terminated by a commit record. Recovery
// therefore replays exactly the transactions whose commit record
// survived; a torn tail (partial batch from a crash mid-commit) is
// detected by CRC and truncated. In-transaction rollback — including the
// rollback of trigger FSM states required by §5.5 — never touches the log;
// it is served from in-memory before-images.
//
// Durability uses group commit: AppendCommit buffers a transaction's
// records (contiguously, under the append lock) and WaitDurable blocks
// until an fsync covers them. Committers that arrive while an fsync is in
// flight do not issue their own — a leader-follower protocol elects one
// waiter to flush and fsync everything buffered so far, then wakes every
// committer whose records the sync covered. Under N concurrent
// committers the steady state is one fsync per *batch* of commits rather
// than one per commit, which is the dominant cost on the commit path.
//
// Record format (little endian):
//
//	u32 payload length
//	u32 CRC-32 (IEEE) of payload
//	payload: u8 type | u64 txn | u64 oid | u32 len | data
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// File is the file access the log needs; *os.File satisfies it. A
// fault-injection wrapper (internal/fault) can be interposed between
// the log and the real file via WithFileWrapper, which is how the
// crash-torture harness and experiment E17 make fsync failures and torn
// writes first-class, testable inputs.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Option configures Open.
type Option func(*openOpts)

type openOpts struct {
	wrap func(File) File
}

// WithFileWrapper interposes wrap between the log and the opened file.
// The wrapper sees every write, fsync, read, and truncate the log
// issues.
func WithFileWrapper(wrap func(File) File) Option {
	return func(o *openOpts) { o.wrap = wrap }
}

// LSN is a log sequence number: the global byte offset of a record. LSNs
// are monotonic for the lifetime of a store, even across checkpoints —
// truncating a prefix of the log advances the base (the LSN of the first
// byte physically in the file) rather than resetting positions to zero.
// Replication relies on this: a replica's stream position names one byte
// of primary history forever, so one LSN's worth of lag is exactly one
// byte of unshipped log.
type LSN uint64

// RecType tags a log record.
type RecType uint8

const (
	// RecUpdate carries the redo (after) image of one object write.
	RecUpdate RecType = iota + 1
	// RecAllocate records creation of an object with its initial image.
	RecAllocate
	// RecFree records deletion of an object.
	RecFree
	// RecCommit marks txn's batch as durable; recovery replays only
	// transactions whose commit record is present.
	RecCommit
	// RecCheckpoint marks a point at which the store was flushed; records
	// before it are obsolete.
	RecCheckpoint
)

func (t RecType) String() string {
	switch t {
	case RecUpdate:
		return "update"
	case RecAllocate:
		return "allocate"
	case RecFree:
		return "free"
	case RecCommit:
		return "commit"
	case RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one log entry.
type Record struct {
	Type RecType
	Txn  uint64
	OID  uint64
	Data []byte
}

const headerSize = 8 // length + crc

// ErrCorrupt reports a CRC mismatch mid-log (not at the tail): a fully
// written record whose checksum fails while valid data follows it. That
// can only be corruption, never a torn tail, so Open and Scan refuse
// rather than silently truncating committed records.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrTruncatedLSN reports a read below the log's base: the requested
// position was discarded by a checkpoint truncation. A log-shipping
// consumer that hits this must fall back to a snapshot bootstrap.
var ErrTruncatedLSN = errors.New("wal: lsn below log base (truncated by checkpoint)")

var errClosed = errors.New("wal: log closed")

// SyncStats reports group-commit activity; the storage manager surfaces
// these through storage.Stats.
type SyncStats struct {
	// Fsyncs is the number of fsync calls issued on the log file.
	Fsyncs uint64
	// Commits is the number of AppendCommit batches made durable. With
	// group commit Commits/Fsyncs is the average coalescing factor.
	Commits uint64
	// BatchMin and BatchMax bound the number of commits covered by a
	// single fsync (0 until the first commit-carrying sync).
	BatchMin uint64
	BatchMax uint64
	// CommitWaitNs is the total time committers spent waiting for
	// durability (from append-complete to fsync-covered).
	CommitWaitNs uint64
	// Heals counts successful Heal calls: sticky sync errors cleared by
	// truncating the non-durable suffix and re-verifying the file.
	Heals uint64
}

// Log is an append-only, CRC-checked record log with group commit.
type Log struct {
	// mu serializes appends: the buffered writer, the logical size, the
	// base LSN, and the count of commits not yet covered by a sync.
	mu       sync.Mutex
	f        File
	w        *bufio.Writer
	size     int64
	base     int64  // global LSN of file offset 0 (advanced by truncation)
	unsynced uint64 // commits appended since the last sync snapshot
	path     string

	// durObs, when set, is poked (outside all log locks) every time the
	// durable boundary advances — the primary's replication hub uses it
	// to wake record shippers without polling.
	durObs atomic.Pointer[func()]

	// gc is the group-commit state: a condvar protocol where at most one
	// committer (the leader) runs flush+fsync while followers wait. It is
	// never held across I/O or while acquiring mu.
	gc      sync.Mutex
	gcCond  *sync.Cond
	durable int64 // bytes proven on stable storage
	syncing bool  // a leader is mid-fsync
	syncErr error // sticky: a failed fsync wedges the log
	stats   SyncStats
}

// Open opens (creating if needed) the log at path. It validates the
// existing contents and truncates any torn tail left by a crash; a
// corrupt record in the middle of the log (valid records follow it)
// fails with ErrCorrupt instead of silently discarding committed data.
func Open(path string, opts ...Option) (*Log, error) {
	var oo openOpts
	for _, opt := range opts {
		opt(&oo)
	}
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var f File = osf
	if oo.wrap != nil {
		f = oo.wrap(f)
	}
	l := &Log{f: f, path: path}
	l.gcCond = sync.NewCond(&l.gc)
	valid, err := l.validPrefix()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.size = valid
	l.durable = valid
	l.w = bufio.NewWriterSize(f, 1<<16)
	return l, nil
}

// validPrefix scans the file and returns the length of the longest valid
// record prefix. The payload buffer is reused across records so
// recovering a large log does not churn the allocator.
//
// A record that fails its CRC is classified by position: if it extends
// to (or past) end-of-file it is a torn tail — the expected shape of a
// crash mid-append — and the prefix before it is kept; if bytes follow
// its claimed extent, the record was fully written and then damaged, so
// the scan fails with ErrCorrupt rather than silently dropping it and
// every committed record after it.
func (l *Log) validPrefix() (int64, error) {
	fileSize, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	var off int64
	var hdr [headerSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header: keep prefix
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > 1<<30 {
			return off, nil // implausible length: torn tail
		}
		end := off + int64(headerSize) + int64(length)
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil // record extends past EOF: torn tail
		}
		if crc32.ChecksumIEEE(payload) != crc {
			if end < fileSize {
				return 0, fmt.Errorf("%w at LSN %d (mid-log, %d bytes follow)", ErrCorrupt, off, fileSize-end)
			}
			return off, nil // last record damaged: torn tail
		}
		off = end
	}
}

// Append buffers a record and returns its LSN. The record is not durable
// until Flush (or a commit covering it) returns.
func (l *Log) Append(rec *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec *Record) (LSN, error) {
	if l.w == nil {
		return 0, errClosed
	}
	payload := encode(rec)
	lsn := LSN(l.base + l.size)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(headerSize) + int64(len(payload))
	return lsn, nil
}

// AppendCommit buffers one transaction's records contiguously (a single
// append critical section) and returns the durability target: the log
// size the commit needs covered by fsync. It does not wait — pair with
// WaitDurable. The batch counts as one commit for group-commit stats.
func (l *Log) AppendCommit(recs []Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range recs {
		if _, err := l.appendLocked(&recs[i]); err != nil {
			return 0, err
		}
	}
	l.unsynced++
	return l.size, nil
}

// WaitDurable blocks until every byte up to target is on stable storage,
// issuing (or joining) a group-commit fsync as needed.
func (l *Log) WaitDurable(target int64) error {
	start := time.Now()
	err := l.waitDurable(target)
	l.gc.Lock()
	l.stats.CommitWaitNs += uint64(time.Since(start).Nanoseconds())
	l.gc.Unlock()
	return err
}

// waitDurable is the leader-follower protocol. A caller whose target is
// not yet durable either becomes the leader (no sync in flight: flush the
// buffer, snapshot the covered commit count, fsync, publish, broadcast)
// or waits for the current leader and re-checks — by which time the next
// sync covers its records too, because they were appended before it
// started waiting.
//
// The durable check precedes the error check on purpose: records already
// on stable storage are committed no matter what happened to a later
// sync, and the storage manager relies on this — an error from
// waitDurable means the target is not durable and (the error being
// sticky) never will be.
func (l *Log) waitDurable(target int64) error {
	l.gc.Lock()
	for {
		if l.durable >= target {
			l.gc.Unlock()
			return nil
		}
		if l.syncErr != nil {
			err := l.syncErr
			l.gc.Unlock()
			return err
		}
		if l.syncing {
			l.gcCond.Wait()
			continue
		}
		l.syncing = true
		l.gc.Unlock()

		// Give every runnable committer a chance to append before the
		// flush snapshot: a leader elected right after the previous sync
		// would otherwise race ahead of the committers that sync woke,
		// fsyncing a batch of one while they queue up for the next. One
		// yield costs ~ns when no one else is runnable and collects the
		// whole batch when the commit load is concurrent.
		runtime.Gosched()

		upTo, batch, err := l.doSync()

		l.gc.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else {
			if upTo > l.durable {
				l.durable = upTo
			}
			l.stats.Fsyncs++
			l.stats.Commits += batch
			if batch > 0 {
				if l.stats.BatchMin == 0 || batch < l.stats.BatchMin {
					l.stats.BatchMin = batch
				}
				if batch > l.stats.BatchMax {
					l.stats.BatchMax = batch
				}
			}
		}
		l.gcCond.Broadcast()
		if err == nil {
			// Tell the durable observer outside both locks: it may call
			// back into ReadDurable.
			l.gc.Unlock()
			l.pokeDurableObserver()
			l.gc.Lock()
		}
		// Loop: the top of the loop returns nil or the sticky error.
	}
}

// doSync flushes the buffered writer (under the append lock, so the
// covered size and commit count are a consistent snapshot) and fsyncs
// outside all locks — appends proceed concurrently with the fsync and
// are covered by the next one.
func (l *Log) doSync() (upTo int64, batch uint64, err error) {
	l.mu.Lock()
	if l.w == nil {
		l.mu.Unlock()
		return 0, 0, errClosed
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return 0, 0, fmt.Errorf("wal: flush: %w", err)
	}
	upTo = l.size
	batch = l.unsynced
	l.unsynced = 0
	l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("wal: sync: %w", err)
	}
	return upTo, batch, nil
}

// AppendBatch appends several records and waits until they are durable —
// the one-call commit path (one transaction per call).
func (l *Log) AppendBatch(recs []Record) error {
	target, err := l.AppendCommit(recs)
	if err != nil {
		return err
	}
	return l.WaitDurable(target)
}

// Flush forces buffered records to stable storage (fsync), joining any
// in-flight group commit.
func (l *Log) Flush() error {
	l.mu.Lock()
	if l.w == nil {
		l.mu.Unlock()
		return errClosed
	}
	target := l.size
	l.mu.Unlock()
	return l.waitDurable(target)
}

// SyncStats returns a snapshot of group-commit counters.
func (l *Log) SyncStats() SyncStats {
	l.gc.Lock()
	defer l.gc.Unlock()
	return l.stats
}

// Scan replays every record in LSN order. Buffered records are flushed
// first so the scan sees everything appended so far. Each record is
// passed with its global starting LSN (base-relative offsets are never
// exposed), so Scan ≡ ScanFrom(Base()).
func (l *Log) Scan(fn func(LSN, *Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanFromLocked(LSN(l.base), fn)
}

// ScanFrom replays every record at or after the global LSN from, in LSN
// order. from must be a record boundary (the LSN of some record, or the
// end of the log); a position inside a record surfaces as ErrCorrupt.
// Requests below the log's base — positions discarded by a checkpoint —
// fail with ErrTruncatedLSN, which a log-shipping consumer must answer
// with a snapshot bootstrap.
func (l *Log) ScanFrom(from LSN, fn func(LSN, *Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanFromLocked(from, fn)
}

func (l *Log) scanFromLocked(from LSN, fn func(LSN, *Record) error) error {
	if int64(from) < l.base {
		return fmt.Errorf("%w: requested %d, base %d", ErrTruncatedLSN, from, l.base)
	}
	start := int64(from) - l.base
	if start > l.size {
		return fmt.Errorf("wal: scan from %d beyond end %d", from, l.base+l.size)
	}
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("wal: flush before scan: %w", err)
		}
	}
	if _, err := l.f.Seek(start, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	off := start
	hdr := make([]byte, headerSize)
	for off < l.size {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return fmt.Errorf("wal: scan header at %d: %w", l.base+off, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("wal: scan payload at %d: %w", l.base+off, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return fmt.Errorf("%w at LSN %d", ErrCorrupt, l.base+off)
		}
		rec, err := decode(payload)
		if err != nil {
			return err
		}
		if err := fn(LSN(l.base+off), rec); err != nil {
			return err
		}
		off += int64(headerSize) + int64(length)
	}
	// Restore the write position.
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek to tail: %w", err)
	}
	return nil
}

// Truncate discards the whole log (after a checkpoint has made the store
// durable) and starts over, advancing the base by the discarded size so
// LSNs stay monotonic. The caller must ensure no commit is in flight
// (the storage manager drains committers first).
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return errClosed
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.base += l.size
	l.size = 0
	l.unsynced = 0
	l.w.Reset(l.f)
	l.gc.Lock()
	l.durable = 0
	l.gcCond.Broadcast()
	l.gc.Unlock()
	return nil
}

// TruncateBelow discards every record below the global LSN keep (which
// must be a record boundary at or below the durable limit) and keeps the
// suffix, so a checkpoint can reclaim log space without cutting off
// replicas that still need recent records. The retained suffix is
// rewritten to offset 0 and the base advances to keep. Like Truncate,
// the caller must ensure no commit is in flight, and must have
// checkpointed the store up to the log's end first: the rewrite is not
// atomic, and a crash mid-rewrite may lose retained records — safe for
// recovery (the checkpoint covers them) but forcing late replicas to
// snapshot-bootstrap.
func (l *Log) TruncateBelow(keep LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return errClosed
	}
	if int64(keep) <= l.base {
		return nil // nothing below keep remains
	}
	if int64(keep) > l.base+l.size {
		return fmt.Errorf("wal: truncate below %d beyond end %d", keep, l.base+l.size)
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	drop := int64(keep) - l.base
	suffix := make([]byte, l.size-drop)
	if _, err := l.f.Seek(drop, io.SeekStart); err != nil {
		return fmt.Errorf("wal: truncate below: seek: %w", err)
	}
	if _, err := io.ReadFull(l.f, suffix); err != nil {
		return fmt.Errorf("wal: truncate below: read suffix: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate below: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.Write(suffix); err != nil {
		return fmt.Errorf("wal: truncate below: rewrite suffix: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.base = int64(keep)
	l.size = int64(len(suffix))
	l.unsynced = 0
	l.w.Reset(l.f)
	l.gc.Lock()
	// The whole retained suffix was just written and fsynced.
	l.durable = l.size
	l.gcCond.Broadcast()
	l.gc.Unlock()
	return nil
}

// SetBase declares the global LSN of the log's first physical byte —
// the walBase a checkpoint persisted in the store header. The storage
// manager calls it once, right after Open and before any appends or
// scans; a fresh standalone log keeps base 0, where LSN == file offset.
func (l *Log) SetBase(base LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = int64(base)
}

// Base returns the global LSN of the oldest byte still in the log.
// Positions below Base are gone (checkpoint-truncated); a subscriber
// there needs a snapshot.
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LSN(l.base)
}

// End returns the global LSN one past the last appended byte — the LSN
// the next record will receive. Buffered (not yet durable) records are
// included.
func (l *Log) End() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LSN(l.base + l.size)
}

// SetDurableObserver installs fn, called (outside all log locks) after
// every successful sync that may have advanced the durable boundary,
// and once more on Close. At most one observer is supported; nil
// removes it. The replication hub uses this to wake record shippers
// instead of polling ReadDurable.
func (l *Log) SetDurableObserver(fn func()) {
	if fn == nil {
		l.durObs.Store(nil)
		return
	}
	l.durObs.Store(&fn)
}

func (l *Log) pokeDurableObserver() {
	if fn := l.durObs.Load(); fn != nil {
		(*fn)()
	}
}

// ReadDurable decodes durable records starting at the global LSN from
// (a record boundary), stopping after roughly maxBytes of log have been
// consumed (always at least one record when one is durable). It returns
// the records, the LSN just past the last one returned (the position to
// resume from), and the durable end of the log at the time of the call
// (next − end is the caller's lag in bytes).
//
// The read uses a fresh private handle on the log's path rather than
// the Log's own file, so shipping never moves the append position and
// never blocks commits; it therefore bypasses any fault-injection
// wrapper installed via WithFileWrapper, which is fine — torture
// harnesses cut the replication link at the frame level instead. A
// checkpoint truncation racing with the read can surface as ErrCorrupt
// or a short read; callers retry from the same position and fall back
// to a snapshot on ErrTruncatedLSN.
func (l *Log) ReadDurable(from LSN, maxBytes int) (recs []Record, next LSN, end LSN, err error) {
	l.mu.Lock()
	base := l.base
	l.mu.Unlock()
	l.gc.Lock()
	durable := l.durable
	l.gc.Unlock()

	end = LSN(base + durable)
	if int64(from) < base {
		return nil, from, end, fmt.Errorf("%w: requested %d, base %d", ErrTruncatedLSN, from, base)
	}
	start := int64(from) - base
	if start >= durable {
		return nil, from, end, nil // caught up (or ahead of a concurrent truncate: harmless)
	}

	h, err := os.Open(l.path)
	if err != nil {
		return nil, from, end, fmt.Errorf("wal: read durable: %w", err)
	}
	defer h.Close()
	if _, err := h.Seek(start, io.SeekStart); err != nil {
		return nil, from, end, fmt.Errorf("wal: read durable: seek: %w", err)
	}
	r := bufio.NewReaderSize(h, 1<<16)
	off := start
	var hdr [headerSize]byte
	for off < durable && int(off-start) < maxBytes {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, from, end, fmt.Errorf("wal: read durable header at %d: %w", base+off, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, from, end, fmt.Errorf("wal: read durable payload at %d: %w", base+off, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, from, end, fmt.Errorf("%w at LSN %d", ErrCorrupt, base+off)
		}
		rec, err := decode(payload)
		if err != nil {
			return nil, from, end, err
		}
		recs = append(recs, *rec)
		off += int64(headerSize) + int64(length)
	}
	return recs, LSN(base + off), end, nil
}

// Heal attempts to clear a sticky sync error. Records past the durable
// boundary may be partially on disk and their committers were already
// told the commit failed, so the non-durable suffix (buffered and
// on-disk) is discarded, the file is truncated back to the durable
// prefix, and an fsync verifies the file is healthy again — only then
// is the sticky error cleared. If the verifying I/O fails too, the log
// stays wedged and Heal returns the failure.
//
// The caller must guarantee no committer is between AppendCommit and
// WaitDurable when Heal runs (the eos manager fences new commits and
// drains in-flight ones first): a waiter whose records are discarded
// here would otherwise wait for a durability target the log can no
// longer reach.
func (l *Log) Heal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return errClosed
	}
	l.gc.Lock()
	wedged := l.syncErr
	durable := l.durable
	syncing := l.syncing
	l.gc.Unlock()
	if wedged == nil {
		return nil // healthy (or already healed by a racing caller)
	}
	if syncing {
		return fmt.Errorf("wal: heal: sync in flight")
	}
	// Drop buffered-but-unflushed bytes (their commits already failed)
	// and the suspect on-disk suffix.
	l.w.Reset(io.Discard)
	if err := l.f.Truncate(durable); err != nil {
		return fmt.Errorf("wal: heal: truncate: %w", err)
	}
	if _, err := l.f.Seek(durable, io.SeekStart); err != nil {
		return fmt.Errorf("wal: heal: seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: heal: verify sync: %w", err)
	}
	l.size = durable
	l.unsynced = 0
	l.w.Reset(l.f)
	l.gc.Lock()
	l.syncErr = nil
	l.stats.Heals++
	l.gcCond.Broadcast()
	l.gc.Unlock()
	return nil
}

// Size returns the current log length in bytes (buffered included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close flushes, fsyncs, and closes the log file. Committers still
// waiting for durability are released: their records are covered by the
// final sync.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.w == nil {
		l.mu.Unlock()
		return nil
	}
	flushErr := l.w.Flush()
	upTo := l.size
	l.w = nil
	l.mu.Unlock()

	var syncErr error
	if flushErr == nil {
		syncErr = l.f.Sync()
	}
	closeErr := l.f.Close()

	l.gc.Lock()
	if flushErr == nil && syncErr == nil {
		if upTo > l.durable {
			l.durable = upTo
		}
	} else if l.syncErr == nil {
		l.syncErr = errClosed
	}
	l.gcCond.Broadcast()
	l.gc.Unlock()
	l.pokeDurableObserver()

	if flushErr != nil {
		return fmt.Errorf("wal: flush: %w", flushErr)
	}
	if syncErr != nil {
		return fmt.Errorf("wal: sync: %w", syncErr)
	}
	return closeErr
}

// EncodedSize is the on-disk footprint of one record: header plus
// payload. The replication hub uses it to compute the LSN just past
// each shipped record, so replicas can resume at record granularity.
func EncodedSize(rec *Record) int { return headerSize + 1 + 8 + 8 + 4 + len(rec.Data) }

func encode(rec *Record) []byte {
	buf := make([]byte, 1+8+8+4+len(rec.Data))
	buf[0] = byte(rec.Type)
	binary.LittleEndian.PutUint64(buf[1:9], rec.Txn)
	binary.LittleEndian.PutUint64(buf[9:17], rec.OID)
	binary.LittleEndian.PutUint32(buf[17:21], uint32(len(rec.Data)))
	copy(buf[21:], rec.Data)
	return buf
}

func decode(payload []byte) (*Record, error) {
	if len(payload) < 21 {
		return nil, fmt.Errorf("wal: short payload (%d bytes)", len(payload))
	}
	rec := &Record{
		Type: RecType(payload[0]),
		Txn:  binary.LittleEndian.Uint64(payload[1:9]),
		OID:  binary.LittleEndian.Uint64(payload[9:17]),
	}
	n := binary.LittleEndian.Uint32(payload[17:21])
	if int(n) != len(payload)-21 {
		return nil, fmt.Errorf("wal: length mismatch: header %d, payload %d", n, len(payload)-21)
	}
	if n > 0 {
		rec.Data = append([]byte(nil), payload[21:]...)
	}
	return rec, nil
}
