package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/wal"
)

// Tracing records a span at each layer boundary the benchmark can reach
// from outside the program: around its own calls into the engine, inside
// the storage.Manager and wal.File decorators it installs, and in a
// byte-level relay in front of a node's listener. Spans go to
// preallocated rings and are written out only when the run is over.
// Nothing here is installed during an untraced run.

type spanKind uint8

const (
	spBegin spanKind = iota
	spInvoke
	spCommit
	spRead
	spReadAt
	spApply
	spWALWrite
	spWALSync
	spFrame
	spIngest
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spBegin:    {"txn.begin", "txn"},
	spInvoke:   {"core.invoke", "core"},
	spCommit:   {"txn.commit", "txn"},
	spRead:     {"storage.read", "storage"},
	spReadAt:   {"vstore.read_at", "vstore"},
	spApply:    {"storage.apply_commit", "storage"},
	spWALWrite: {"wal.write", "wal"},
	spWALSync:  {"wal.sync", "wal"},
	spFrame:    {"server.frame", "server"},
	spIngest:   {"shard.ingest", "shard"},
}

// spanRec is one span. op identifies the transaction: the generator's
// transaction index for spans recorded in the generator's process, and
// sid<<32|frame id for a node's frame spans, which is how the two sides
// join. parent indexes the same ring, -1 for none. busy is, for frame
// spans, the part of [start,end] the session was not still serving the
// previous frame.
type spanRec struct {
	kind       spanKind
	parent     int32
	op         int64
	start, end int64 // wall clock, ns
	busy       int64
}

// ring is a preallocated span buffer with lock-free append. A full ring
// counts what it drops instead of growing: tracing must not allocate on
// the measured path.
type ring struct {
	recs    []spanRec
	n       atomic.Int64
	dropped atomic.Int64
}

// sharedRingSize holds a node's spans for one traced run; threadRingSize
// holds one embedded client's, which records every storage read (about
// 90 spans per embedded-detect transaction).
const (
	sharedRingSize = 1 << 19
	threadRingSize = 1 << 21
)

func newRing(size int) *ring { return &ring{recs: make([]spanRec, size)} }

func (r *ring) reserve() int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.recs)) {
		r.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (r *ring) add(rec spanRec) {
	if i := r.reserve(); i >= 0 {
		r.recs[i] = rec
	}
}

func (r *ring) spans() []spanRec {
	n := r.n.Load()
	if n > int64(len(r.recs)) {
		n = int64(len(r.recs))
	}
	return r.recs[:n]
}

func (r *ring) reset() { r.n.Store(0); r.dropped.Store(0) }

func nowWall() int64 { return time.Now().UnixNano() }

// threadTrace is the open-span stack of one traced goroutine. The
// storage and WAL decorators run on whichever goroutine called into the
// engine and have no other way to learn which transaction they serve, so
// a traced worker pins itself to an OS thread and registers the thread
// ID; the decorators look themselves up by it.
type threadTrace struct {
	r     *ring
	tid   int
	op    int64
	stack [8]int32
	depth int
}

func (t *threadTrace) begin(kind spanKind) (start int64) {
	parent := int32(-1)
	if t.depth > 0 && t.depth <= len(t.stack) {
		parent = t.stack[t.depth-1]
	}
	start = nowWall()
	i := t.r.reserve()
	if i >= 0 {
		t.r.recs[i] = spanRec{kind: kind, parent: parent, op: t.op, start: start}
	}
	if t.depth < len(t.stack) {
		t.stack[t.depth] = i
	}
	t.depth++
	return start
}

func (t *threadTrace) end() (end int64) {
	end = nowWall()
	t.depth--
	if t.depth < len(t.stack) {
		if i := t.stack[t.depth]; i >= 0 {
			t.r.recs[i].end = end
		}
	}
	return end
}

// traceSet is one process's tracing state.
type traceSet struct {
	on      atomic.Bool
	shared  *ring // spans recorded off the traced goroutines
	threads [maxTracedThreads]atomic.Pointer[threadTrace]
	nThread atomic.Int32

	// Counters kept at the same boundaries as the spans.
	reads, readNs       atomic.Uint64
	readAts, readAtNs   atomic.Uint64
	applies, applyNs    atomic.Uint64 // non-empty commit batches
	applyOps            atomic.Uint64
	walWrites, walBytes atomic.Uint64
	walWriteNs          atomic.Uint64
	walSyncs, walSyncNs atomic.Uint64
	pins, pinsMax       atomic.Int64
	frames, frameBusyNs atomic.Uint64
	frameResidenceNs    atomic.Uint64
	ingests, ingestNs   atomic.Uint64
	outboxMax           atomic.Uint64
}

func newTraceSet() *traceSet { return &traceSet{shared: newRing(sharedRingSize)} }

// maxTracedThreads bounds the traced workers of one process (the
// generator runs at most two).
const maxTracedThreads = 4

// pinThread registers the calling goroutine as a traced worker. It stays
// locked to its OS thread until it exits.
func (ts *traceSet) pinThread() *threadTrace {
	runtime.LockOSThread()
	t := &threadTrace{r: newRing(threadRingSize), tid: syscall.Gettid()}
	ts.threads[ts.nThread.Add(1)-1].Store(t)
	return t
}

func (ts *traceSet) tracedThreads() []*threadTrace {
	var out []*threadTrace
	for i := range ts.threads {
		if t := ts.threads[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

func (ts *traceSet) current() *threadTrace {
	if ts.nThread.Load() == 0 {
		return nil
	}
	tid := syscall.Gettid()
	for i := range ts.threads {
		if t := ts.threads[i].Load(); t != nil && t.tid == tid {
			return t
		}
	}
	return nil
}

// span times fn as a span of the given kind on the calling goroutine's
// stack, or on the shared ring when the goroutine is not a traced
// worker, and returns the elapsed ns (0 while tracing is off).
func (ts *traceSet) span(kind spanKind, fn func()) uint64 {
	if !ts.on.Load() {
		fn()
		return 0
	}
	if t := ts.current(); t != nil {
		start := t.begin(kind)
		fn()
		return uint64(t.end() - start)
	}
	start := nowWall()
	fn()
	end := nowWall()
	ts.shared.add(spanRec{kind: kind, parent: -1, op: -1, start: start, end: end})
	return uint64(end - start)
}

// --- storage.Manager decorator --------------------------------------------------

// tracedStore wraps a storage manager. Both managers keep versions, so
// it forwards storage.Versioned; the eos variant below also forwards the
// commit-cause pair core type-asserts.
type tracedStore struct {
	storage.Manager
	v  storage.Versioned
	ts *traceSet
}

type commitCauser interface {
	SetCommitCause(txn uint64, self, parent obs.Cause)
	ClearCommitCause(txn uint64)
}

type tracedCauseStore struct {
	*tracedStore
	commitCauser
}

// traceStore decorates m. The result implements exactly the optional
// interfaces m does.
func traceStore(m storage.Manager, ts *traceSet) storage.Manager {
	t := &tracedStore{Manager: m, v: m.(storage.Versioned), ts: ts}
	if cc, ok := m.(commitCauser); ok {
		return &tracedCauseStore{tracedStore: t, commitCauser: cc}
	}
	return t
}

func (s *tracedStore) Read(oid storage.OID) (data []byte, err error) {
	ns := s.ts.span(spRead, func() { data, err = s.Manager.Read(oid) })
	if ns > 0 {
		s.ts.reads.Add(1)
		s.ts.readNs.Add(ns)
	}
	return data, err
}

func (s *tracedStore) ApplyCommit(txn uint64, ops []storage.Op) (err error) {
	if len(ops) == 0 {
		return s.Manager.ApplyCommit(txn, ops)
	}
	ns := s.ts.span(spApply, func() { err = s.Manager.ApplyCommit(txn, ops) })
	if ns > 0 {
		s.ts.applies.Add(1)
		s.ts.applyNs.Add(ns)
		s.ts.applyOps.Add(uint64(len(ops)))
	}
	return err
}

func (s *tracedStore) SnapshotLSN() uint64 { return s.v.SnapshotLSN() }

func (s *tracedStore) PinSnapshot() uint64 {
	if n := s.ts.pins.Add(1); n > s.ts.pinsMax.Load() {
		s.ts.pinsMax.Store(n)
	}
	return s.v.PinSnapshot()
}

func (s *tracedStore) UnpinSnapshot(lsn uint64) {
	s.ts.pins.Add(-1)
	s.v.UnpinSnapshot(lsn)
}

func (s *tracedStore) ReadAt(oid storage.OID, lsn uint64) (data []byte, err error) {
	ns := s.ts.span(spReadAt, func() { data, err = s.v.ReadAt(oid, lsn) })
	if ns > 0 {
		s.ts.readAts.Add(1)
		s.ts.readAtNs.Add(ns)
	}
	return data, err
}

func (s *tracedStore) ExistsAt(oid storage.OID, lsn uint64) bool { return s.v.ExistsAt(oid, lsn) }
func (s *tracedStore) VersionStats() storage.VersionStats        { return s.v.VersionStats() }
func (s *tracedStore) GCVersions() uint64                        { return s.v.GCVersions() }

// --- wal.File decorator -----------------------------------------------------------

type tracedWAL struct {
	wal.File
	ts *traceSet
}

func (w *tracedWAL) Write(p []byte) (n int, err error) {
	ns := w.ts.span(spWALWrite, func() { n, err = w.File.Write(p) })
	if ns > 0 {
		w.ts.walWrites.Add(1)
		w.ts.walBytes.Add(uint64(n))
		w.ts.walWriteNs.Add(ns)
	}
	return n, err
}

func (w *tracedWAL) Sync() (err error) {
	ns := w.ts.span(spWALSync, func() { err = w.File.Sync() })
	if ns > 0 {
		w.ts.walSyncs.Add(1)
		w.ts.walSyncNs.Add(ns)
	}
	return err
}

// --- listener relay ----------------------------------------------------------------

// relay is a byte-level proxy in front of a node's listener. On an ODE2
// connection it reads the 13-byte frame headers in both directions and
// records, per request frame, when its last byte arrived and when the
// first byte of its response left. On a newline-JSON connection — the
// forwarder's shard.ingest batches — it does the same per line.
type relay struct {
	ln      net.Listener
	backend string
	ts      *traceSet
	wg      sync.WaitGroup
}

func startRelay(backend string, ts *traceSet) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, backend: backend, ts: ts}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", r.backend)
		if err != nil {
			c.Close()
			continue
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.serve(c, b)
		}()
	}
}

type frameKey struct {
	sid uint32
	id  uint64
}

func (r *relay) serve(client, backend net.Conn) {
	defer client.Close()
	defer backend.Close()
	cr := bufio.NewReader(client)
	magic, err := cr.Peek(len(server.ProtoMagic))
	binaryProto := err == nil && string(magic) == server.ProtoMagic
	done := make(chan struct{})
	if !binaryProto {
		var in atomic.Int64
		go func() {
			defer close(done)
			br := bufio.NewReader(backend)
			for {
				line, err := br.ReadBytes('\n')
				if len(line) > 0 {
					if t := in.Swap(0); t != 0 && r.ts.on.Load() {
						end := nowWall()
						r.ts.shared.add(spanRec{kind: spIngest, parent: -1, op: -1, start: t, end: end})
						r.ts.ingests.Add(1)
						r.ts.ingestNs.Add(uint64(end - t))
					}
					if _, werr := client.Write(line); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
		for {
			line, err := cr.ReadBytes('\n')
			if len(line) > 0 {
				in.Store(nowWall())
				if _, werr := backend.Write(line); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		backend.Close()
		<-done
		return
	}

	var mu sync.Mutex
	arrived := make(map[frameKey]int64)
	lastOut := make(map[uint32]int64) // per sid: when its previous response left
	go func() {
		defer close(done)
		br := bufio.NewReader(backend)
		bw := bufio.NewWriter(client)
		var echo [len(server.ProtoMagic)]byte
		if _, err := io.ReadFull(br, echo[:]); err != nil {
			return
		}
		bw.Write(echo[:])
		bw.Flush()
		var hdr [17]byte
		for {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			out := nowWall()
			n := int64(binary.BigEndian.Uint32(hdr[0:4])) - 13
			k := frameKey{sid: binary.BigEndian.Uint32(hdr[5:9]), id: binary.BigEndian.Uint64(hdr[9:17])}
			mu.Lock()
			in, ok := arrived[k]
			delete(arrived, k)
			busyFrom := in
			if lo := lastOut[k.sid]; lo > busyFrom {
				busyFrom = lo
			}
			lastOut[k.sid] = out
			mu.Unlock()
			if ok && r.ts.on.Load() {
				r.ts.shared.add(spanRec{kind: spFrame, parent: -1, op: int64(k.sid)<<32 | int64(k.id&0xffffffff), start: in, end: out, busy: out - busyFrom})
				r.ts.frames.Add(1)
				r.ts.frameResidenceNs.Add(uint64(out - in))
				r.ts.frameBusyNs.Add(uint64(out - busyFrom))
			}
			bw.Write(hdr[:])
			if _, err := io.CopyN(bw, br, n); err != nil {
				return
			}
			if br.Buffered() == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
		}
	}()
	bw := bufio.NewWriter(backend)
	cr.Discard(len(server.ProtoMagic))
	bw.WriteString(server.ProtoMagic)
	bw.Flush()
	var hdr [17]byte
	for {
		if _, err := io.ReadFull(cr, hdr[:]); err != nil {
			break
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4])) - 13
		bw.Write(hdr[:])
		if _, err := io.CopyN(bw, cr, n); err != nil {
			break
		}
		k := frameKey{sid: binary.BigEndian.Uint32(hdr[5:9]), id: binary.BigEndian.Uint64(hdr[9:17])}
		mu.Lock()
		arrived[k] = nowWall()
		mu.Unlock()
		if cr.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				break
			}
		}
	}
	backend.Close()
	<-done
}

// --- write-out -----------------------------------------------------------------------

type spanJSON struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Proc    string `json:"proc"`
	Thread  int    `json:"thread"`
	OpID    int64  `json:"op_id"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans appends every recorded span to path as JSON lines.
func (ts *traceSet) writeSpans(path, procName string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	rings := []*ring{ts.shared}
	for _, t := range ts.tracedThreads() {
		rings = append(rings, t.r)
	}
	for ti, r := range rings {
		for _, s := range r.spans() {
			if s.end == 0 {
				continue
			}
			info := spanInfo[s.kind]
			if err := enc.Encode(spanJSON{Name: info.name, Layer: info.layer, Proc: procName, Thread: ti,
				OpID: s.op, Parent: s.parent, StartNs: s.start, EndNs: s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one row of the traced layer table. Times are µs per
// committed transaction.
type layerRow struct {
	Layer  string  `json:"layer"`
	Count  float64 `json:"count_per_op"`
	Busy   float64 `json:"busy_us_per_op"`
	Self   float64 `json:"self_us_per_op"`
	Waited float64 `json:"waited_us_per_op"`
	Failed float64 `json:"failed_or_retried"`
}

func (ts *traceSet) droppedSpans() int64 {
	n := ts.shared.dropped.Load()
	for _, t := range ts.tracedThreads() {
		n += t.r.dropped.Load()
	}
	return n
}

func fmtRow(r layerRow) string {
	return fmt.Sprintf("  %-10s %9.2f %12.2f %12.2f %12.2f %10.0f", r.Layer, r.Count, r.Busy, r.Self, r.Waited, r.Failed)
}
