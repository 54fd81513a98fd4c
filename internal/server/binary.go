package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Listening side of the ODE2 binary protocol (frame.go has the layout,
// docs/PROTOCOL.md the spec). One connection fans out to three kinds of
// goroutine:
//
//	reader (this goroutine) ──► per-sid workers ──► writer
//
// The reader decodes frames and routes each request to its session's
// worker; a worker is one sid's session — it owns that sid's
// SessionHandler and feeds it requests strictly in order (per-session
// FIFO, matching the JSON protocol's semantics). Different sids proceed
// concurrently, so responses complete out of order across sessions and
// the single writer goroutine serializes them back onto the wire,
// flushing only when its queue runs dry (small-write coalescing: a
// pipelined burst of responses becomes one TCP segment).
//
// Backpressure is channel depth end to end: a slow client stops the
// writer, which fills the out queue, which blocks workers, which fills
// their queues, which blocks the reader — exactly the TCP-level
// backpressure the JSON protocol gets for free.

// binQueueDepth bounds each worker's request queue and the shared
// response queue. Deep enough that a pipelining client never stalls on
// an empty-queue handoff; shallow enough that one connection cannot
// buffer unbounded work.
const binQueueDepth = 256

// binReq is one routed request; a nil req is the close-session
// sentinel (frameClose).
type binReq struct {
	id  uint64
	req *Request
}

// binOut is one response headed for the writer.
type binOut struct {
	sid  uint32
	id   uint64
	resp *Response
}

// binWorker is one sid's session goroutine.
type binWorker struct {
	sid uint32
	ch  chan binReq
}

// serveBinary runs the frame loop for one upgraded connection. br has
// consumed the magic; cw counts bytes out.
func (f *Front) serveBinary(conn net.Conn, br *bufio.Reader, cw *countingWriter) {
	out := make(chan binOut, binQueueDepth)
	var (
		writerWG sync.WaitGroup
		workerWG sync.WaitGroup
		inflight atomic.Int64
	)

	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		f.binaryWriter(conn, cw, out)
	}()

	workers := make(map[uint32]*binWorker) // reader-goroutine-owned
	defer func() {
		for _, w := range workers {
			close(w.ch)
		}
		workerWG.Wait()
		close(out)
		writerWG.Wait()
	}()

	worker := func(sid uint32) *binWorker {
		if w, ok := workers[sid]; ok {
			return w
		}
		w := &binWorker{sid: sid, ch: make(chan binReq, binQueueDepth)}
		workers[sid] = w
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			f.binaryWorker(conn, w, out, &inflight)
		}()
		return w
	}

	for {
		if f.opts.IdleTimeout > 0 {
			if inflight.Load() == 0 {
				// Arm the idle deadline only when the connection is
				// quiescent: a pipelined batch blocked on locks must not
				// get its connection cut from under it.
				conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
			} else {
				conn.SetReadDeadline(time.Time{})
			}
		}
		h, payload, err := readFrame(br, f.opts.MaxRequestBytes)
		if err != nil && err != ErrRequestTooLarge {
			return // disconnect, idle deadline, or unrecoverable framing
		}
		f.m.framesIn.Inc()
		if err != nil {
			// The header delimited the oversized request exactly and
			// readFrame skipped it: keep the connection — unlike the JSON
			// path, framing survives an oversized request.
			f.m.oversized.Inc()
			out <- binOut{sid: h.sid, id: h.id, resp: &Response{
				Error: fmt.Sprintf("%v: exceeds %d bytes", ErrRequestTooLarge, f.opts.MaxRequestBytes),
			}}
			continue
		}
		switch h.typ {
		case frameClose:
			// Routed through the worker so it lands after every request
			// already queued on the sid (per-session FIFO). The worker
			// exits after answering; dropping it from the map means a
			// later frame on the same sid starts a fresh session.
			if w, ok := workers[h.sid]; ok {
				w.ch <- binReq{id: h.id}
				delete(workers, h.sid)
			} else {
				// Closing an unknown sid is a no-op, kept idempotent so a
				// client can always send close on teardown.
				out <- binOut{sid: h.sid, id: h.id, resp: &Response{OK: true}}
			}
		case frameReq:
			req, stream, malformed := f.decode(payload)
			if malformed != nil {
				// Framing is intact, so unlike the JSON protocol a bad
				// payload costs only this request, not the connection.
				out <- binOut{sid: h.sid, id: h.id, resp: malformed}
				continue
			}
			if stream != nil {
				out <- binOut{sid: h.sid, id: h.id, resp: &Response{Error: ErrStreamOverBinary.Error()}}
				continue
			}
			depth := inflight.Add(1)
			f.m.pipelineDepth.Observe(depth)
			worker(h.sid).ch <- binReq{id: h.id, req: req}
		default:
			// An unknown frame type means the peer speaks a different
			// dialect; answer and hang up rather than guess at framing.
			out <- binOut{sid: h.sid, id: h.id, resp: &Response{Error: fmt.Sprintf("unknown frame type 0x%02x", h.typ)}}
			return
		}
	}
}

// binaryWorker is one session's request loop: strictly in-order within
// the sid, concurrent across sids.
func (f *Front) binaryWorker(conn net.Conn, w *binWorker, out chan<- binOut, inflight *atomic.Int64) {
	reply := func(id uint64, resp *Response) {
		out <- binOut{sid: w.sid, id: id, resp: resp}
		if inflight.Add(-1) == 0 && f.opts.IdleTimeout > 0 {
			// The reader cleared the deadline while work was in flight
			// and is already blocked; re-arm it here or an idle pipelined
			// connection would never time out.
			conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
		}
	}
	sess := f.newSession("binary", reply)
	for r := range w.ch {
		if r.req == nil {
			// frameClose: abort the open transaction (the same contract a
			// JSON disconnect has), acknowledge, and retire the worker.
			sess.Abort()
			out <- binOut{sid: w.sid, id: r.id, resp: &Response{OK: true}}
			return
		}
		if resp := safeHandle(sess, r.id, r.req); resp != nil {
			reply(r.id, resp)
		}
		if len(w.ch) == 0 {
			sess.Drain()
		}
	}
	sess.Abort() // the connection is going away
}

// binaryWriter is the connection's single writer loop. Responses are
// buffered and the buffer flushed only when the queue runs dry, so a
// burst of pipelined completions coalesces into few syscalls. After a
// write error it keeps draining the queue (discarding) so workers never
// block on a dead connection.
func (f *Front) binaryWriter(conn net.Conn, cw *countingWriter, out <-chan binOut) {
	bw := bufio.NewWriter(cw)
	var werr error
	fail := func(err error) {
		werr = err
		conn.Close() // unblock the reader; serveBinary tears down
	}
	for o := range out {
		if werr != nil {
			continue
		}
		payload, err := json.Marshal(o.resp)
		if err != nil {
			// A handler returned an unmarshalable Result; the JSON
			// protocol would kill the connection here, but framing lets
			// us downgrade it to a per-request error.
			payload, _ = json.Marshal(&Response{Error: "marshal response: " + err.Error()})
		}
		if err := writeFrame(bw, frameResp, o.sid, o.id, payload); err != nil {
			fail(err)
			continue
		}
		f.m.framesOut.Inc()
		if len(out) == 0 {
			if err := bw.Flush(); err != nil {
				fail(err)
			}
		}
	}
	if werr == nil {
		bw.Flush()
	}
}
