package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/storage/dali"
)

// startWireServer is startServer with explicit options and the database
// handed back for metric assertions.
func startWireServer(t *testing.T, opts Options) (addr string, db *core.Database) {
	t.Helper()
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(credCardClass()); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(db, opts)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return addr, db
}

// TestPipelinedInvokes is the tentpole behavior end to end: a burst of
// requests written without waiting, matched back by request ID, all on
// one session — and the session's FIFO order preserved (the running
// balance each Buy returns is strictly increasing).
func TestPipelinedInvokes(t *testing.T) {
	addr, _ := startWireServer(t, Options{})
	c, err := DialOptions(addr, ClientOptions{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Create("CredCard", &CredCard{CredLim: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.Go(&Request{Op: "invoke", Ref: ref, Method: "Buy", Args: []any{1.0}})
	}
	for i, call := range calls {
		resp, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := resp.Result.(float64); got != float64(i+1) {
			t.Fatalf("call %d returned balance %v, want %d (per-session FIFO broken)", i, got, i+1)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfOrderAcrossSessions proves out-of-order completion: with sid
// B's request stuck behind a write lock, sid C's later request on the
// same connection completes first.
func TestOutOfOrderAcrossSessions(t *testing.T) {
	addr, _ := startWireServer(t, Options{})
	m, err := DialMux(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a, b, c := m.Session(), m.Session(), m.Session()

	a.Begin()
	ref1, err := a.Create("CredCard", &CredCard{CredLim: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := a.Create("CredCard", &CredCard{CredLim: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	// a holds ref1's write lock in an open transaction.
	a.Begin()
	if _, err := a.Invoke(ref1, "Buy", 1); err != nil {
		t.Fatal(err)
	}

	// b's invoke on ref1 blocks behind a; it was sent first.
	b.Begin()
	blocked := b.Go(&Request{Op: "invoke", Ref: ref1, Method: "Buy", Args: []any{1.0}})

	// c's invoke on ref2, sent later on the same connection, completes
	// while b is still stuck.
	c.Begin()
	if _, err := c.Invoke(ref2, "Buy", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked.Done():
		t.Fatal("b's lock-blocked request completed while the lock was held")
	default:
	}

	// Releasing the lock lets b finish.
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := blocked.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestProtoOp checks each transport reports its negotiated protocol.
func TestProtoOp(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr *transport) {
		c := tr.dial(t)
		resp, err := c.Call(&Request{Op: "proto"})
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Result.(map[string]any)
		want := "binary"
		if tr.name == "json" {
			want = "json"
		}
		if st["protocol"] != want {
			t.Fatalf("proto over %s = %v, want %q", tr.name, st["protocol"], want)
		}
		if st["binary_enabled"] != true {
			t.Fatalf("binary_enabled = %v", st["binary_enabled"])
		}
	})
}

// TestBinaryDisabled: -protocol json servers refuse the handshake with
// a typed error instead of hanging the client; JSON clients are
// untouched.
func TestBinaryDisabled(t *testing.T) {
	addr, _ := startWireServer(t, Options{DisableBinary: true})
	if _, err := DialOptions(addr, ClientOptions{Binary: true}); !errors.Is(err, ErrBinaryDisabled) {
		t.Fatalf("binary dial = %v, want ErrBinaryDisabled", err)
	}
	c, err := DialOptions(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryIdleDisconnectAndRedial: the idle deadline applies to a
// quiescent binary connection, and the client transparently redials.
func TestBinaryIdleDisconnectAndRedial(t *testing.T) {
	addr, _ := startWireServer(t, Options{IdleTimeout: 100 * time.Millisecond})
	c, err := DialOptions(addr, ClientOptions{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // server cuts the idle conn
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", c.Reconnects())
	}
}

// TestWireMetrics: the server.* wire counters move and the pipeline
// depth histogram sees the pipelined burst.
func TestWireMetrics(t *testing.T) {
	addr, db := startWireServer(t, Options{})
	c, err := DialOptions(addr, ClientOptions{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Begin()
	ref, err := c.Create("CredCard", &CredCard{CredLim: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	calls := make([]*Call, 64)
	for i := range calls {
		calls[i] = c.Go(&Request{Op: "invoke", Ref: ref, Method: "Buy", Args: []any{1.0}})
	}
	for _, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	vals := map[string]uint64{}
	hists := map[string]uint64{}
	for _, mv := range db.Observability().Snapshot() {
		vals[mv.Name] = mv.Value
		hists[mv.Name] = mv.Count
	}
	for _, name := range []string{"server.bytes_in", "server.bytes_out", "server.frames_in", "server.frames_out", "server.conns_binary"} {
		if vals[name] == 0 {
			t.Fatalf("%s = 0, want > 0", name)
		}
	}
	if hists["server.pipeline_depth"] == 0 {
		t.Fatal("server.pipeline_depth histogram saw no observations")
	}
	if vals["server.frames_in"] != vals["server.frames_out"] {
		t.Fatalf("frames_in %d != frames_out %d (every request frame gets exactly one response)",
			vals["server.frames_in"], vals["server.frames_out"])
	}
}

// TestMuxConcurrentSessions hammers one connection from many goroutines
// with pipelined writes (race-detector food for the in-flight table,
// the writer loop, and the per-sid workers).
func TestMuxConcurrentSessions(t *testing.T) {
	addr, _ := startWireServer(t, Options{})
	m, err := DialMux(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	setup := m.Session()
	setup.Begin()
	refs := make([]uint64, 8)
	for i := range refs {
		if refs[i], err = setup.Create("CredCard", &CredCard{CredLim: 1e12}); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const perSession = 50
	var wg sync.WaitGroup
	errs := make(chan error, len(refs))
	for _, ref := range refs {
		wg.Add(1)
		go func(ref uint64) {
			defer wg.Done()
			s := m.Session()
			defer s.Close()
			if err := s.Begin(); err != nil {
				errs <- err
				return
			}
			calls := make([]*Call, perSession)
			for j := range calls {
				calls[j] = s.Go(&Request{Op: "invoke", Ref: ref, Method: "Buy", Args: []any{1.0}})
			}
			for _, call := range calls {
				if _, err := call.Wait(); err != nil {
					errs <- err
					return
				}
			}
			errs <- s.Commit()
		}(ref)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	check := m.Session()
	check.Begin()
	for _, ref := range refs {
		var card CredCard
		if err := check.Get(ref, &card); err != nil {
			t.Fatal(err)
		}
		if card.CurrBal != perSession {
			t.Fatalf("balance = %v, want %d", card.CurrBal, perSession)
		}
	}
	check.Abort()
}

// FuzzFrameDecode feeds arbitrary bytes through readFrame, the reader
// every front (server and router alike) consumes frames with: truncated,
// oversized, and garbage length prefixes must surface as typed errors,
// never panics or hangs, and an oversized payload must leave the stream
// in step.
func FuzzFrameDecode(f *testing.F) {
	var seed bytes.Buffer
	writeFrame(&seed, frameReq, 1, 1, []byte(`{"op":"proto"}`))
	f.Add(seed.Bytes())
	f.Add([]byte(protoMagic))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 13, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPayload = 1 << 16
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		for want := 0; ; {
			h, payload, err := readFrame(br, maxPayload)
			switch {
			case err == nil:
				if len(payload) != h.n {
					t.Fatalf("payload %d bytes, header says %d", len(payload), h.n)
				}
			case err == ErrRequestTooLarge:
				if h.n <= maxPayload || payload != nil {
					t.Fatalf("oversize verdict on %d bytes (cap %d), payload %d", h.n, maxPayload, len(payload))
				}
			case errors.Is(err, errFraming) || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF):
				return
			default:
				t.Fatalf("untyped decode error: %v", err)
			}
			// In step: exactly the frames' bytes are gone, skipped or not.
			want += 4 + frameHeaderLen + h.n
			if got := len(data) - src.Len() - br.Buffered(); got != want {
				t.Fatalf("consumed %d bytes, frames so far span %d", got, want)
			}
		}
	})
}
