package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/storage/dali"
)

func newTestDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(credCardClass()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestBackoffSchedule: waits double from Base, cap at Max, Reset
// restarts.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("Next #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("Next after Reset = %v, want 10ms", got)
	}
	var zero Backoff
	if got := zero.Next(); got != 10*time.Millisecond {
		t.Fatalf("zero-value Next = %v, want default 10ms", got)
	}
}

// TestClientReconnectFlappingListener: the satellite scenario — the
// server goes away mid-session and comes back on the same address; the
// client's next calls redial with capped backoff and succeed. The call
// that straddled the outage fails (at-most-once: it is never resent).
func TestClientReconnectFlappingListener(t *testing.T) {
	db := newTestDB(t)
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := DialOptions(addr, ClientOptions{
		RequestTimeout: 2 * time.Second,
		DialAttempts:   50,
		RedialBase:     2 * time.Millisecond,
		RedialMax:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&Request{Op: "metrics"}); err != nil {
		t.Fatalf("call before flap: %v", err)
	}

	// Take the server down, then bring a fresh one up on the same
	// address after a delay shorter than the redial budget.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := New(db)
	t.Cleanup(func() { srv2.Close() })
	go func() {
		time.Sleep(30 * time.Millisecond)
		// The old socket can take a moment to release; retry the bind.
		for i := 0; i < 100; i++ {
			if _, err := srv2.Listen(addr); err == nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// The in-flight-style call right after the outage may fail — its
	// request is not resent. Subsequent calls must recover.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = c.Call(&Request{Op: "metrics"}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
	}
	if c.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", c.Reconnects())
	}
}

// TestClientFailFastDefault: the default client keeps its original
// behavior — one dial attempt, immediate error.
func TestClientFailFastDefault(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

// TestReplicaRedirect: a write on a read-only database behind a server
// with PrimaryAddr yields a RedirectError carrying the primary address.
func TestReplicaRedirect(t *testing.T) {
	db := newTestDB(t)
	db.SetReadOnly(true)
	srv := NewWithOptions(db, Options{PrimaryAddr: "primary.example:7000"})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Create("CredCard", &CredCard{})
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("Create on replica = %v, want RedirectError", err)
	}
	if re.Primary != "primary.example:7000" {
		t.Fatalf("Redirect = %q, want primary.example:7000", re.Primary)
	}
	// Reads still work.
	if _, err := c.ClusterScan("anything"); err != nil {
		t.Fatalf("read on replica: %v", err)
	}
}

// TestExtraAndStreamOps: a deployment row answers through the handler
// ExtraOps binds to it, a stream binding takes the connection over, an
// unbound deployment row is an unknown op, and binding a name that is
// not a deployment row of the op table panics.
func TestExtraAndStreamOps(t *testing.T) {
	for _, name := range []string{"x.echo", "begin"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("binding %q did not panic", name)
				}
			}()
			NewWithOptions(newTestDB(t), Options{ExtraOps: map[string]Binding{name: {}}})
		}()
	}

	db := newTestDB(t)
	srv := NewWithOptions(db, Options{
		ExtraOps: map[string]Binding{
			"repl.status": {Answer: func(req *Request) *Response {
				return &Response{OK: true, Result: req.Event}
			}},
			"repl.promote": {Answer: func(req *Request) *Response { panic("kaboom") }},
			"repl.subscribe": {Stream: func(conn net.Conn, req *Request) error {
				enc := json.NewEncoder(conn)
				for i := uint64(0); i < 3; i++ {
					if err := enc.Encode(&Response{OK: true, ID: req.LSN + i}); err != nil {
						return err
					}
				}
				return nil
			}},
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(&Request{Op: "repl.status", Event: "hello"})
	if err != nil || resp.Result != "hello" {
		t.Fatalf("repl.status = %+v, %v", resp, err)
	}
	// A panicking bound op answers with an error and keeps the session.
	if _, err := c.Call(&Request{Op: "repl.promote"}); err == nil {
		t.Fatal("repl.promote did not error")
	}
	if _, err := c.Call(&Request{Op: "repl.status", Event: "still here"}); err != nil {
		t.Fatalf("session dead after bound-op panic: %v", err)
	}
	if _, err := c.Call(&Request{Op: "repl.verify"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unbound repl.verify = %v, want unknown op", err)
	}
	c.Close()

	// Stream op: raw connection, three frames, then EOF.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))
	if err := enc.Encode(&Request{Op: "repl.subscribe", LSN: 7}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		var r Response
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if r.ID != 7+i {
			t.Fatalf("frame %d ID = %d, want %d", i, r.ID, 7+i)
		}
	}
	var r Response
	if err := dec.Decode(&r); err == nil {
		t.Fatalf("expected EOF after stream, got %+v", r)
	}
}
