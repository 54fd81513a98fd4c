package shard

import (
	"errors"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/server"
)

// forEachFrontProtocol runs fn once per client protocol against the
// cluster's router. open hands out fresh sessions: JSON connections, or
// sids of one shared binary connection.
func forEachFrontProtocol(t *testing.T, c *testCluster, fn func(t *testing.T, open func() server.Session)) {
	t.Run("json", func(t *testing.T) {
		fn(t, func() server.Session {
			cl, err := server.Dial(c.raddr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		})
	})
	t.Run("binary", func(t *testing.T) {
		mux, err := server.DialMux(c.raddr, server.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mux.Close() })
		fn(t, func() server.Session { return mux.Session() })
	})
}

// pipe sends a batch on one session — written back to back without
// waiting on binary, lockstep on JSON (Go degrades) — and returns each
// request's error.
func pipe(s server.Session, reqs ...*server.Request) []error {
	calls := make([]*server.Call, len(reqs))
	for i, req := range reqs {
		calls[i] = s.Go(req)
	}
	errs := make([]error, len(reqs))
	for i, call := range calls {
		_, errs[i] = call.Wait()
	}
	return errs
}

func bump(oid uint64) *server.Request {
	return &server.Request{Op: "invoke", Ref: oid, Method: "Bump"}
}

// assertNoOpenTxn proves no transaction on node still holds oid: a
// direct writer gets the exclusive lock promptly.
func assertNoOpenTxn(t *testing.T, node *testNode, oid uint64) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		tx := node.db.Begin()
		_, err := node.db.Invoke(tx, core.RefFromOID(storageOID(oid)), "Bump")
		tx.Abort()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("direct write to oid %d: %v", oid, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("oid %d is still locked: its shard holds an open transaction the router never resolved", oid)
	}
}

// TestRouterRelaysTriggerAbort: a trigger taborts a transaction that
// spans both shards; the rollback surfaces at commit, and the client
// must see it as ErrRemoteAborted — not a bare error — on either
// protocol, with nothing left open behind it.
func TestRouterRelaysTriggerAbort(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	forEachFrontProtocol(t, c, func(t *testing.T, open func() server.Session) {
		vetoed := mkDoc(t, c.nodes[0], &Doc{})
		activate(t, c.nodes[0], vetoed, "Veto")
		other := mkDoc(t, c.nodes[1], &Doc{})

		s := open()
		errs := pipe(s,
			&server.Request{Op: "begin"},
			bump(other),
			&server.Request{Op: "invoke", Ref: vetoed, Method: "Poke"},
			&server.Request{Op: "commit"},
		)
		for i, err := range errs[:3] {
			if err != nil {
				t.Fatalf("request %d before commit: %v", i, err)
			}
		}
		if !errors.Is(errs[3], server.ErrRemoteAborted) {
			t.Fatalf("commit of a taborted transaction through the router = %v, want ErrRemoteAborted", errs[3])
		}
		assertNoOpenTxn(t, c.nodes[0], vetoed)
		assertNoOpenTxn(t, c.nodes[1], other)
		if err := s.Begin(); err != nil {
			t.Fatalf("begin after relayed abort: %v", err)
		}
		if err := s.Abort(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRouterRelaysDeadlockVictim: two writers, each holding an object on
// shard 1, deadlock on shard 0. The victim must learn it was rolled
// back (ErrRemoteAborted), the router must abort the victim's shard-1
// part too, and the victim's session must be ready for a fresh begin;
// the survivor commits.
func TestRouterRelaysDeadlockVictim(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	forEachFrontProtocol(t, c, func(t *testing.T, open func() server.Session) {
		x, y := mkDoc(t, c.nodes[0], &Doc{}), mkDoc(t, c.nodes[0], &Doc{})
		z := [2]uint64{mkDoc(t, c.nodes[1], &Doc{}), mkDoc(t, c.nodes[1], &Doc{})}
		w := [2]server.Session{open(), open()}
		first, second := [2]uint64{x, y}, [2]uint64{y, x}
		for i := range w {
			for _, err := range pipe(w[i], &server.Request{Op: "begin"}, bump(z[i]), bump(first[i])) {
				if err != nil {
					t.Fatalf("writer %d setup: %v", i, err)
				}
			}
		}
		// Each writer now asks for the other's shard-0 object: a cycle.
		var res [2]chan error
		for i := range w {
			res[i] = make(chan error, 1)
			go func() { res[i] <- pipe(w[i], bump(second[i]))[0] }()
		}
		errs := [2]error{<-res[0], <-res[1]}
		victim := 0
		if errs[0] == nil {
			victim = 1
		}
		if !errors.Is(errs[victim], server.ErrRemoteAborted) || errs[1-victim] != nil {
			t.Fatalf("deadlock through the router = %v / %v, want exactly one ErrRemoteAborted", errs[0], errs[1])
		}
		assertNoOpenTxn(t, c.nodes[1], z[victim])
		if err := w[victim].Begin(); err != nil {
			t.Fatalf("victim's begin after relayed abort: %v", err)
		}
		if err := w[victim].Abort(); err != nil {
			t.Fatal(err)
		}
		if err := w[1-victim].Commit(); err != nil {
			t.Fatalf("survivor's commit: %v", err)
		}
	})
}
