package shard

import (
	"maps"
	"net"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/dali"
)

// storageOID converts a wire ref to a storage OID.
func storageOID(oid uint64) storage.OID { return storage.OID(oid) }

// Doc is the cross-shard test class: "Pair" is a `,`-sequence composite
// whose first half typically arrives from another shard, "Chain" is a
// trigger whose action posts a user event to an arbitrary (possibly
// remote) object — the shard-A-fires-first half of the headline test —
// and "Veto" taborts the transaction that Pokes its anchor.
type Doc struct {
	Audits int
	Next   uint64 // Chain posts First here when it fires
}

func docClass() *core.Class {
	return core.MustClass("Doc",
		core.Factory(func() any { return new(Doc) }),
		core.Method("Bump", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*Doc).Audits++
			return nil, nil
		}),
		core.Method("Poke", func(ctx *core.Ctx, self any, args []any) (any, error) {
			return nil, nil
		}),
		core.Events("First", "Second", "Kick", "after Poke"),
		core.Trigger("Pair", "First , Second",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "Bump")
				return err
			}),
		core.Trigger("Veto", "after Poke",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				ctx.TAbort()
				return nil
			}),
		core.Trigger("Chain", "Kick",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				d := self.(*Doc)
				if d.Next == 0 {
					return nil
				}
				return ctx.PostUserEvent(core.RefFromOID(storageOID(d.Next)), "First")
			}),
	)
}

// testNode is one in-process shard: database, server, forwarder.
type testNode struct {
	db   *core.Database
	srv  *server.Server
	fwd  *Forwarder
	addr string
}

// testCluster is n shards plus (optionally) a router in front.
type testCluster struct {
	t      *testing.T
	ring   *Ring
	nodes  []*testNode
	addrs  []string
	router *Router
	raddr  string

	maxRequest int // the router's MaxRequestBytes across restarts
}

// clusterConfig tweaks startCluster for the chaos tests.
type clusterConfig struct {
	// dialFor, when set, supplies each shard's forwarder dial (chaos
	// link interposition). nil entries mean the default dialer.
	dialFor func(self int) func(string, time.Duration) (net.Conn, error)
	// fwdAddrs, when set, overrides the forwarder's view of the shard
	// addresses (pointing a link at a fault proxy).
	fwdAddrs func(addrs []string) []string
	// noRouter skips the router (shard-direct tests).
	noRouter bool
	// maxRequest, when set, is every front's MaxRequestBytes (shards and
	// router alike).
	maxRequest int
	// bind, when set, is bound on every shard server beside the shard
	// ops.
	bind map[string]server.Binding
}

// startCluster boots n shard servers (and a router unless told not to),
// all torn down via t.Cleanup.
func startCluster(t *testing.T, n int, cfg clusterConfig) *testCluster {
	t.Helper()
	ring := MustRing(n, 0)
	c := &testCluster{t: t, ring: ring, addrs: make([]string, n), maxRequest: cfg.maxRequest}
	for i := 0; i < n; i++ {
		m := dali.New()
		m.SetOIDFilter(ring.OIDFilter(i))
		db, err := core.NewDatabase(m)
		if err != nil {
			t.Fatal(err)
		}
		db.Causes().SetNode(uint64(0xA0 + i))
		if err := db.Register(docClass()); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableSharding(ring.OIDFilter(i)); err != nil {
			t.Fatal(err)
		}
		ops := Ops(db, ring, i, c.addrs)
		maps.Copy(ops, cfg.bind)
		srv := server.NewWithOptions(db, server.Options{ExtraOps: ops, MaxRequestBytes: cfg.maxRequest})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.addrs[i] = addr
		node := &testNode{db: db, srv: srv, addr: addr}
		c.nodes = append(c.nodes, node)
		t.Cleanup(func() {
			if node.fwd != nil {
				node.fwd.Stop()
			}
			node.srv.Close()
			node.db.Close()
		})
	}
	for i, node := range c.nodes {
		fa := c.addrs
		if cfg.fwdAddrs != nil {
			fa = cfg.fwdAddrs(c.addrs)
		}
		opts := ForwarderOptions{Self: i, Addrs: fa, Poll: 5 * time.Millisecond, Timeout: 2 * time.Second}
		if cfg.dialFor != nil {
			opts.Dial = cfg.dialFor(i)
		}
		fwd, err := NewForwarder(node.db, ring, opts)
		if err != nil {
			t.Fatal(err)
		}
		node.fwd = fwd
		go fwd.Run()
	}
	if !cfg.noRouter {
		c.startRouter()
	}
	return c
}

// startRouter (re)starts a router in front of the cluster; the previous
// one, if any, is closed first (kill/restart tests).
func (c *testCluster) startRouter() {
	c.t.Helper()
	if c.router != nil {
		c.router.Close()
	}
	rt, err := NewRouter(c.ring, RouterOptions{Addrs: c.addrs, MaxRequestBytes: c.maxRequest})
	if err != nil {
		c.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.t.Fatal(err)
	}
	c.router = rt
	c.raddr = ln.Addr().String()
	go rt.Serve(ln)
	c.t.Cleanup(func() { rt.Close() })
}

// mkDoc creates a Doc directly on one shard (its allocator guarantees
// the OID is shard-owned) and returns the ref.
func mkDoc(t *testing.T, node *testNode, d *Doc) uint64 {
	t.Helper()
	tx := node.db.Begin()
	ref, err := node.db.Create(tx, "Doc", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return uint64(ref.OID())
}

// activate turns a trigger on directly on the owning shard.
func activate(t *testing.T, node *testNode, oid uint64, trigger string) {
	t.Helper()
	tx := node.db.Begin()
	if _, err := node.db.Activate(tx, core.RefFromOID(storageOID(oid)), trigger); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// post posts a user event in its own transaction directly on a shard.
func post(t *testing.T, node *testNode, oid uint64, event string) {
	t.Helper()
	tx := node.db.Begin()
	if err := node.db.PostUserEvent(tx, core.RefFromOID(storageOID(oid)), event); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// audits reads Doc.Audits committed state on its owning shard.
func audits(t *testing.T, node *testNode, oid uint64) int {
	t.Helper()
	tx := node.db.Begin()
	defer tx.Abort()
	v, err := node.db.Get(tx, core.RefFromOID(storageOID(oid)))
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Doc).Audits
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ownerNode returns the cluster node owning oid.
func (c *testCluster) ownerNode(oid uint64) *testNode { return c.nodes[c.ring.Owner(oid)] }

// otherThan returns some shard index != d.
func (c *testCluster) otherThan(d int) int { return (d + 1) % len(c.nodes) }
