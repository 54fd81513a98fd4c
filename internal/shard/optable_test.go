package shard

import (
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/storage/eos"
)

// sampleRequest is one request for op with every field some row reads
// filled in, so each handler gets past its argument checks on the test
// fleet. FuzzRouteRequest seeds one per row.
func sampleRequest(op string) *server.Request {
	return &server.Request{Op: op, Class: "Doc", Ref: 18, Method: "Bump", Trigger: "Pair", Event: "First",
		Cluster: "alldocs", ID: 19, Origin: 1, Raw: true}
}

// startBoundServer serves one sharded disk database with every binding
// the tree ships for the op table's deployment rows — shard.Ops, the
// Hub's stream ops, and the admin ops of a Replica following it — and
// returns its address and the bindings.
func startBoundServer(t *testing.T) (string, map[string]server.Binding) {
	t.Helper()
	dir := t.TempDir()
	store, err := eos.Open(filepath.Join(dir, "s0.eos"), eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ring := MustRing(1, 0)
	if err := db.Register(docClass()); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSharding(ring.OIDFilter(0)); err != nil {
		t.Fatal(err)
	}
	hub := repl.NewHub(store, repl.HubOptions{PingInterval: 20 * time.Millisecond})
	t.Cleanup(hub.Close)
	// The replica follows a second front over the same database, which
	// is listening before the bound server is built.
	primary := server.NewWithOptions(db, server.Options{ExtraOps: hub.Ops()})
	paddr, err := primary.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	rpath := filepath.Join(dir, "r0.eos")
	rstore, err := eos.Open(rpath, eos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repl.NewReplica(paddr, rstore, repl.ReplicaOptions{PosPath: rpath + ".replpos"})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		rep.Stop()
		t.Fatal(err)
	}
	rdb, err := core.NewDatabase(rstore)
	if err != nil {
		rep.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Stop(); rdb.Close() })
	if err := rdb.Register(docClass()); err != nil {
		t.Fatal(err)
	}
	rep.AttachDatabase(rdb)

	bound := Ops(db, ring, 0, []string{paddr})
	maps.Copy(bound, hub.Ops())
	maps.Copy(bound, rep.Ops())
	srv := server.NewWithOptions(db, server.Options{ExtraOps: bound})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, bound
}

// TestOpTableWalk sends every row of the op table through a server that
// binds every deployment handler the tree ships and through a 2-shard
// router, on both protocols. No answer may call the op unknown,
// unroutable or unmergeable; the router answers a reject row with the
// row's typed error; and unless a stream op took it over, the
// connection still serves afterwards. A row added without a handler or
// binding, or without a route or merge the router knows, fails here.
func TestOpTableWalk(t *testing.T) {
	saddr, bound := startBoundServer(t)
	c := startCluster(t, 2, clusterConfig{})
	rows := server.OpTable()
	// Promotion stops the replica's stream, so it goes last: repl.verify
	// audits a replica that is still following.
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].Name != repl.OpPromote && rows[j].Name == repl.OpPromote
	})
	for _, op := range rows {
		for _, front := range []struct{ name, addr string }{{"server", saddr}, {"router", c.raddr}} {
			for _, binary := range []bool{false, true} {
				where := fmt.Sprintf("%s via %s (binary=%v)", op.Name, front.name, binary)
				// A stream row bound on the server takes a JSON connection over.
				takeover := front.name == "server" && !binary && bound[op.Name].Stream != nil
				answer := walkOp(t, front.addr, binary, sampleRequest(op.Name), !takeover)
				for _, bad := range []string{"unknown op", "unroutable", "unmergeable"} {
					if strings.Contains(answer, bad) {
						t.Errorf("%s answered %q", where, answer)
					}
				}
				if front.name == "router" && op.Route == server.RouteReject &&
					(op.Reject == nil || !strings.Contains(answer, op.Reject.Error())) {
					t.Errorf("%s answered %q, want the row's typed refusal %v", where, answer, op.Reject)
				}
			}
		}
	}
}

// walkOp sends req on a fresh connection and returns its error text
// ("<nil>" on success). When usable, the same connection must then
// still answer proto.
func walkOp(t *testing.T, addr string, binary bool, req *server.Request, usable bool) string {
	t.Helper()
	cl, err := server.DialOptions(addr, server.ClientOptions{Binary: binary, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Call(req)
	if usable {
		if _, perr := cl.Call(&server.Request{Op: "proto"}); perr != nil || cl.Reconnects() != 0 {
			t.Errorf("%s (binary=%v) left the connection unusable: %v, %d redials", req.Op, binary, perr, cl.Reconnects())
		}
	}
	return fmt.Sprint(err)
}
