package shard

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ode/internal/server"
)

// TestRouterBasicOpsJSON drives the single-server client API through
// the router over the JSON protocol: create round-robins across shards,
// ref ops land on the owner, scan merges the fleet.
func TestRouterBasicOpsJSON(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	cl, err := server.Dial(c.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Create a handful of objects through the router; ownership must
	// match the ring for every single one (the shard allocators enforce
	// it no matter which shard the router picked).
	var refs []uint64
	for i := 0; i < 9; i++ {
		if err := cl.Begin(); err != nil {
			t.Fatal(err)
		}
		ref, err := cl.Create("Doc", &Doc{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.ClusterAdd("alldocs", ref); err != nil {
			t.Fatal(err)
		}
		if err := cl.Commit(); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	owners := map[int]int{}
	for _, ref := range refs {
		owners[c.ring.Owner(ref)]++
	}
	if len(owners) < 2 {
		t.Fatalf("9 creates landed on %d shard(s); round-robin is not spreading", len(owners))
	}

	// Invoke + get route by ref; each object's state lives where the
	// ring says.
	for _, ref := range refs {
		if err := cl.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Invoke(ref, "Bump"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := audits(t, c.ownerNode(ref), ref); got != 1 {
			t.Fatalf("ref %d: audits %d on owner, want 1", ref, got)
		}
	}

	// clusteradd routed each ref to its owner; scan must reassemble the
	// full membership across shards.
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ClusterScan("alldocs")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("scan through router returned %d refs, want %d", len(got), len(refs))
	}
}

// TestRouterCrossShardTransaction: one front transaction touching two
// shards — both sides commit, or an abort rolls both back.
func TestRouterCrossShardTransaction(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	a := mkDoc(t, c.nodes[0], &Doc{})
	b := mkDoc(t, c.nodes[1], &Doc{})
	cl, err := server.Dial(c.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invoke(a, "Bump"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invoke(b, "Bump"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	if audits(t, c.nodes[0], a) != 1 || audits(t, c.nodes[1], b) != 1 {
		t.Fatal("cross-shard commit did not land on both shards")
	}

	// Abort: neither side may keep the increment.
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invoke(a, "Bump"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invoke(b, "Bump"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Abort(); err != nil {
		t.Fatal(err)
	}
	if audits(t, c.nodes[0], a) != 1 || audits(t, c.nodes[1], b) != 1 {
		t.Fatal("cross-shard abort leaked effects")
	}
}

// TestRouterBinaryProtocol: the same ops over ODE2 framing through the
// router, with multiplexed sessions completing independently.
func TestRouterBinaryProtocol(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	mux, err := server.DialMux(c.raddr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const sessions = 4
	done := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			s := mux.Session()
			defer s.Close()
			for j := 0; j < 5; j++ {
				if err := s.Begin(); err != nil {
					done <- err
					return
				}
				ref, err := s.Create("Doc", &Doc{})
				if err != nil {
					done <- err
					return
				}
				if _, err := s.Invoke(ref, "Bump"); err != nil {
					done <- err
					return
				}
				if err := s.Commit(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterShardStatus: the topology op is answered at the router with
// self -1, and at each shard with its own index.
func TestRouterShardStatus(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	ask := func(addr string) Status {
		cl, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		resp, err := cl.Call(&server.Request{Op: "shard.status"})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("shard.status: %s", resp.Error)
		}
		var st Status
		if err := json.Unmarshal(resp.Value, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := ask(c.raddr)
	if st.Self != -1 || st.Shards != 2 || len(st.Addrs) != 2 {
		t.Fatalf("router shard.status: %+v", st)
	}
	for i, node := range c.nodes {
		st := ask(node.addr)
		if st.Self != i || st.Shards != 2 {
			t.Fatalf("shard %d shard.status: %+v", i, st)
		}
	}
}

// TestRouterRejectsIngest: shard.ingest through the router is a typed
// error on both protocols, not a forward.
func TestRouterRejectsIngest(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	for _, binary := range []bool{false, true} {
		refusedKeepsConn(t, c.raddr, binary, "shard.ingest", server.ErrIngestViaRouter)
	}
}

// TestRouterStreamOps: repl.* ops — the stream ops and the replica
// admin ops alike — are refused at the router with the typed
// ErrReplViaRouter on both protocols, inside a transaction too, and the
// connection keeps serving: a replica dials the shard it follows.
func TestRouterStreamOps(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	for _, binary := range []bool{false, true} {
		for _, op := range []string{"repl.subscribe", "repl.status"} {
			refusedKeepsConn(t, c.raddr, binary, op, server.ErrReplViaRouter)
		}
	}
}

// TestRouterTriggerOps: activate/deactivate route by ref and trigger
// id; a composite completes via postings through the router.
func TestRouterTriggerOps(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	cl, err := server.Dial(c.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.Create("Doc", &Doc{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Activate(ref, "Pair")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	if own, idOwn := c.ring.Owner(ref), c.ring.Owner(id); own != idOwn {
		t.Fatalf("trigger state (oid %d, shard %d) not co-located with anchor (oid %d, shard %d)", id, idOwn, ref, own)
	}

	for _, ev := range []string{"First", "Second"} {
		if err := cl.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := cl.PostUserEvent(ref, ev); err != nil {
			t.Fatal(err)
		}
		if err := cl.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := audits(t, c.ownerNode(ref), ref); got != 1 {
		t.Fatalf("composite through router fired %d times, want 1", got)
	}

	// Deactivate routes by the trigger id's OID: arm a fresh trigger
	// (the fired one was consumed) and take it down through the router.
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	id2, err := cl.Activate(ref, "Chain")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Deactivate(id2); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterProtoAndMetrics: proto reports the front protocol and the
// front's wire counters; metrics reports the router's own registry.
func TestRouterProtoAndMetrics(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	cl, err := server.Dial(c.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Call(&server.Request{Op: "proto"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("proto: %s", resp.Error)
	}
	raw, _ := json.Marshal(resp.Result)
	if !strings.Contains(string(raw), `"protocol":"json"`) {
		t.Fatalf("proto through router: %s", raw)
	}

	// The wire counters are the front's own, not zeros filled in by
	// hand: a binary request moves frames_in and friends.
	bin, err := server.DialOptions(c.raddr, server.ClientOptions{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	for i := 0; i < 2; i++ { // the second answer counts the first's response frame
		if resp, err = bin.Call(&server.Request{Op: "proto"}); err != nil {
			t.Fatal(err)
		}
	}
	st := decodeResult[server.ProtoStatus](t, resp.Result)
	if st.Protocol != "binary" || !st.BinaryEnabled || st.MaxRequestBytes != server.DefaultMaxRequestBytes {
		t.Fatalf("proto over binary through router: %+v", st)
	}
	if st.ConnsJSON == 0 || st.ConnsBinary == 0 || st.FramesIn == 0 || st.FramesOut == 0 || st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("router wire counters did not move: %+v", st)
	}

	resp, err = cl.Call(&server.Request{Op: "metrics"})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = json.Marshal(resp.Result)
	if !strings.Contains(string(raw), "shard.route_requests") {
		t.Fatalf("metrics through router lacks shard.route_requests: %s", raw)
	}
}

// TestRouterKillRestart: the router is stateless above the shards — a
// mid-workload kill aborts open front transactions on the backends (no
// partial effects) and a fresh router serves the same fleet; the
// composite still completes exactly once.
func TestRouterKillRestart(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	target := mkDoc(t, c.nodes[1], &Doc{})
	activate(t, c.nodes[1], target, "Pair")

	cl, err := server.Dial(c.raddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := cl.PostUserEvent(target, "First"); err != nil {
		t.Fatal(err)
	}
	// Kill the router with the transaction open: the backend session
	// dies with it, so the posting must roll back.
	c.router.Close()
	cl.Close()

	c.startRouter()
	cl2, err := server.Dial(c.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for _, ev := range []string{"First", "Second"} {
		if err := cl2.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := cl2.PostUserEvent(target, ev); err != nil {
			t.Fatal(err)
		}
		if err := cl2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := audits(t, c.nodes[1], target); got != 1 {
		t.Fatalf("composite fired %d times across a router kill/restart, want exactly 1", got)
	}
	// The aborted pre-kill posting must not sit in any outbox either.
	for i, node := range c.nodes {
		if out := node.db.SettledOutbox(); len(out) != 0 {
			t.Fatalf("shard %d outbox not empty after router restart: %+v", i, out)
		}
	}
}

// TestRouterConcurrentTransactionsConflict: two front sessions racing
// on one object through the router surface the single-server outcome —
// one wins, one sees the lock conflict/deadlock error, nothing is lost.
func TestRouterConcurrentTransactionsConflict(t *testing.T) {
	c := startCluster(t, 2, clusterConfig{})
	ref := mkDoc(t, c.nodes[0], &Doc{})
	const workers = 4
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			cl, err := server.DialOptions(c.raddr, server.ClientOptions{RequestTimeout: 10 * time.Second})
			if err != nil {
				done <- 0
				return
			}
			defer cl.Close()
			bumps := 0
			for i := 0; i < 5; i++ {
				if err := cl.Begin(); err != nil {
					continue
				}
				if _, err := cl.Invoke(ref, "Bump"); err != nil {
					cl.Abort()
					continue
				}
				if err := cl.Commit(); err == nil {
					bumps++
				}
			}
			done <- bumps
		}()
	}
	want := 0
	for w := 0; w < workers; w++ {
		want += <-done
	}
	if got := audits(t, c.nodes[0], ref); got != want {
		t.Fatalf("audits %d, want %d (one per successful commit)", got, want)
	}
}
