package ode_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"ode/internal/core"
	"ode/internal/server"
	"ode/internal/shard"
	"ode/internal/storage/dali"
)

// docRow is one doc-coverage check: every term must appear verbatim in
// text, the contents of doc.
type docRow struct {
	doc, text, what string
	terms           []string
}

// TestProtocolDocCoverage enforces the contract docs/PROTOCOL.md states:
// every row of the server op table is specified there, as is every JSON
// field of the request and response envelopes and of the proto op's
// status payload, and every server.* metric is in OBSERVABILITY.md.
// Adding an op, a field or a metric without its doc line fails here.
func TestProtocolDocCoverage(t *testing.T) {
	var fields []string
	for _, v := range []any{server.Request{}, server.Response{}, server.ProtoStatus{}} {
		fields = append(fields, jsonFields(reflect.TypeOf(v))...)
	}
	protoDoc := readDoc(t, "docs/PROTOCOL.md")
	checkDocRows(t, []docRow{
		{"docs/PROTOCOL.md", protoDoc, "op", opNames()},
		{"docs/PROTOCOL.md", protoDoc, "JSON field", fields},
		{"docs/OBSERVABILITY.md", readDoc(t, "docs/OBSERVABILITY.md"), "metric", fleetMetrics(t, "server")},
	})
}

// TestShardingDocCoverage enforces the contract docs/SHARDING.md states:
// every row of the server op table is routed in its routing table, it
// names the fleet CLI flags and its key terms, and every shard.* and
// router.* metric a live one-shard fleet registers is in
// OBSERVABILITY.md.
func TestShardingDocCoverage(t *testing.T) {
	shardDoc := readDoc(t, "docs/SHARDING.md")
	// The routing table runs from its header row to the first blank line.
	start := strings.Index(shardDoc, "| ops | route |")
	if start < 0 {
		t.Fatal("docs/SHARDING.md has no routing table (| ops | route |)")
	}
	routing, _, _ := strings.Cut(shardDoc[start:], "\n\n")
	checkDocRows(t, []docRow{
		{"docs/SHARDING.md's routing table", routing, "op", opNames()},
		{"docs/SHARDING.md", shardDoc, "fleet flag or term", []string{
			"-shard-peers", "-shard-index", "-shard-vnodes", "-shards", "-obs-addr",
			"fleet-routed", "BENCHMARK.json", "exactly once", "watermark"}},
		{"docs/OBSERVABILITY.md", readDoc(t, "docs/OBSERVABILITY.md"), "metric", fleetMetrics(t, "shard", "router")},
	})
}

func checkDocRows(t *testing.T, rows []docRow) {
	t.Helper()
	for _, r := range rows {
		for _, term := range r.terms {
			if !strings.Contains(r.text, term) {
				t.Errorf("%s %s is not documented in %s", r.what, term, r.doc)
			}
		}
	}
}

// jsonFields returns the JSON names of typ's fields, in backquotes.
func jsonFields(typ reflect.Type) []string {
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			fields = append(fields, "`"+name+"`")
		}
	}
	return fields
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing: %v", path, err)
	}
	return string(raw)
}

// opNames returns every op table row's name in backquotes.
func opNames() []string {
	var ops []string
	for _, op := range server.OpTable() {
		ops = append(ops, "`"+op.Name+"`")
	}
	return ops
}

// fleetMetrics boots a live one-shard fleet — the shard's server, engine
// and forwarder register on the database registry, the router on its
// own — and returns, in backquotes, every metric registered under one of
// the given dot prefixes. It fails the test if a prefix has none, since
// the coverage check would then be vacuous.
func fleetMetrics(t *testing.T, prefixes ...string) []string {
	t.Helper()
	ring := shard.MustRing(1, 0)
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.EnableSharding(ring.OIDFilter(0)); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 1)
	srv := server.NewWithOptions(db, server.Options{ExtraOps: shard.Ops(db, ring, 0, addrs)})
	if addrs[0], err = srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := shard.NewForwarder(db, ring, shard.ForwarderOptions{Self: 0, Addrs: addrs}); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(ring, shard.RouterOptions{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	want := map[string]bool{}
	for _, p := range prefixes {
		want[p] = true
	}
	var metrics []string
	seen := map[string]bool{}
	for _, name := range append(db.Observability().Names(), rt.Observability().Names()...) {
		if prefix, _, _ := strings.Cut(name, "."); want[prefix] {
			seen[prefix] = true
			metrics = append(metrics, "`"+name+"`")
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("the fleet registered metrics under only %v of %v; coverage check is vacuous", seen, prefixes)
	}
	return metrics
}
