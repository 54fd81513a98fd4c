package shard

import (
	"encoding/json"
	"testing"

	"ode/internal/server"
)

// FuzzRouteRequest mirrors the wire layer's FuzzFrameDecode one level
// up: an arbitrary request — any op string, any field soup a JSON or
// ODE2 payload can decode into — must produce exactly one routing
// decision. No panic, no out-of-range destination, and every refused
// request carries a typed error; a request is never double-forwarded
// because the decision space is a single value. The corpus holds one
// request per row of the op table, plus malformed ones.
func FuzzRouteRequest(f *testing.F) {
	for _, op := range server.OpTable() {
		seed, err := json.Marshal(sampleRequest(op.Name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, 4)
	}
	for _, s := range []string{
		`{"op":"invoke","ref":18446744073709551615,"method":"Bump"}`,
		`{"op":"post","ref":0,"event":"First"}`,
		`{"op":""}`,
		`{"op":"nonsense","ref":99}`,
		`{"not":"a request"}`,
		`garbage`,
	} {
		f.Add([]byte(s), 4)
	}
	f.Fuzz(func(t *testing.T, data []byte, shards int) {
		shards = shards%8 + 1
		if shards < 1 {
			shards += 8
		}
		ring := MustRing(shards, 16)
		var req server.Request
		if err := json.Unmarshal(data, &req); err != nil {
			// Not a decodable request: both fronts reject it before
			// routing, so routeOf never sees it. Still exercise routeOf
			// with the zero request below.
			req = server.Request{}
		}
		op, dest := routeOf(ring, &req)
		switch op.Route {
		case server.RouteRef, server.RouteID:
			if dest < 0 || dest >= ring.Shards() {
				t.Fatalf("op %q: destination %d out of range for %d shards", req.Op, dest, ring.Shards())
			}
		case server.RouteLocal, server.RouteCreate, server.RouteFanout:
		case server.RouteReject:
			if op.Reject == nil {
				t.Fatalf("op %q: rejected without a typed error", req.Op)
			}
		default:
			t.Fatalf("op %q: unknown route %d", req.Op, op.Route)
		}
		if op.Route != server.RouteReject && op.Reject != nil {
			t.Fatalf("op %q: route %d carries unexpected error %v", req.Op, op.Route, op.Reject)
		}
		// Determinism: the same request routes the same way twice (a
		// request is forwarded at most once, to one place).
		if op2, dest2 := routeOf(ring, &req); op.Route != op2.Route || dest != dest2 {
			t.Fatalf("op %q: unstable route (%d,%d) vs (%d,%d)", req.Op, op.Route, dest, op2.Route, dest2)
		}
	})
}
