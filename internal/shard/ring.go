// Package shard partitions one logical Ode database across N
// ode-server processes. The pieces:
//
//   - Ring: a seed-stable consistent-hash ring (virtual nodes) mapping
//     every user OID to its owning shard. Object allocation on each
//     shard is filtered through the same ring (storage.Manager's OID
//     filter), so an OID minted anywhere in the cluster is owned by
//     exactly the shard that minted it — routing never needs a
//     directory, just the ring.
//   - Router: a server.Front — the connection layer every ode-server
//     listens with, so both protocols, limits and close behaviour are
//     the server's own — whose sessions route each request to the
//     owning shard over multiplexed binary connections, relay the
//     shard's reply verbatim, fan out scans, and answer `shard.status`.
//   - Forwarder: the cross-shard event channel. A posting addressed to
//     a remote object is captured into the local shard's transactional
//     outbox (internal/core); the forwarder drains it in cause-ID
//     order to the owner's `shard.ingest` op, which applies it
//     idempotently behind a persisted per-origin watermark — the
//     exactly-once delivery that lets one composite trigger's FSM span
//     shards.
//
// docs/SHARDING.md is the narrative spec.
package shard

import (
	"fmt"
	"sort"

	"ode/internal/obj"
)

// DefaultVnodes is the virtual-node count per shard: enough that the
// load split stays within a few percent of uniform and that adding a
// shard moves close to the theoretical 1/(N+1) minimum of the keyspace.
const DefaultVnodes = 128

// Ring is a consistent-hash ring over the OID space. It is pure
// arithmetic — no maps, no per-process hash seeds — so the same
// (shards, vnodes) input yields the byte-identical assignment on every
// run, architecture, and process, which is what lets N shards and a
// router agree on ownership without coordination.
type Ring struct {
	shards int
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for n shards with v virtual nodes each
// (DefaultVnodes when v <= 0). n must be >= 1.
func NewRing(n, v int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", n)
	}
	if v <= 0 {
		v = DefaultVnodes
	}
	r := &Ring{shards: n, vnodes: v, points: make([]ringPoint, 0, n*v)}
	for s := 0; s < n; s++ {
		for i := 0; i < v; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, i), shard: s})
		}
	}
	// Ties (astronomically unlikely but possible) break by shard then
	// vnode order, deterministically.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// MustRing is NewRing for static configurations known to be valid.
func MustRing(n, v int) *Ring {
	r, err := NewRing(n, v)
	if err != nil {
		panic(err)
	}
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Vnodes returns the per-shard virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// Owner maps an OID to its owning shard. OIDs below obj.FirstUserOID
// are per-shard system objects (catalog, trigger-index buckets): every
// shard has its own local copy, and they are never routed, so Owner
// reports the conventional answer 0 for them — callers that care use
// IsSystem first.
func (r *Ring) Owner(oid uint64) int {
	key := mix64(oid ^ oidSalt)
	// First ring point at or after the key, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// IsSystem reports whether oid is a reserved per-shard system object,
// outside the ring's jurisdiction.
func IsSystem(oid uint64) bool { return oid < uint64(obj.FirstUserOID) }

// OIDFilter returns the allocation predicate for one shard: true when
// this shard may mint oid. Reserved system OIDs are always mintable
// (each shard bootstraps its own catalog); user OIDs only when the
// ring says so. Install it with the storage manager's SetOIDFilter.
func (r *Ring) OIDFilter(self int) func(uint64) bool {
	return func(oid uint64) bool {
		return IsSystem(oid) || r.Owner(oid) == self
	}
}

// oidSalt decorrelates the OID keyspace from the ring-point keyspace
// (both go through the same finalizer).
const oidSalt = 0x0de0_0de0_0de0_0de0

// pointHash places virtual node i of shard s on the ring. Pure
// function of (s, i): the ring layout is part of the cluster's wire
// contract (docs/SHARDING.md) and must never drift between builds.
func pointHash(s, i int) uint64 {
	return mix64(mix64(uint64(s)+1)*0x9e3779b97f4a7c15 + uint64(i) + 1)
}

// mix64 is the splitmix64 finalizer — the same avalanche the
// anti-entropy sketches use; fast, stateless, and identical on every
// architecture.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
