package shard

import (
	"hash/fnv"
	"testing"
)

// ringGolden is the FNV-1a checksum of the 4-shard assignment of the
// fixed corpus below. The ring layout is part of the cluster's wire
// contract: every shard and router must compute the identical
// assignment, across runs, builds, and architectures. If this test
// fails, the ring function changed — that is a breaking cluster
// change, not a test to update casually (see docs/SHARDING.md,
// "Rebalancing").
const ringGolden = 0x5937daba0a1c0da0

// corpus returns the fixed OID corpus the stability and movement tests
// share: the first n user OIDs.
func corpus(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(FirstUserOIDForTest) + uint64(i)
	}
	return out
}

// FirstUserOIDForTest mirrors obj.FirstUserOID without importing it in
// every call site below.
const FirstUserOIDForTest = 18

func TestRingSeedStable(t *testing.T) {
	r := MustRing(4, DefaultVnodes)
	h := fnv.New64a()
	var buf [1]byte
	for _, oid := range corpus(10000) {
		buf[0] = byte(r.Owner(oid))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != ringGolden {
		t.Fatalf("ring assignment drifted: checksum %#x, want %#x", got, ringGolden)
	}
	// A second, independently built ring agrees point for point.
	r2 := MustRing(4, DefaultVnodes)
	for _, oid := range corpus(10000) {
		if r.Owner(oid) != r2.Owner(oid) {
			t.Fatalf("two rings with identical config disagree on oid %d", oid)
		}
	}
}

func TestRingMinimalMovement(t *testing.T) {
	oids := corpus(20000)
	for n := 1; n <= 7; n++ {
		old := MustRing(n, DefaultVnodes)
		grown := MustRing(n+1, DefaultVnodes)
		moved := 0
		for _, oid := range oids {
			a, b := old.Owner(oid), grown.Owner(oid)
			if a == b {
				continue
			}
			moved++
			// Consistent hashing: growing the ring only adds points, so a
			// key can only move TO the new shard, never between old ones.
			if b != n {
				t.Fatalf("n=%d: oid %d moved %d->%d, not to the new shard %d", n, oid, a, b, n)
			}
		}
		frac := float64(moved) / float64(len(oids))
		ideal := 1.0 / float64(n+1)
		if frac > 1.35*ideal {
			t.Errorf("n=%d->%d: moved %.4f of corpus, ideal %.4f (cap 1.35x)", n, n+1, frac, ideal)
		}
		if moved == 0 {
			t.Errorf("n=%d->%d: nothing moved; the new shard owns no keys", n, n+1)
		}
	}
}

func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		r := MustRing(n, DefaultVnodes)
		counts := make([]int, n)
		oids := corpus(40000)
		for _, oid := range oids {
			counts[r.Owner(oid)]++
		}
		fair := float64(len(oids)) / float64(n)
		for s, c := range counts {
			if ratio := float64(c) / fair; ratio < 0.55 || ratio > 1.55 {
				t.Errorf("n=%d: shard %d holds %.2fx its fair share", n, s, ratio)
			}
		}
	}
}

func TestRingSystemOIDsLocal(t *testing.T) {
	r := MustRing(4, DefaultVnodes)
	for s := 0; s < 4; s++ {
		filter := r.OIDFilter(s)
		for oid := uint64(0); oid < FirstUserOIDForTest; oid++ {
			if !filter(oid) {
				t.Fatalf("shard %d must be allowed to mint system oid %d", s, oid)
			}
		}
	}
	// System OIDs are never routed: Owner reports the conventional shard
	// 0 for them at every fleet size instead of hashing them.
	for n := 1; n <= 8; n++ {
		ring := MustRing(n, DefaultVnodes)
		for oid := uint64(0); oid < FirstUserOIDForTest; oid++ {
			if got := ring.Owner(oid); got != 0 {
				t.Fatalf("%d shards: system oid %d owned by shard %d, want 0", n, oid, got)
			}
		}
	}
	// User OIDs: exactly one shard may mint each.
	for _, oid := range corpus(1000) {
		owners := 0
		for s := 0; s < 4; s++ {
			if r.OIDFilter(s)(oid) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("oid %d is mintable by %d shards, want exactly 1", oid, owners)
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(0, 8); err == nil {
		t.Fatal("NewRing(0) must fail")
	}
}
