package obs

import (
	"testing"
)

func TestHistogramBucketLayout(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	// -5 clamps to 0, so sum excludes it.
	if got := h.Sum(); got != 0+1+2+3+4+7+8+1023+1024 {
		t.Fatalf("Sum = %d", got)
	}
	type rng struct{ lo, hi, n uint64 }
	wantBuckets := []rng{
		{0, 1, 2},       // 0 and the clamped -5
		{1, 2, 1},       // 1
		{2, 4, 2},       // 2, 3
		{4, 8, 2},       // 4, 7
		{8, 16, 1},      // 8
		{512, 1024, 1},  // 1023
		{1024, 2048, 1}, // 1024
	}
	got := h.snapshotBuckets()
	if len(got) != len(wantBuckets) {
		t.Fatalf("buckets = %+v, want %d non-empty", got, len(wantBuckets))
	}
	for i, w := range wantBuckets {
		b := got[i]
		if b.Lo != w.lo || b.Hi != w.hi || b.Count != w.n {
			t.Errorf("bucket %d = [%d,%d)x%d, want [%d,%d)x%d", i, b.Lo, b.Hi, b.Count, w.lo, w.hi, w.n)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket [64,128)
	}
	h.Observe(100000) // bucket [65536,131072)
	if q := h.Quantile(0.5); q != 64+32 {
		t.Fatalf("P50 = %d, want geometric midpoint 96", q)
	}
	if q := h.Quantile(1.0); q != 65536+32768 {
		t.Fatalf("P100 = %d, want midpoint of top bucket", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b", "count", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("a.b", "count", "")
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("z.last", "count", "")
	c.Add(7)
	h := r.Histogram("a.first_ns", "ns", "")
	h.Observe(5)
	r.Func("m.middle", "count", "", func() uint64 { return 42 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	if snap[0].Name != "a.first_ns" || snap[1].Name != "m.middle" || snap[2].Name != "z.last" {
		t.Fatalf("snapshot order: %s, %s, %s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[0].Kind != KindHistogram || snap[0].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", snap[0])
	}
	if snap[1].Value != 42 || snap[2].Value != 7 {
		t.Fatalf("values = %d, %d", snap[1].Value, snap[2].Value)
	}
	if v, ok := r.Value("z.last"); !ok || v != 7 {
		t.Fatalf("Value(z.last) = %d, %v", v, ok)
	}
	if _, ok := r.Value("a.first_ns"); ok {
		t.Fatal("Value reported a histogram")
	}
}
