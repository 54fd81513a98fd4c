package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFailSyncAtFiresOnceThenHeals(t *testing.T) {
	s := NewSchedule().FailSyncAt(2)
	w := Wrap(tempFile(t), s)
	if err := w.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 2 = %v, want injected", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync 3 after heal: %v", err)
	}
	c := s.Counters()
	if c.Syncs != 3 || c.Injected != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestTornWriteAtByte(t *testing.T) {
	f := tempFile(t)
	s := NewSchedule().TornWriteAtByte(10)
	w := Wrap(f, s)
	if n, err := w.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	// This write crosses byte 10: only 4 of 8 bytes land.
	n, err := w.Write(make([]byte, 8))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 10 {
		t.Fatalf("file size = %d, want 10 (torn at byte 10)", st.Size())
	}
	// Healed: later writes go through whole.
	if n, err := w.Write(make([]byte, 5)); n != 5 || err != nil {
		t.Fatalf("write after tear: n=%d err=%v", n, err)
	}
}

func TestCrashAtPanics(t *testing.T) {
	s := NewSchedule().CrashAt(OpSync, 1)
	w := Wrap(tempFile(t), s)
	defer func() {
		r := recover()
		c, ok := r.(Crash)
		if !ok || c.Op != OpSync || c.N != 1 {
			t.Fatalf("recovered %v, want Crash{OpSync,1}", r)
		}
	}()
	_ = w.Sync()
	t.Fatal("sync did not panic")
}

func TestFailSyncRateIsDeterministic(t *testing.T) {
	run := func() []bool {
		s := NewSchedule().FailSyncRate(0.3, 42)
		w := Wrap(tempFile(t), s)
		out := make([]bool, 50)
		for i := range out {
			out[i] = w.Sync() != nil
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at sync %d: same seed must inject the same faults", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("rate 0.3 over %d syncs injected %d failures", len(a), fails)
	}
}

func TestEnumerateStopsAtFirstSilentPoint(t *testing.T) {
	var tried []uint64
	fired, err := Enumerate(func(n uint64) (bool, error) {
		tried = append(tried, n)
		return n <= 3, nil
	})
	if err != nil || fired != 3 || len(tried) != 4 {
		t.Fatalf("fired %d over tries %v (err %v), want 3 fired over 1..4", fired, tried, err)
	}
	if _, err := Enumerate(func(uint64) (bool, error) { return true, nil }); err == nil {
		t.Fatal("a fault that never stops firing must fail at the cap")
	}
}
