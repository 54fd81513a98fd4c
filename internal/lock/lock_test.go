package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var res = Resource{SpaceObject, 1}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, res, Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("second shared lock blocked")
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := m.Lock(2, res, Shared); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("shared granted while exclusive held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("shared not granted after release")
	}
}

func TestReentrantLock(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		if err := m.Lock(1, res, Shared); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Lock(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	// Holding X, requesting S is a no-op (stronger already held).
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.HeldMode(1, res); !ok || mode != Exclusive {
		t.Fatalf("held mode = %v,%v; want Exclusive", mode, ok)
	}
}

func TestUpgradeSoloHolder(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, res, Exclusive); err != nil {
		t.Fatalf("solo upgrade failed: %v", err)
	}
	if got := m.Stats().Upgrades; got != 1 {
		t.Fatalf("upgrades = %d, want 1", got)
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	upgraded := make(chan error, 1)
	go func() { upgraded <- m.Lock(1, res, Exclusive) }()
	select {
	case <-upgraded:
		t.Fatal("upgrade granted while another reader holds")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(2)
	select {
	case err := <-upgraded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("upgrade never granted")
	}
	if mode, _ := m.HeldMode(1, res); mode != Exclusive {
		t.Fatalf("mode after upgrade = %v", mode)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// Two shared holders both upgrading is the classic deadlock.
	m := NewManager()
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(1, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond) // let txn 1 queue first
	go func() { errs <- m.Lock(2, res, Exclusive) }()

	var deadlocked bool
	select {
	case err := <-errs:
		if errors.Is(err, ErrDeadlock) {
			deadlocked = true
			// victim aborts: release its locks so the other proceeds
			if err := func() error {
				m.ReleaseAll(2)
				return nil
			}(); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("no deadlock detected")
	}
	if !deadlocked {
		// First completer was the survivor; the second must deadlock.
		select {
		case err := <-errs:
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("expected deadlock, got %v", err)
			}
			m.ReleaseAll(2)
		case <-time.After(time.Second):
			t.Fatal("no deadlock detected")
		}
	}
	if m.Stats().Deadlocks == 0 {
		t.Fatal("deadlock counter not incremented")
	}
}

func TestTwoResourceDeadlock(t *testing.T) {
	// T1: X(a) then X(b); T2: X(b) then X(a).
	a := Resource{SpaceObject, 10}
	b := Resource{SpaceObject, 11}
	m := NewManager()
	if err := m.Lock(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(1, b, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- m.Lock(2, a, Exclusive) }()

	select {
	case err := <-errs:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("first completion = %v, want deadlock (T2 is the victim)", err)
		}
		m.ReleaseAll(2)
	case <-time.After(time.Second):
		t.Fatal("no deadlock detected")
	}
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("survivor got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never granted")
	}
}

func TestWriterNotStarved(t *testing.T) {
	// A queued exclusive waiter must block later shared requests.
	m := NewManager()
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	wGranted := make(chan error, 1)
	go func() { wGranted <- m.Lock(2, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond)

	rGranted := make(chan error, 1)
	go func() { rGranted <- m.Lock(3, res, Shared) }()
	select {
	case <-rGranted:
		t.Fatal("late reader overtook queued writer")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-wGranted; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-rGranted; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAllWakesQueue(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	const readers = 5
	var wg sync.WaitGroup
	var granted atomic.Int32
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			if err := m.Lock(id, res, Shared); err == nil {
				granted.Add(1)
			}
		}(TxnID(10 + i))
	}
	time.Sleep(50 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	if granted.Load() != readers {
		t.Fatalf("%d readers granted, want %d", granted.Load(), readers)
	}
}

func TestUnlockSingle(t *testing.T) {
	m := NewManager()
	a := Resource{SpaceObject, 1}
	b := Resource{SpaceTrigger, 1}
	if err := m.Lock(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	m.Unlock(1, a)
	if _, ok := m.HeldMode(1, a); ok {
		t.Fatal("a still held after Unlock")
	}
	if _, ok := m.HeldMode(1, b); !ok {
		t.Fatal("b dropped by Unlock(a)")
	}
}

func TestSpacesAreIndependent(t *testing.T) {
	m := NewManager()
	objRes := Resource{SpaceObject, 7}
	trgRes := Resource{SpaceTrigger, 7}
	if err := m.Lock(1, objRes, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, trgRes, Exclusive); err != nil {
		t.Fatal(err) // same ID, different space: no conflict
	}
}

func TestStatsCounting(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, res, Exclusive) }()
	time.Sleep(30 * time.Millisecond)
	st := m.Stats()
	if st.Waits != 1 {
		t.Fatalf("waits = %d, want 1", st.Waits)
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.Acquisitions < 2 {
		t.Fatalf("acquisitions = %d, want >= 2", st.Acquisitions)
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestModeAndResourceString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings wrong")
	}
	if got := (Resource{SpaceTrigger, 9}).String(); got != "1/9" {
		t.Fatalf("resource string = %q", got)
	}
}

// Property: any random schedule of lock requests over a handful of
// transactions and resources never grants conflicting modes concurrently
// and always terminates (deadlock victims get errors, not hangs).
//
// Each transaction is driven by one goroutine, as the transaction
// manager drives it: its requests run in script order under strict 2PL,
// every grant held until the script ends or a deadlock makes it the
// victim, which releases all and carries on. Releases clear the model
// under mu, so every holding the model records is real while mu is held.
func TestNoConflictingGrantsProperty(t *testing.T) {
	f := func(script []uint8) bool {
		m := NewManager()
		held := make(map[Resource]map[TxnID]Mode)
		var mu sync.Mutex
		ok := true
		releaseAll := func(txn TxnID) {
			mu.Lock()
			for _, hs := range held {
				delete(hs, txn)
			}
			m.ReleaseAll(txn)
			mu.Unlock()
		}

		var wg sync.WaitGroup
		for txn := TxnID(1); txn <= 3; txn++ {
			wg.Add(1)
			go func(txn TxnID) {
				defer wg.Done()
				defer releaseAll(txn)
				for _, b := range script {
					if TxnID(b%3+1) != txn {
						continue
					}
					r := Resource{SpaceObject, uint64(b / 3 % 3)}
					mode := Shared
					if b%2 == 0 {
						mode = Exclusive
					}
					if err := m.Lock(txn, r, mode); err != nil {
						releaseAll(txn)
						continue
					}
					mu.Lock()
					hm, _ := m.HeldMode(txn, r)
					if held[r] == nil {
						held[r] = make(map[TxnID]Mode)
					}
					for h, other := range held[r] {
						if h != txn && (hm == Exclusive || other == Exclusive) {
							ok = false
						}
					}
					held[r][txn] = hm
					mu.Unlock()
				}
			}(txn)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDistinctResources(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := TxnID(i + 1)
			for j := 0; j < 100; j++ {
				r := Resource{SpaceObject, uint64(i*1000 + j)}
				if err := m.Lock(txn, r, Exclusive); err != nil {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
			m.ReleaseAll(txn)
		}(i)
	}
	wg.Wait()
	st := m.Stats()
	if st.Deadlocks != 0 || st.Waits != 0 {
		t.Fatalf("disjoint workload saw waits=%d deadlocks=%d", st.Waits, st.Deadlocks)
	}
}

func ExampleManager() {
	m := NewManager()
	_ = m.Lock(1, Resource{SpaceObject, 42}, Shared)
	// Advancing a trigger FSM needs the trigger descriptor in X mode
	// (§6: triggers turn reads into writes).
	_ = m.Lock(1, Resource{SpaceTrigger, 7}, Exclusive)
	mode, _ := m.HeldMode(1, Resource{SpaceTrigger, 7})
	fmt.Println(mode)
	m.ReleaseAll(1)
	// Output: X
}
