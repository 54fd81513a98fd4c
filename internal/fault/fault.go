// Package fault is a deterministic fault-injection layer for the file
// beneath the write-ahead log. A *File wraps any file-like value (in
// practice *os.File) and consults a programmable Schedule before every
// operation, so tests and experiments can make failure a first-class
// input: fail the Nth fsync, tear a write at byte K, wedge-then-heal,
// or panic at a crash point to simulate a process death mid-I/O.
//
// Everything is deterministic: schedules fire on operation counts or
// byte offsets, and the probabilistic helpers draw from a caller-seeded
// generator. The same schedule over the same workload injects the same
// faults, which is what makes recovery assertions repeatable.
//
// The package has no dependencies on the rest of the repository; *File
// structurally satisfies wal.File, and wal.Open interposes it via
// wal.WithFileWrapper (eos.Options.WALFile plumbs it beneath a store).
package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
)

// Op classifies the file operations a schedule can target.
type Op uint8

const (
	// OpWrite covers Write calls (the buffered WAL appends reach the
	// file through these when the log flushes).
	OpWrite Op = iota
	// OpSync covers Sync (fsync) calls — the durability point.
	OpSync
	// OpRead covers Read calls (recovery scans).
	OpRead
	// OpTruncate covers Truncate calls (torn-tail repair, checkpoints).
	OpTruncate
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRead:
		return "read"
	case OpTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ErrInjected is the base error wrapped by every injected failure, so
// callers can distinguish injected faults from real I/O errors with
// errors.Is.
var ErrInjected = errors.New("fault: injected error")

// Crash is the value panicked at a crash point. Harnesses recover it,
// abandon the wounded store, and reopen from the on-disk state — the
// in-process analog of kill -9 between two instructions.
type Crash struct {
	Op Op
	N  uint64 // the operation count at which the crash fired
}

func (c Crash) String() string { return fmt.Sprintf("fault: crash at %s #%d", c.Op, c.N) }

// Counters reports how much I/O flowed through the wrapper and how many
// faults fired.
type Counters struct {
	Writes       uint64
	Syncs        uint64
	Reads        uint64
	Truncates    uint64
	BytesWritten uint64
	Injected     uint64 // faults fired (errors and crashes)
}

// rule is one armed fault.
type rule struct {
	op    Op
	at    uint64  // fire on the at-th operation of op (1-based); 0 = off
	prob  float64 // or: fire with this probability per operation
	crash bool    // panic(Crash{...}) instead of returning an error
	once  bool    // disarm after firing (error-once-then-heal)
	err   error
}

// Schedule is a programmable fault plan shared by the arming test and
// the wrapped file. All methods are safe for concurrent use; arming
// methods return the schedule for chaining.
type Schedule struct {
	mu       sync.Mutex
	rules    []rule
	counters Counters
	rng      *rand.Rand
	tornAt   int64 // cumulative write offset at which to tear, -1 = off
}

// NewSchedule returns an empty schedule (no faults armed).
func NewSchedule() *Schedule { return &Schedule{tornAt: -1} }

// FailSyncAt arms an error on the n-th Sync call (1-based), then heals:
// subsequent syncs succeed. Chain several calls for repeated failures.
func (s *Schedule) FailSyncAt(n uint64) *Schedule {
	return s.arm(rule{op: OpSync, at: n, once: true, err: fmt.Errorf("%w: sync #%d", ErrInjected, n)})
}

// FailSyncRate arms a seeded coin flip on every Sync: each call fails
// independently with probability p. Deterministic for a fixed seed and
// call sequence.
func (s *Schedule) FailSyncRate(p float64, seed int64) *Schedule {
	s.mu.Lock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	}
	s.mu.Unlock()
	return s.arm(rule{op: OpSync, prob: p, err: fmt.Errorf("%w: sync (rate %.2f)", ErrInjected, p)})
}

// TornWriteAtByte arms a short write: the write that would carry the
// cumulative output past byte k writes only up to k and returns an
// error, leaving a torn record on disk. Fires once.
func (s *Schedule) TornWriteAtByte(k int64) *Schedule {
	s.mu.Lock()
	s.tornAt = k
	s.mu.Unlock()
	return s
}

// CrashAt arms a panic(Crash{...}) on the n-th call of op (1-based) —
// the operation does not execute. Use with recover in a harness.
func (s *Schedule) CrashAt(op Op, n uint64) *Schedule {
	return s.arm(rule{op: op, at: n, once: true, crash: true})
}

func (s *Schedule) arm(r rule) *Schedule {
	s.mu.Lock()
	s.rules = append(s.rules, r)
	s.mu.Unlock()
	return s
}

// Counters returns a snapshot of the operation and fault counters.
func (s *Schedule) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// check bumps the op counter and returns the injected error, if any.
// Crash rules panic. Caller must not hold s.mu.
func (s *Schedule) check(op Op, n uint64) error {
	s.mu.Lock()
	for i := range s.rules {
		r := &s.rules[i]
		if r.op != op {
			continue
		}
		fire := (r.at != 0 && r.at == n) || (r.prob > 0 && s.rng != nil && s.rng.Float64() < r.prob)
		if !fire {
			continue
		}
		s.counters.Injected++
		if r.once {
			r.at = 0
			r.prob = 0
		}
		if r.crash {
			s.mu.Unlock()
			panic(Crash{Op: op, N: n})
		}
		err := r.err
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	return nil
}

// Under is the file access the wrapper needs; *os.File satisfies it.
type Under interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// File wraps an Under and injects the faults its Schedule arms. It
// structurally satisfies wal.File.
type File struct {
	f Under
	s *Schedule
}

// Wrap interposes schedule s on f.
func Wrap(f Under, s *Schedule) *File { return &File{f: f, s: s} }

// Write counts the call, applies any armed torn-write or write fault,
// and forwards to the underlying file.
func (w *File) Write(p []byte) (int, error) {
	w.s.mu.Lock()
	w.s.counters.Writes++
	n := w.s.counters.Writes
	// Torn write: the write crossing the armed byte offset is cut short.
	if w.s.tornAt >= 0 && int64(w.s.counters.BytesWritten)+int64(len(p)) > w.s.tornAt {
		keep := w.s.tornAt - int64(w.s.counters.BytesWritten)
		if keep < 0 {
			keep = 0
		}
		w.s.tornAt = -1
		w.s.counters.Injected++
		w.s.counters.BytesWritten += uint64(keep)
		w.s.mu.Unlock()
		wrote, _ := w.f.Write(p[:keep])
		return wrote, fmt.Errorf("%w: torn write (%d of %d bytes)", ErrInjected, wrote, len(p))
	}
	w.s.mu.Unlock()
	if err := w.s.check(OpWrite, n); err != nil {
		return 0, err
	}
	wrote, err := w.f.Write(p)
	w.s.mu.Lock()
	w.s.counters.BytesWritten += uint64(wrote)
	w.s.mu.Unlock()
	return wrote, err
}

// Sync counts the call and applies any armed sync fault before
// forwarding.
func (w *File) Sync() error {
	w.s.mu.Lock()
	w.s.counters.Syncs++
	n := w.s.counters.Syncs
	w.s.mu.Unlock()
	if err := w.s.check(OpSync, n); err != nil {
		return err
	}
	return w.f.Sync()
}

// Read counts the call and forwards (read faults target recovery scans).
func (w *File) Read(p []byte) (int, error) {
	w.s.mu.Lock()
	w.s.counters.Reads++
	n := w.s.counters.Reads
	w.s.mu.Unlock()
	if err := w.s.check(OpRead, n); err != nil {
		return 0, err
	}
	return w.f.Read(p)
}

// Seek forwards untouched (no schedule targets seeks).
func (w *File) Seek(offset int64, whence int) (int64, error) { return w.f.Seek(offset, whence) }

// Truncate counts the call and applies any armed truncate fault.
func (w *File) Truncate(size int64) error {
	w.s.mu.Lock()
	w.s.counters.Truncates++
	n := w.s.counters.Truncates
	w.s.mu.Unlock()
	if err := w.s.check(OpTruncate, n); err != nil {
		return err
	}
	return w.f.Truncate(size)
}

// Close forwards untouched: a harness must always be able to release
// the descriptor.
func (w *File) Close() error { return w.f.Close() }

// maxCutPoints caps Enumerate. Every sweep in the repository stops far
// below it; an armed fault still firing here means the attacked stream
// never ends, which is a bug, not coverage.
const maxCutPoints = 1024

// Enumerate is the cut-point enumerator every sweep shares: it runs
// try(n) for n = 1, 2, … with a fault armed at position n, and stops at
// the first n whose fault did not fire — the attacked run had fewer
// than n positions, so every earlier one was visited. It returns how
// many positions fired. An error from try, or a fault still firing at
// maxCutPoints, ends the sweep with an error naming the position.
func Enumerate(try func(n uint64) (fired bool, err error)) (uint64, error) {
	for n := uint64(1); n <= maxCutPoints; n++ {
		fired, err := try(n)
		if err != nil {
			return n - 1, fmt.Errorf("cut point %d: %w", n, err)
		}
		if !fired {
			return n - 1, nil
		}
	}
	return maxCutPoints, fmt.Errorf("fault: armed fault still fires at cut point %d", maxCutPoints)
}
