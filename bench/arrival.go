package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// arrivalSpec says how transactions arrive, as data: p(r) is a Poisson
// process of r per second, c(r) a constant rate of r per second, n(c) a
// constant population of c clients that each send their next
// transaction when the previous one completes (a closed loop).
type arrivalSpec struct {
	Kind  byte // 'p', 'c' or 'n'
	Value float64
}

func (a arrivalSpec) String() string {
	return fmt.Sprintf("%c(%s)", a.Kind, strconv.FormatFloat(a.Value, 'g', -1, 64))
}

// schedule pre-generates the due times (offsets from the phase start) of
// an open-loop phase of length dur. The same rng state gives the same
// schedule. A closed loop has no schedule.
func (a arrivalSpec) schedule(rng *rand.Rand, dur time.Duration) []time.Duration {
	var due []time.Duration
	switch a.Kind {
	case 'p':
		t := 0.0
		for {
			t += rng.ExpFloat64() / a.Value
			d := time.Duration(t * float64(time.Second))
			if d >= dur {
				return due
			}
			due = append(due, d)
		}
	case 'c':
		step := float64(time.Second) / a.Value
		for i := 0; ; i++ {
			d := time.Duration(float64(i) * step)
			if d >= dur {
				return due
			}
			due = append(due, d)
		}
	}
	return nil
}

// spinWindow is how close to a due time the pacer stops sleeping and
// yields in a loop instead.
const spinWindow = 100 * time.Microsecond

// lateLimit is how long after its due time a send counts as late.
const lateLimit = time.Millisecond

// waitUntil returns at t. It sleeps in the kernel, not in the Go runtime:
// an idle runtime parks in epoll_wait, whose timeout is whole
// milliseconds, so time.Sleep(50µs) returns after about 1.1 ms — longer
// than most transactions here take — while nanosleep overshoots by about
// 60 µs. The last spinWindow is waited out by yielding. The caller should
// hold its OS thread (runtime.LockOSThread), so the sleeping thread is
// the pacer's own.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			syscall.Nanosleep(&ts, nil)
			continue
		}
		runtime.Gosched()
	}
}

// execFn runs transaction i to completion on the given worker's session
// and reports whether it committed and whether its outcome was the one
// the generator's model predicted. due is when the transaction was due
// (open loop) or called (closed loop).
type execFn func(worker, i int, due time.Time) (committed, correct bool)

// phaseResult is one measured phase.
type phaseResult struct {
	Arrival   string     `json:"arrival"`
	Seconds   float64    `json:"seconds"`
	Attempted int        `json:"attempted"`
	Committed int        `json:"committed"`
	Failed    int        `json:"failed"` // wrong outcome, or abandoned in a growing backlog
	Lat       latSummary `json:"latency"`
	// Open loop only.
	LateP99Us      float64 `json:"late_p99_us,omitempty"`
	LateMeanUs     float64 `json:"late_mean_us,omitempty"`
	LateFrac       float64 `json:"late_frac,omitempty"`
	BacklogGrowing bool    `json:"backlog_growing,omitempty"`

	samples []sample
	next    int // first transaction index the phase did not use
}

func (p *phaseResult) opsPerSec() float64 {
	if p.Seconds <= 0 {
		return 0
	}
	return float64(p.Committed) / p.Seconds
}

type workerTally struct {
	samples              []sample
	attempted, committed int
	failed               int
}

func mergeTallies(res *phaseResult, tallies []workerTally, dur time.Duration) {
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Committed += t.committed
		res.Failed += t.failed
		res.samples = append(res.samples, t.samples...)
	}
	res.Lat = summarize(res.samples, int64(dur))
}

// runClosed runs a closed loop of clients workers for dur, taking
// transaction indexes from first upward. Latency is call start to
// commit return.
func runClosed(clients int, dur time.Duration, first int, exec execFn) *phaseResult {
	res := &phaseResult{Arrival: arrivalSpec{'n', float64(clients)}.String()}
	tallies := make([]workerTally, clients)
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				committed, correct := exec(w, i, t0)
				end := time.Now()
				t.attempted++
				if !correct {
					t.failed++
				}
				if committed {
					t.committed++
					t.samples = append(t.samples, sample{end: int64(end.Sub(start)), lat: int64(end.Sub(t0))})
				}
			}
		}(w)
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	res.next = int(next.Load())
	mergeTallies(res, tallies, time.Duration(res.Seconds*float64(time.Second)))
	return res
}

// runOpen runs an open loop: one pacer releases transaction first+k at
// due[k] to a pool of workers sessions, and every latency is charged
// from the due time, so a stall in the system under test is paid by
// each transaction that was due during it. rate is the spec's arrivals
// per second, used for the backlog rule: if more than one second of
// arrivals is still unfinished when the phase ends, the phase is flagged
// backlog_growing and the unstarted ones count as failed.
func runOpen(spec arrivalSpec, due []time.Duration, dur time.Duration, workers, first int, exec execFn) *phaseResult {
	res := &phaseResult{Arrival: spec.String()}
	tallies := make([]workerTally, workers)
	// The queue holds the whole schedule so the pacer never blocks on a
	// slow system under test.
	queue := make(chan int, len(due))
	var abandon atomic.Bool
	var inFlight atomic.Int64
	late := make([]int64, len(due))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			for k := range queue {
				if abandon.Load() {
					t.attempted++
					t.failed++
					continue
				}
				inFlight.Add(1)
				committed, correct := exec(w, first+k, start.Add(due[k]))
				end := time.Now()
				inFlight.Add(-1)
				t.attempted++
				if !correct {
					t.failed++
				}
				if committed {
					t.committed++
					t.samples = append(t.samples, sample{end: int64(end.Sub(start)), lat: int64(end.Sub(start) - due[k])})
				}
			}
		}(w)
	}
	for k, d := range due {
		waitUntil(start.Add(d))
		late[k] = int64(time.Since(start) - d)
		queue <- k
	}
	waitUntil(start.Add(dur))
	if backlog := int64(len(queue)) + inFlight.Load(); float64(backlog) > spec.Value {
		res.BacklogGrowing = true
		abandon.Store(true)
	}
	close(queue)
	wg.Wait()
	res.Seconds = dur.Seconds()
	res.next = first + len(due)
	mergeTallies(res, tallies, dur)
	nLate := 0
	var lateSum float64
	for _, l := range late {
		lateSum += float64(l)
		if l > int64(lateLimit) {
			nLate++
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	res.LateP99Us = float64(percentile(late, 0.99)) / 1e3
	if len(late) > 0 {
		res.LateFrac = float64(nLate) / float64(len(late))
		res.LateMeanUs = lateSum / float64(len(late)) / 1e3
	}
	return res
}
