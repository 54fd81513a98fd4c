//go:build !race

package fsm

import (
	"fmt"
	"testing"
	"time"

	"ode/internal/baseline/rescan"
	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/workload"
)

// perOp times fn over n iterations and returns ns/op.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// bestOp returns the fastest of three timed runs of fn, in ns/op, after
// one untimed warm-up run.
func bestOp(n int, fn func(i int)) float64 {
	perOp(n, fn)
	return min(perOp(n, fn), perOp(n, fn), perOp(n, fn))
}

func init() {
	e6Times = func(f e6Fixture) (sparseNs, denseNs float64) {
		const n = 100_000
		st := f.m.Start
		sparseNs = bestOp(n, func(i int) { st, _, _ = f.m.Advance(st, f.stream[i&4095], nil) })
		st = f.m.Start
		denseNs = bestOp(n, func(i int) { st, _, _ = f.d.Advance(st, f.stream[i&4095], nil) })
		return sparseNs, denseNs
	}
}

// e5Alphabet registers the four user events E0..E3 that
// workload.Expressions is written over.
func e5Alphabet() ([]event.ID, func(*eventexpr.Name) (event.ID, error)) {
	reg := event.NewRegistry()
	ids := make(map[string]event.ID)
	var alpha []event.ID
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("E%d", i)
		ids[name] = reg.Register("Bench", event.User(name))
		alpha = append(alpha, ids[name])
	}
	resolve := func(n *eventexpr.Name) (event.ID, error) {
		id, ok := ids[n.String()]
		if !ok {
			return event.None, fmt.Errorf("unknown event %q", n.String())
		}
		return id, nil
	}
	return alpha, resolve
}

// e5Stream maps a seeded index stream onto the alphabet.
func e5Stream(alpha []event.ID, seed int64, n int) []event.ID {
	evs := make([]event.ID, n)
	for i, e := range workload.EventStream(seed, n, len(alpha)) {
		evs[i] = alpha[e]
	}
	return evs
}

// TestPaperE5FSMBeatsRescan is experiment E5 (design goal 2, §5.1):
// composite events are detected efficiently — an FSM step is O(1) per
// event while re-scanning the history grows with it. For every
// expression depth, the FSM must be cheaper per event than the re-scan
// baseline on the longest stream measured (the re-scan is quadratic, so
// it runs over the first 200 events only).
func TestPaperE5FSMBeatsRescan(t *testing.T) {
	alpha, resolve := e5Alphabet()
	const rescanCap = 200
	lengths := []int{100, 500}
	t.Logf("%-6s %-7s %11s %13s %9s", "depth", "stream", "fsm ns/ev", "rescan ns/ev", "speedup")
	for depth, src := range workload.Expressions(len(alpha)) {
		parsed := eventexpr.MustParse(src)
		m, err := Compile(parsed, Options{Resolve: resolve, Alphabet: alpha})
		if err != nil {
			t.Fatal(err)
		}
		for _, length := range lengths {
			evs := e5Stream(alpha, int64(depth), length)
			state := m.Start
			fsmNs := perOp(100_000/length*length, func(i int) {
				state, _, _ = m.Advance(state, evs[i%length], nil)
			})
			d, err := rescan.New(parsed, resolve, alpha, nil)
			if err != nil {
				t.Fatal(err)
			}
			rescanNs := perOp(min(length, rescanCap), func(i int) {
				if _, err := d.Post(evs[i]); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%-6d %-7d %11.1f %13.1f %8.0fx", depth+1, length, fsmNs, rescanNs, rescanNs/fsmNs)
			if length == lengths[len(lengths)-1] && fsmNs >= rescanNs {
				t.Errorf("depth %d, %d events: FSM %.1f ns/event is not cheaper than re-scan %.1f", depth+1, length, fsmNs, rescanNs)
			}
		}
	}
}

// BenchmarkE5FSMDetection drives the depth-3 composite expression's FSM.
func BenchmarkE5FSMDetection(b *testing.B) {
	alpha, resolve := e5Alphabet()
	m, err := Compile(eventexpr.MustParse(workload.Expressions(4)[2]), Options{Resolve: resolve, Alphabet: alpha})
	if err != nil {
		b.Fatal(err)
	}
	evs := e5Stream(alpha, 1, 4096)
	st := m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = m.Advance(st, evs[i&4095], nil)
	}
}

// BenchmarkE5RescanDetection is the naive baseline: re-match the same
// expression against the full history on every posting.
func BenchmarkE5RescanDetection(b *testing.B) {
	alpha, resolve := e5Alphabet()
	d, err := rescan.New(eventexpr.MustParse(workload.Expressions(4)[2]), resolve, alpha, nil)
	if err != nil {
		b.Fatal(err)
	}
	evs := e5Stream(alpha, 1, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			d.Reset() // bound the quadratic blow-up to a 512-event history
		}
		if _, err := d.Post(evs[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
}
