package fsm

import (
	"fmt"
	"testing"

	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/workload"
)

// denseIndexed is the transition representation the Ode implementors
// first planned and then abandoned (§6): a two-dimensional array indexed
// directly by (state, event integer). With globally unique event IDs its
// width is the *application-wide* event count, not the class's — which is
// why the paper calls it "very space inefficient for sparse arrays" and
// why avoiding it with per-class ID reuse breaks under multiple
// inheritance. It exists only as E6's baseline; TestDenseEquivalence
// checks it answers every Advance exactly as the sparse Machine does.
type denseIndexed struct {
	src   *Machine
	next  []int32
	width int // maxEvent+1
}

// newDenseIndexed builds the matrix; maxEvent is the largest event ID
// assigned anywhere in the application.
func newDenseIndexed(m *Machine, maxEvent event.ID) *denseIndexed {
	d := &denseIndexed{src: m, width: int(maxEvent) + 1}
	d.next = make([]int32, len(m.States)*d.width)
	for s := range m.States {
		for c := 0; c < d.width; c++ {
			d.next[s*d.width+c] = int32(s) // default: ignored
		}
		for _, t := range m.States[s].Trans {
			d.next[s*d.width+int(t.Event)] = t.Next
		}
	}
	return d
}

// Advance mirrors Machine.Advance on the matrix: one indexed move, then
// the same mask cascade.
func (d *denseIndexed) Advance(state int32, ev event.ID, eval MaskEval) (int32, bool, error) {
	m := d.src
	if int(state) < 0 || int(state) >= len(m.States) {
		return state, false, fmt.Errorf("fsm: state %d out of range [0,%d)", state, len(m.States))
	}
	cur := state
	if int(ev) < d.width {
		cur = d.next[int(state)*d.width+int(ev)]
	}
	if cur == state && !m.hasTransition(state, ev) {
		return state, false, nil
	}
	return m.Settle(cur, eval, nil)
}

// footprint reports the matrix bytes (4 per cell, no map needed).
func (d *denseIndexed) footprint() int { return len(d.next) * 4 }

// sparseFootprint estimates the bytes of the sparse representation:
// per-state fixed cost plus per-transition cost.
func sparseFootprint(m *Machine) int {
	const stateBytes = 32 // Accept+Mask+OnTrue+OnFalse+slice header, rounded
	const transBytes = 8  // event.ID + int32
	n := len(m.States) * stateBytes
	for _, st := range m.States {
		n += len(st.Trans) * transBytes
	}
	return n
}

// e6Fixture is one 8-event class's "E0, E1" machine inside an application
// of the given number of classes. The other classes register their events
// first, so the measured class's IDs sit at the top of the global space,
// and the matrix is as wide as the whole application's event population.
type e6Fixture struct {
	m      *Machine
	d      *denseIndexed
	events int        // event IDs assigned application-wide
	stream []event.ID // a seeded stream over the measured class's events
}

func newE6Fixture(tb testing.TB, classes int) e6Fixture {
	tb.Helper()
	const perClass = 8
	reg := event.NewRegistry()
	for c := 1; c < classes; c++ {
		for e := 0; e < perClass; e++ {
			reg.Register(fmt.Sprintf("Other%d", c), event.User(fmt.Sprintf("E%d", e)))
		}
	}
	ids := make(map[string]event.ID, perClass)
	var alpha []event.ID
	for e := 0; e < perClass; e++ {
		name := fmt.Sprintf("E%d", e)
		ids[name] = reg.Register("Measured", event.User(name))
		alpha = append(alpha, ids[name])
	}
	m, err := Compile(eventexpr.MustParse("E0, E1"), Options{
		Resolve:  func(n *eventexpr.Name) (event.ID, error) { return ids[n.String()], nil },
		Alphabet: alpha,
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := e6Fixture{m: m, d: newDenseIndexed(m, event.ID(reg.Len())), events: reg.Len()}
	for _, e := range workload.EventStream(int64(classes), 4096, perClass) {
		f.stream = append(f.stream, alpha[e])
	}
	return f
}

// e6Times is set by the !race build to time one fixture's sparse and dense
// Advance loops; under the race detector the time column is left out.
var e6Times func(f e6Fixture) (sparseNs, denseNs float64)

// TestPaperE6SparseVsDense is experiment E6 (§6): the planned 2-D
// transition matrix is very space inefficient for sparse machines, which
// is why Ode switched to sparse transition lists over globally unique
// event integers. The matrix's waste must grow with the application's
// event population (to > 10× the sparse machine at 256 classes) while
// sparse lookup stays within 3× of the matrix on time.
func TestPaperE6SparseVsDense(t *testing.T) {
	t.Logf("%-12s %10s %9s %9s %7s %10s %10s", "app classes", "event IDs", "sparse B", "dense B", "ratio", "sparse ns", "dense ns")
	prevRatio := 0.0
	for _, classes := range []int{1, 16, 64, 256} {
		f := newE6Fixture(t, classes)
		ratio := float64(f.d.footprint()) / float64(sparseFootprint(f.m))
		row := fmt.Sprintf("%-12d %10d %9d %9d %6.1fx", classes, f.events, sparseFootprint(f.m), f.d.footprint(), ratio)
		if e6Times != nil {
			sparseNs, denseNs := e6Times(f)
			row += fmt.Sprintf(" %10.1f %10.1f", sparseNs, denseNs)
			if sparseNs > denseNs*3 {
				t.Errorf("%d classes: sparse %.1f ns/event is not within 3x of dense %.1f", classes, sparseNs, denseNs)
			}
		}
		t.Log(row)
		if ratio <= prevRatio {
			t.Errorf("%d classes: dense/sparse footprint %.1fx did not grow (was %.1fx)", classes, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio <= 10 {
		t.Errorf("dense matrix is only %.1fx the sparse footprint at 256 classes, want > 10x", prevRatio)
	}
}

// BenchmarkE1CompileFigure1 compiles the AutoRaiseLimit expression (the
// paper's Figure 1 machine) from source text to extended FSM.
func BenchmarkE1CompileFigure1(b *testing.B) {
	c := credCardClass()
	opts := c.options()
	parsed := eventexpr.MustParse("relative((after Buy & MoreCred()), after PayBill)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Compile(parsed, opts)
		if err != nil || m.NumStates() != 4 {
			b.Fatalf("compile: %v", err)
		}
	}
}

// BenchmarkE6SparseTransitions advances the sparse-list machine of a
// 64-class application (E6).
func BenchmarkE6SparseTransitions(b *testing.B) {
	f := newE6Fixture(b, 64)
	b.ReportMetric(float64(sparseFootprint(f.m)), "bytes")
	st := f.m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = f.m.Advance(st, f.stream[i&4095], nil)
	}
}

// BenchmarkE6DenseMatrix advances the §6 direct-indexed 2-D matrix of
// the same machine.
func BenchmarkE6DenseMatrix(b *testing.B) {
	f := newE6Fixture(b, 64)
	b.ReportMetric(float64(f.d.footprint()), "bytes")
	st := f.m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = f.d.Advance(st, f.stream[i&4095], nil)
	}
}
