//go:build !race

package event

import (
	"math"
	"testing"
	"time"
)

// bestOp returns the fastest of three timed runs of fn, in ns/op, after
// one untimed warm-up run.
func bestOp(n int, fn func(i int)) float64 {
	best := math.Inf(1)
	for run := 0; run < 4; run++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if run > 0 {
			best = min(best, float64(time.Since(start).Nanoseconds())/float64(n))
		}
	}
	return best
}

// TestPaperE2IntegerEventReps is experiment E2 (§5.2, §7): "Ode's
// mapping of basic events to globally unique integers is likely to have
// significantly lower event posting overhead than Sentinel's method of
// representing an event as a triple of strings." Posting through an
// equivalent subscribe/dispatch surface, the integer must win at 1, 16
// and 64 classes. TestTripleRegistryDispatch and TestIntRegistryDispatch
// check that both surfaces dispatch alike.
func TestPaperE2IntegerEventReps(t *testing.T) {
	const n = 100_000
	t.Logf("%-8s %-7s %13s %10s %7s", "classes", "events", "triple ns/op", "int ns/op", "ratio")
	for _, classes := range []int{1, 16, 64} {
		e := newE2Registries(classes, n)
		tripleNs := bestOp(n, func(i int) { e.treg.post(e.triples[e.order[i]]) })
		intNs := bestOp(n, func(i int) { e.ireg.post(e.ids[e.order[i]]) })
		t.Logf("%-8d %-7d %13.1f %10.1f %6.1fx", classes, len(e.ids), tripleNs, intNs, tripleNs/intNs)
		if intNs >= tripleNs {
			t.Errorf("%d classes: integer posting %.1f ns is not cheaper than triple posting %.1f ns", classes, intNs, tripleNs)
		}
	}
}

// BenchmarkE2EventRepInt posts events identified by globally unique
// integers (Ode's representation, §5.2) in a 64-class application.
func BenchmarkE2EventRepInt(b *testing.B) {
	e := newE2Registries(64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ireg.post(e.ids[e.order[i&(1<<16-1)]])
	}
}

// BenchmarkE2EventRepSentinelTriple posts the same events identified by
// Sentinel's (class, prototype, modifier) string triples (§7).
func BenchmarkE2EventRepSentinelTriple(b *testing.B) {
	e := newE2Registries(64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.treg.post(e.triples[e.order[i&(1<<16-1)]])
	}
}
