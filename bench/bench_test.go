package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke test's networked workloads re-execute it as "-role node".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		if err := roleMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func quickOpts(seed int64, traced bool) runOpts {
	return runOpts{seed: seed, seconds: 0.5, quick: true, traced: traced}
}

// The same seed must give the same op stream, byte for byte, and another
// seed another stream.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	bc, err := schemaMachines()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		digest := func(seed int64) uint64 {
			s, err := buildStream(def, quickOpts(seed, false), bc)
			if err != nil {
				t.Fatal(err)
			}
			return s.digest()
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", def.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", def.name)
		}
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(3)) }
	spec := arrivalSpec{Kind: 'p', Value: 2000}
	x, y := spec.schedule(rng(), time.Second), spec.schedule(rng(), time.Second)
	if len(x) != len(y) || len(x) < 1800 || len(x) > 2200 {
		t.Fatalf("p(2000) over 1s: %d and %d arrivals", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("schedules differ at arrival %d", i)
		}
	}
}

func TestArrivalSpecs(t *testing.T) {
	for spec, want := range map[arrivalSpec]string{{'p', 1200}: "p(1200)", {'c', 0.5}: "c(0.5)", {'n', 32}: "n(32)"} {
		if spec.String() != want {
			t.Errorf("%v prints as %s, want %s", spec, spec, want)
		}
	}
	due := arrivalSpec{Kind: 'c', Value: 100}.schedule(nil, 100*time.Millisecond)
	if len(due) != 10 || due[3] != 30*time.Millisecond {
		t.Errorf("c(100) over 100ms: %v", due)
	}
	if (arrivalSpec{Kind: 'n', Value: 4}).schedule(nil, time.Second) != nil {
		t.Error("a closed loop has no schedule")
	}
}

// A system that stalls must be charged the stall on every request that
// was due during it, not only on the one that hit it: the open loop
// times from the due time. A closed loop measuring the same system from
// each call's start would see one slow request.
func TestOpenLoopChargesTheStallToLaterRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	var service []time.Duration
	exec := func(w, i int, due time.Time) (bool, bool) {
		t0 := time.Now()
		if i == 20 {
			time.Sleep(stall)
		}
		service = append(service, time.Since(t0)) // one worker: no race
		return true, true
	}
	spec := arrivalSpec{Kind: 'c', Value: 1000}
	dur := 200 * time.Millisecond
	res := runOpen(spec, spec.schedule(nil, dur), dur, 1, 0, exec)
	if res.Committed != 200 || res.Failed != 0 {
		t.Fatalf("committed %d failed %d, want 200 and 0", res.Committed, res.Failed)
	}
	slowServed, slowCharged := 0, 0
	for _, d := range service {
		if d > stall/2 {
			slowServed++
		}
	}
	for _, s := range res.samples {
		if s.lat > int64(stall/2) {
			slowCharged++
		}
	}
	if slowServed != 1 {
		t.Fatalf("the fake system was slow %d times, want once", slowServed)
	}
	// About 25 requests fall due in the second half of the stall alone.
	if slowCharged < 15 {
		t.Errorf("only %d requests were charged more than half the stall; the requests due during it escaped", slowCharged)
	}
	if res.BacklogGrowing {
		t.Error("a backlog that drains is not a growing one")
	}
}

func TestGrowingBacklogIsFlaggedAndCounted(t *testing.T) {
	var ran atomic.Int64
	exec := func(w, i int, due time.Time) (bool, bool) {
		ran.Add(1)
		time.Sleep(20 * time.Millisecond)
		return true, true
	}
	spec := arrivalSpec{Kind: 'c', Value: 200}
	dur := 1500 * time.Millisecond
	res := runOpen(spec, spec.schedule(nil, dur), dur, 1, 0, exec)
	if !res.BacklogGrowing {
		t.Fatal("300 arrivals against a system that serves 50/s left no growing backlog")
	}
	if res.Attempted != 300 || res.Failed != 300-int(ran.Load()) || res.Failed < 200 {
		t.Errorf("attempted %d, ran %d, failed %d: the abandoned arrivals must count as failed", res.Attempted, ran.Load(), res.Failed)
	}
}

func TestPercentiles(t *testing.T) {
	var vs []int64
	for i := int64(1); i <= 100; i++ {
		vs = append(vs, i)
	}
	for q, want := range map[float64]int64{0.5: 50, 0.99: 99, 0.999: 100, 1: 100, 0.01: 1} {
		if got := percentile(vs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing")
	}
	// Five slices of 100 samples at 10; one slice also holds a 10-sample
	// stall at 1000. The plain p99 is the stall; the sliced p99 is not.
	var samples []sample
	for s := 0; s < p99Slices; s++ {
		for i := 0; i < 100; i++ {
			samples = append(samples, sample{end: int64(s*1000 + i), lat: 10})
		}
	}
	for i := 0; i < 10; i++ {
		samples = append(samples, sample{end: 2500, lat: 1000})
	}
	sum := summarize(samples, p99Slices*1000)
	if sum.N != 510 || sum.P50 != 0.010 {
		t.Errorf("summary %+v", sum)
	}
	if sum.P99 != 0.010 {
		t.Errorf("sliced p99 = %v us: one slice's stall owns it", sum.P99)
	}
	if sum.P999 != 1 {
		t.Errorf("p99.9 = %v us, want the stall", sum.P999)
	}
	// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4)
	// = [3.5, 13.5, 31.0]
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d         metricDef
		base, new []float64
		want      string
	}{
		{lower, []float64{100, 101}, []float64{105, 104}, "ok"},
		{lower, []float64{100, 101}, []float64{120, 119}, "regressed"},
		{lower, []float64{100, 101}, []float64{50, 51}, "ok"},
		{higher, []float64{100, 101}, []float64{80, 81}, "regressed"},
		{higher, []float64{100, 101}, []float64{130, 131}, "ok"},
		{lower, []float64{100, 130}, []float64{112, 113}, "unresolved"},
	} {
		if _, got := verdict(c.d, c.base, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.new, got, c.want)
		}
	}
}

// manifest is the part of BENCHMARK.json the coverage test reads.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// The smoke test: every workload runs end to end in quick mode, untraced
// and traced, verifies, and leaves no subprocess behind. In the
// repository's doc-coverage idiom it also checks names both ways: every
// workload and metric BENCHMARK.json names is emitted with the unit it
// states, and nothing is emitted that BENCHMARK.json does not name.
func TestEveryWorkloadRunsAndEmitsExactlyWhatTheManifestNames(t *testing.T) {
	if raceEnabled {
		t.Skip("timed workloads and subprocesses are not meaningful under the race detector")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifestJSON()) {
		t.Error("BENCHMARK.json is not what the workload and metric tables render: regenerate it with `go run . -manifest`")
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(mf.Workloads), len(workloads))
	}
	t.Cleanup(cleanupAll)
	for _, w := range mf.Workloads {
		def := workloadByName(w.Name)
		if def == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := mf.EndToEnd
			if traced {
				want = mf.PerLayer
			}
			res, err := runWorkload(def, quickOpts(1, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: failed=%d verify=%+v", w.Name, traced, res.Failed, res.Verify)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", w.Name, traced)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is named in BENCHMARK.json but not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s emitted in %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				for name := range res.Metrics {
					found := false
					for _, d := range want {
						found = found || d.Name == name
					}
					if !found {
						t.Errorf("%s traced=%v: metric %s is emitted but BENCHMARK.json does not name it", w.Name, traced, name)
					}
				}
			}
			if traced && len(res.LayerTable) == 0 {
				t.Errorf("%s: traced run printed no layer table", w.Name)
			}
			if n := liveProcs(); n != 0 {
				t.Fatalf("%s traced=%v: %d subprocesses still alive after the run", w.Name, traced, n)
			}
		}
	}
}
