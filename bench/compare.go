package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// loadRuns reads one side of a comparison: a result file, or several
// separated by commas (several runs of one commit let the comparison
// tell a regression from noise).
func loadRuns(list string) ([]*workloadResult, error) {
	var runs []*workloadResult
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, rf.Runs...)
	}
	return runs, nil
}

func metricValues(runs []*workloadResult, workload, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spreadOf is the run-to-run spread of one side as a share of its
// median: the quartile spread when there are enough runs to have
// quartiles, else the full range.
func spreadOf(vs []float64) float64 {
	if len(vs) >= 4 {
		return quartileSpread(vs)
	}
	med := medianFloat(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / med
}

// verdict classifies new against base for one metric: regressed when
// the median got worse by more than the bound, unresolved when the runs
// of either side differ among themselves by more than the bound, else
// ok.
func verdict(d metricDef, base, new []float64) (delta float64, v string) {
	b, n := medianFloat(base), medianFloat(new)
	if b != 0 {
		delta = (n - b) / b
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return delta, "regressed"
	case max(spreadOf(base), spreadOf(new)) > d.Bound:
		return delta, "unresolved"
	}
	return delta, "ok"
}

// compareMain prints, per workload and end-to-end metric, base, new,
// delta, bound and verdict, and returns non-zero if anything regressed.
func compareMain(baseList, newList string) int {
	base, err := loadRuns(baseList)
	if err == nil {
		var cur []*workloadResult
		if cur, err = loadRuns(newList); err == nil {
			return compareRuns(base, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench: -compare:", err)
	return 2
}

func compareRuns(base, cur []*workloadResult) int {
	status := 0
	fmt.Printf("%-18s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "verdict")
	for _, def := range workloads {
		for _, d := range endToEndMetrics {
			b, n := metricValues(base, def.name, d.Name), metricValues(cur, def.name, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			delta, v := verdict(d, b, n)
			if v == "regressed" {
				status = 1
			}
			fmt.Printf("%-18s %-14s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				def.name, d.Name, medianFloat(b), medianFloat(n), 100*delta, 100*d.Bound, v)
		}
		// The tails are too unsteady here to gate, but a reader still
		// wants to see them side by side.
		for _, tail := range []struct {
			name string
			of   func(*workloadResult) float64
		}{
			{"op_p99_us", func(r *workloadResult) float64 { return r.latencyPhase().Lat.P99 }},
			{"fire_p99_us", func(r *workloadResult) float64 { return r.Fire.P99 }},
		} {
			var b, n []float64
			for _, r := range base {
				if r.Workload == def.name && !r.Traced {
					b = append(b, tail.of(r))
				}
			}
			for _, r := range cur {
				if r.Workload == def.name && !r.Traced {
					n = append(n, tail.of(r))
				}
			}
			if len(b) > 0 && len(n) > 0 && medianFloat(b) > 0 {
				fmt.Printf("%-18s %-14s %14.4f %14.4f %+8.2f%% %7s  info (not gated)\n", def.name, tail.name,
					medianFloat(b), medianFloat(n), 100*(medianFloat(n)-medianFloat(b))/medianFloat(b), "-")
			}
		}
		for _, side := range [][]*workloadResult{base, cur} {
			for _, r := range side {
				if r.Workload == def.name && !r.correct() {
					fmt.Printf("%-18s a run failed verification or had failed operations: regressed\n", def.name)
					status = 1
				}
			}
		}
	}
	return status
}

// latencyPhase is the phase a result's op latencies were read from.
func (r *workloadResult) latencyPhase() *phaseResult {
	if p, ok := r.Phases["rate_hi"]; ok {
		return p
	}
	if p, ok := r.Phases["closed"]; ok {
		return p
	}
	return &phaseResult{}
}
