package main

import (
	"math"
	"sort"
)

// sample is one completed transaction: when it completed (ns since the
// phase started) and how long it took (ns, from its due or call time).
type sample struct {
	end int64
	lat int64
}

// latSummary is what the benchmark reports about one latency
// distribution. All times are microseconds.
type latSummary struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50_us"`
	P99  float64 `json:"p99_us"` // median of the p99s of p99Slices equal time slices
	P999 float64 `json:"p999_us"`
	Mean float64 `json:"mean_us"`
}

// p99Slices is how many equal time slices a phase is cut into for its
// p99: the reported value is the median of the slices' p99s, so one
// scheduler stall cannot own the number.
const p99Slices = 5

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by nearest
// rank; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// slicedP99 cuts [0, dur) into p99Slices equal slices by completion
// time, takes each non-empty slice's p99, and returns their median (ns).
func slicedP99(samples []sample, dur int64) float64 {
	if dur <= 0 {
		return 0
	}
	var buckets [p99Slices][]int64
	for _, s := range samples {
		i := int(s.end * p99Slices / dur)
		if i < 0 {
			i = 0
		}
		if i >= p99Slices {
			i = p99Slices - 1 // completions during the drain belong to the last slice
		}
		buckets[i] = append(buckets[i], s.lat)
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		p99s = append(p99s, float64(percentile(b, 0.99)))
	}
	return medianFloat(p99s)
}

// summarize reduces a phase's samples. dur is the phase length in ns.
func summarize(samples []sample, dur int64) latSummary {
	if len(samples) == 0 {
		return latSummary{}
	}
	lats := make([]int64, len(samples))
	var sum float64
	for i, s := range samples {
		lats[i] = s.lat
		sum += float64(s.lat)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return latSummary{
		N:    len(lats),
		P50:  float64(percentile(lats, 0.50)) / 1e3,
		P99:  slicedP99(samples, dur) / 1e3,
		P999: float64(percentile(lats, 0.999)) / 1e3,
		Mean: sum / float64(len(lats)) / 1e3,
	}
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median — the steadiness measure the driver
// applies (Python's statistics.quantiles(vs, n=4), exclusive method).
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
