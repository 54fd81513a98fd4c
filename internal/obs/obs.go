// Package obs is the trigger-path observability layer: a zero-dependency
// (standard library only) metrics registry and firing-trace recorder
// threaded through the hot path of the trigger engine.
//
// The paper's central performance claim is that composite-event detection
// via persistent FSMs and decoupled actions adds little overhead to the
// object path (§5–§6). This package makes that claim *inspectable* at run
// time instead of only benchmarkable: counters and fixed-bucket (log₂)
// latency histograms live in one enumerable Registry per database, into
// which each subsystem (core, storage, txn, lock, repl) registers the
// counters it owns, and a ring-buffered Tracer (trace.go) captures
// sampled trigger firings step by step — posting event, FSM transitions
// including the §5.1.2 True/False mask pseudo-events, coupling-mode
// dispatch, action execution, and commit/detach waits. http.go exposes
// both over HTTP together with expvar and pprof.
//
// Every metric and trace field exposed here is documented in
// docs/OBSERVABILITY.md; a repo test fails if a registered metric has no
// row there, its row's unit differs, or it registers without help text.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// usable; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// HistogramBuckets is the fixed number of log₂ buckets every Histogram
// carries: bucket 0 counts observations equal to 0, and bucket i (i ≥ 1)
// counts observations v with 2^(i-1) ≤ v < 2^i. 64 buckets plus the zero
// bucket cover the full uint64 range, so no observation is ever clipped.
const HistogramBuckets = 65

// Histogram is a fixed-bucket log₂ histogram. Observations are
// non-negative integers (by convention nanoseconds for *_ns metrics).
// Recording is two atomic adds and never allocates.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistogramBuckets]atomic.Uint64
}

// Observe records one observation. Negative values are clamped to 0 so a
// non-monotonic clock cannot corrupt the layout.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket is one non-empty histogram bucket in a snapshot. Lo and Hi are
// the inclusive-exclusive value range [Lo, Hi) the bucket covers.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// snapshotBuckets returns the non-empty buckets in ascending order.
func (h *Histogram) snapshotBuckets() []Bucket {
	var out []Bucket
	for i := 0; i < HistogramBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			if i < 64 {
				b.Hi = 1 << i
			} else {
				b.Hi = ^uint64(0)
			}
		} else {
			b.Hi = 1
		}
		out = append(out, b)
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket layout,
// using the geometric midpoint of the containing bucket. With log₂
// buckets the estimate is within 2× of the true value, which is the
// resolution the layout promises.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < HistogramBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << (i - 1)
			return lo + lo/2 // geometric midpoint of [2^(i-1), 2^i)
		}
	}
	return 0
}

// Kind classifies a registered metric.
type Kind string

const (
	// KindCounter is a Counter, or a counter-shaped value read from a
	// callback at snapshot time (Registry.Func).
	KindCounter Kind = "counter"
	// KindHistogram is a log₂ Histogram.
	KindHistogram Kind = "histogram"
)

// metric is one registered metric: a histogram, or a counter-kind value
// read through fn (for registry-owned counters, counter.Value).
type metric struct {
	name, unit, help string
	counter          *Counter
	fn               func() uint64
	hist             *Histogram
}

// MetricValue is the snapshot form of one metric, JSON-serializable.
// Counter metrics carry Value; histogram metrics carry Count, Sum, P50,
// P99 and the non-empty Buckets. Node, when set, names the node the
// entry came from ("router", "fleet", or a 16-hex provenance node
// label) — merged fleet views are concatenations of node-tagged
// snapshots, so per-node attribution survives the merge.
type MetricValue struct {
	Name    string   `json:"name"`
	Node    string   `json:"node,omitempty"`
	Kind    Kind     `json:"kind"`
	Unit    string   `json:"unit"`
	Help    string   `json:"help,omitempty"`
	Value   uint64   `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	P50     uint64   `json:"p50,omitempty"`
	P99     uint64   `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry holds a flat, name-keyed set of metrics. Metric names are
// dot-grouped snake_case ("core.events_posted", "txn.commit_wait_ns");
// the group prefix identifies the owning subsystem. Registration is
// cheap but not hot-path; reads of registered counters/histograms are
// lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) add(name string, m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.metrics[name] = m
}

// Counter registers and returns a new counter. unit is "count" unless
// the metric measures something else ("bytes", "ns").
func (r *Registry) Counter(name, unit, help string) *Counter {
	c := &Counter{}
	r.add(name, &metric{name: name, unit: unit, help: help, counter: c, fn: c.Value})
	return c
}

// EnsureCounter returns the counter registered under name, registering
// a fresh one first if absent. Use it for metrics owned by components
// that may be constructed more than once over the same database (e.g.
// two Servers sharing one db): plain Counter would panic on the second
// registration. Panics if name is registered as a different kind.
func (r *Registry) EnsureCounter(name, unit, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.counter == nil {
			panic(fmt.Sprintf("obs: metric %q already registered as a non-counter", name))
		}
		return m.counter
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, unit: unit, help: help, counter: c, fn: c.Value}
	return c
}

// EnsureHistogram is EnsureCounter for log₂ histograms.
func (r *Registry) EnsureHistogram(name, unit, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.hist == nil {
			panic(fmt.Sprintf("obs: metric %q already registered as a non-histogram", name))
		}
		return m.hist
	}
	h := &Histogram{}
	r.metrics[name] = &metric{name: name, unit: unit, help: help, hist: h}
	return h
}

// Func registers a counter-shaped metric backed by a callback evaluated
// at snapshot time: the way a subsystem exposes a counter it owns (an
// obs.Counter field's Value) or a gauge it computes.
func (r *Registry) Func(name, unit, help string, fn func() uint64) {
	r.add(name, &metric{name: name, unit: unit, help: help, fn: fn})
}

// Histogram registers and returns a new log₂ histogram.
func (r *Registry) Histogram(name, unit, help string) *Histogram {
	h := &Histogram{}
	r.add(name, &metric{name: name, unit: unit, help: help, hist: h})
	return h
}

// RegisterHistogram registers a caller-owned histogram, for components
// (hub, replica) whose histograms must outlive any one registry and be
// registerable on several.
func (r *Registry) RegisterHistogram(name, unit, help string, h *Histogram) {
	r.add(name, &metric{name: name, unit: unit, help: help, hist: h})
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Value returns the current value of the counter-kind metric registered
// under name; ok is false when there is none (absent, or a histogram).
func (r *Registry) Value(name string) (v uint64, ok bool) {
	r.mu.Lock()
	m := r.metrics[name]
	r.mu.Unlock()
	if m == nil || m.fn == nil {
		return 0, false
	}
	return m.fn(), true
}

// Snapshot returns the current value of every metric, sorted by name.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]MetricValue, 0, len(ms))
	for _, m := range ms {
		mv := MetricValue{Name: m.name, Unit: m.unit, Help: m.help}
		if m.fn != nil {
			mv.Kind = KindCounter
			mv.Value = m.fn()
		} else {
			mv.Kind = KindHistogram
			mv.Count = m.hist.Count()
			mv.Sum = m.hist.Sum()
			mv.P50 = m.hist.Quantile(0.50)
			mv.P99 = m.hist.Quantile(0.99)
			mv.Buckets = m.hist.snapshotBuckets()
		}
		out = append(out, mv)
	}
	return out
}
