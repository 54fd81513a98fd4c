package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the always-on counterpart of the sampled
// tracer: a fixed ring of the last few hundred structured incidents
// (commits, WAL heals, detached retries and drops, action panics,
// replica redials, promotions). It costs one atomic load when nothing
// is recorded on a path and one short mutex-guarded slot write when
// something is, so it stays enabled in production; when the process
// hits an action panic or the log reports corruption the ring is
// dumped automatically, giving the post-mortem the minutes *before*
// the failure, not just the failure itself.

// Incident kinds recorded by the flight recorder.
const (
	IncCommit        = "commit"
	IncWALHeal       = "wal_heal"
	IncCorrupt       = "corrupt"
	IncDetachedRetry = "detached_retry"
	IncDetachedDrop  = "detached_drop"
	IncActionPanic   = "action_panic"
	IncReplicaRedial = "replica_redial"
	IncPromotion     = "promotion"
	// IncDivergence: an anti-entropy audit (repl.verify) confirmed the
	// replica's store differs from the primary's for at least one
	// object that was not explained by replication lag.
	IncDivergence = "divergence"
	// IncIngestHop: a shard applied a forwarded remote event
	// (shard.ingest). Cause is the capture-minted cause of the hop,
	// ParentCause the originating posting on the sending shard, Value
	// the outbox sequence number; the cause-chain assembler uses these
	// records to stitch cascades across the outbox→forward→ingest hop.
	IncIngestHop = "ingest_hop"
)

// IncidentKinds lists every kind the recorder emits, for the
// doc-coverage test.
var IncidentKinds = []string{
	IncCommit,
	IncWALHeal,
	IncCorrupt,
	IncDetachedRetry,
	IncDetachedDrop,
	IncActionPanic,
	IncReplicaRedial,
	IncPromotion,
	IncDivergence,
	IncIngestHop,
}

// incident is the in-ring representation: fixed-size, written in place
// so steady-state recording allocates nothing.
type incident struct {
	tUnixNs int64
	kind    string
	cause   Cause
	parent  Cause
	value   uint64
	detail  string
}

// IncidentRecord is the exported snapshot form of one incident, as
// served by the `flight` server op and `/flight` endpoint. Node, when
// set, is the 16-hex provenance label of the node that served the
// snapshot (stamped at serve time — the in-ring form stays node-free
// because the recorder is process-wide).
type IncidentRecord struct {
	TUnixNs     int64  `json:"t_unix_ns"`
	Node        string `json:"node,omitempty"`
	Kind        string `json:"kind"`
	Cause       string `json:"cause,omitempty"`
	ParentCause string `json:"parent_cause,omitempty"`
	Value       uint64 `json:"value,omitempty"`
	Detail      string `json:"detail,omitempty"`
}

// DefaultFlightCapacity is the ring size of the process-wide recorder.
const DefaultFlightCapacity = 512

// FlightRecorder holds the incident ring. The zero value is enabled
// (the recorder is *always on* unless a test turns it off), but has no
// ring; use NewFlightRecorder or the process-wide Flight().
type FlightRecorder struct {
	disabled atomic.Bool // inverted so the zero value records
	total    atomic.Uint64

	mu   sync.Mutex
	ring []incident
	pos  int // next write slot
	n    int // filled slots, ≤ len(ring)
}

// NewFlightRecorder returns a recorder with the given ring capacity
// (DefaultFlightCapacity if ≤ 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: make([]incident, capacity)}
}

var flight = NewFlightRecorder(DefaultFlightCapacity)

// Flight returns the process-wide flight recorder.
func Flight() *FlightRecorder { return flight }

// SetEnabled turns recording on or off (A/B experiments only; the
// recorder ships enabled).
func (f *FlightRecorder) SetEnabled(on bool) { f.disabled.Store(!on) }

// Enabled reports whether the recorder accepts incidents.
func (f *FlightRecorder) Enabled() bool { return !f.disabled.Load() }

// Total returns the number of incidents recorded since start,
// including any already overwritten in the ring.
func (f *FlightRecorder) Total() uint64 { return f.total.Load() }

// Record appends one incident. Safe for concurrent use; the disabled
// path is a single atomic load and allocates nothing, and the enabled
// path writes one preallocated slot under a short mutex.
func (f *FlightRecorder) Record(kind string, cause, parent Cause, value uint64, detail string) {
	if f.disabled.Load() || len(f.ring) == 0 {
		return
	}
	t := time.Now().UnixNano()
	f.total.Add(1)
	f.mu.Lock()
	slot := &f.ring[f.pos]
	slot.tUnixNs = t
	slot.kind = kind
	slot.cause = cause
	slot.parent = parent
	slot.value = value
	slot.detail = detail
	f.pos++
	if f.pos == len(f.ring) {
		f.pos = 0
	}
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
}

// Snapshot returns the ring's incidents oldest-first.
func (f *FlightRecorder) Snapshot() []IncidentRecord {
	f.mu.Lock()
	out := make([]IncidentRecord, 0, f.n)
	start := f.pos - f.n
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.n; i++ {
		in := &f.ring[(start+i)%len(f.ring)]
		out = append(out, IncidentRecord{
			TUnixNs:     in.tUnixNs,
			Kind:        in.kind,
			Cause:       in.cause.String(),
			ParentCause: in.parent.String(),
			Value:       in.value,
			Detail:      in.detail,
		})
	}
	f.mu.Unlock()
	return out
}

// Dump writes a terse human-readable rendering of the ring,
// oldest-first, to w.
func (f *FlightRecorder) Dump(w io.Writer, reason string) {
	recs := f.Snapshot()
	fmt.Fprintf(w, "-- flight recorder dump (%s): %d incidents, %d total --\n", reason, len(recs), f.Total())
	for _, r := range recs {
		fmt.Fprintf(w, "%s %-14s", time.Unix(0, r.TUnixNs).UTC().Format("15:04:05.000000"), r.Kind)
		if r.Cause != "" {
			fmt.Fprintf(w, " cause=%s", r.Cause)
		}
		if r.ParentCause != "" {
			fmt.Fprintf(w, " parent=%s", r.ParentCause)
		}
		if r.Value != 0 {
			fmt.Fprintf(w, " value=%d", r.Value)
		}
		if r.Detail != "" {
			fmt.Fprintf(w, " %s", r.Detail)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "-- end flight dump --")
}

// DumpFlight dumps the process-wide recorder to os.Stderr. Called on
// action panics and log corruption so the incidents leading up to the
// failure survive in the crash output.
func DumpFlight(reason string) { flight.Dump(os.Stderr, reason) }
