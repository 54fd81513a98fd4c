package main

import (
	"encoding/json"
	"strings"
)

// workloadDef is one named workload. Names are permanent: results of
// different commits are compared by them.
type workloadDef struct {
	name, why string
	topology  string // embedded | server | fleet
	store     string // dali | eos
	cards     int
	// clients is the closed loop's population. For the embedded
	// workloads it is also the number of goroutines calling the engine;
	// for the networked ones it is the window of sessions spread over
	// the generator's two connections, and the worker pool of the open
	// loop.
	clients int
	// rateLo and rateHi are the open-loop arrival rates (transactions
	// per second), frozen at about 25 % and 50 % of the workload's own
	// closed-loop throughput as calibrated on the commit that added the
	// benchmark (README.md records the calibration). They are never
	// derived at run time: a faster engine must show as lower latency at
	// the same offered load, not as a moved goalpost.
	rateLo, rateHi float64
	acts           []activation
	limit          float64
	// fireOn is the op kind whose presence marks a transaction that
	// fires a stamping trigger in a node process (opNone: none).
	fireOn opKind
	// checkModulus makes every snapshot read check the balance modulus.
	checkModulus bool
	// holderPad pads every card's Holder to this many bytes, to size the
	// working set against the disk store's buffer pool without adding
	// cards (whose number sets the trigger index's bucket size).
	holderPad int
	// maxRate bounds the closed loop's throughput (transactions per
	// second) for sizing the pre-generated stream.
	maxRate int
}

const opNone opKind = 255

func (d *workloadDef) initialBal(i int) float64 {
	if d.name == "embedded-detect" {
		// Spread over [0, limit) so the shaped stream starts near its
		// steady state.
		return float64(i * 37 % detectLimit)
	}
	return 0
}

func (d *workloadDef) holder() string {
	if d.holderPad == 0 {
		return "bench"
	}
	return strings.Repeat("x", d.holderPad)
}

func (d *workloadDef) networked() bool { return d.topology != "embedded" }

var workloads = []*workloadDef{
	{
		name:     "embedded-detect",
		why:      "in-process, main-memory store, one client, 16 activations per card: core+fsm+obj do nearly all the work, no fsync, no wire",
		topology: "embedded", store: "dali", cards: 4096, clients: 1,
		acts: detectActivations(), limit: detectLimit, fireOn: opNone, maxRate: 4000,
	},
	{
		name:     "embedded-commit",
		why:      "in-process, disk store 5x its buffer pool, real fsync, two clients, one Buy per transaction: wal+eos dominate, core is a sliver",
		topology: "embedded", store: "eos", cards: 2560, holderPad: 1800, clients: 2,
		acts: []activation{{trigger: "DenyCredit"}}, limit: roomyLimit, fireOn: opNone, maxRate: 8000,
	},
	{
		name:     "server-readmostly",
		why:      "one node subprocess over ODE2, 90% snapshot reads beside 10% trigger-firing writes: server codec, txn snapshots and version store, no fsync",
		topology: "server", store: "dali", cards: 2048, clients: 32,
		rateLo: 1500, rateHi: 3000,
		acts:         []activation{{trigger: "DenyCredit"}, {trigger: "AutoRaiseLimit", args: []any{raiseStep}}, {trigger: compName(0, 1)}},
		limit:        roomyLimit,
		fireOn:       opPay,
		checkModulus: true,
		maxRate:      40000,
	},
	{
		name:     "fleet-routed",
		why:      "router + two disk shards with fsync, 10% of transactions complete a composite trigger on the other shard: the only workload where shard costs anything",
		topology: "fleet", store: "eos", cards: 1024, clients: 32,
		rateLo: 600, rateHi: 1200,
		acts:    []activation{{trigger: "DenyCredit"}, {trigger: "Chain"}},
		limit:   roomyLimit,
		fireOn:  opKick,
		maxRate: 15000,
	},
}

func workloadByName(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

// metricDef names one reported metric. better and bound only matter for
// the end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them, measured with no decorator installed.
//
// The tails (op_p99_us, fire_p99_us) are not here: on this two-core
// sandbox their run-to-run spread on the networked workloads (0.4 to 0.6
// of the median over ten seeds) is wider than any bound the driver
// allows, so they are printed by every run and reported by the traced
// run, but not gated. README.md has the measurements.
var endToEndMetrics = []metricDef{
	{"op_p50_us", "us", "lower", 0.20},
	{"ops_per_s", "txn/s", "higher", 0.20},
	{"fire_p50_us", "us", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are measured from outside each layer in the traced
// run. A metric of a layer the workload does not have reads 0.
var perLayerMetrics = []metricDef{
	{Name: "fsm.compile_us", Unit: "us", Better: "lower"},
	{Name: "fsm.advance_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invoke_self_us", Unit: "us", Better: "lower"},
	{Name: "core.state_reads_per_post", Unit: "count", Better: "lower"},
	{Name: "core.state_writes_per_post", Unit: "count", Better: "lower"},
	{Name: "core.fires", Unit: "count", Better: "higher"},
	{Name: "core.mask_evals", Unit: "count", Better: "lower"},
	{Name: "core.advance_useful_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.post_to_fire_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fsm_advance_ns", Unit: "ns", Better: "lower"},
	{Name: "lock.acquires_per_op", Unit: "count", Better: "lower"},
	{Name: "lock.waits", Unit: "count", Better: "lower"},
	{Name: "lock.upgrades", Unit: "count", Better: "lower"},
	{Name: "lock.deadlocks", Unit: "count", Better: "lower"},
	{Name: "txn.begin_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_self_us", Unit: "us", Better: "lower"},
	{Name: "txn.aborts", Unit: "count", Better: "lower"},
	{Name: "txn.snapshot_begin_us", Unit: "us", Better: "lower"},
	{Name: "eos.apply_commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.syncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "bytes", Better: "lower"},
	{Name: "eos.commit_queue_us", Unit: "us", Better: "lower"},
	{Name: "eos.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "dali.apply_commit_us", Unit: "us", Better: "lower"},
	{Name: "dali.read_us", Unit: "us", Better: "lower"},
	{Name: "dali.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "vstore.read_at_us", Unit: "us", Better: "lower"},
	{Name: "vstore.versions_live", Unit: "count", Better: "lower"},
	{Name: "vstore.gc_reclaimed", Unit: "count", Better: "higher"},
	{Name: "vstore.pins_max", Unit: "count", Better: "lower"},
	{Name: "server.client_codec_us", Unit: "us", Better: "lower"},
	{Name: "server.residence_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "server.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "server.pipeline_depth", Unit: "count", Better: "higher"},
	{Name: "router.route_ns", Unit: "ns", Better: "lower"},
	{Name: "router.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "router.added_us", Unit: "us", Better: "lower"},
	{Name: "forwarder.batch_size", Unit: "count", Better: "higher"},
	{Name: "shard.outbox_depth_max", Unit: "count", Better: "lower"},
	{Name: "shard.ingest_us", Unit: "us", Better: "lower"},
	{Name: "shard.ingest_useful_frac", Unit: "ratio", Better: "higher"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	// Informational end-to-end readings of the traced run.
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "op_p999_us", Unit: "us", Better: "lower"},
	{Name: "fire_p99_us", Unit: "us", Better: "lower"},
	{Name: "op_lo_p50_us", Unit: "us", Better: "lower"},
	{Name: "op_lo_p99_us", Unit: "us", Better: "lower"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// at the repository root cannot drift from what the program emits (the
// name-coverage test compares the two).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, d := range workloads {
		m.Workloads = append(m.Workloads, wl{d.name, d.why})
	}
	for _, d := range endToEndMetrics {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		panic(err) // the tables are static
	}
	return append(raw, '\n')
}
