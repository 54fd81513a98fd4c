package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/shard"
	"ode/internal/storage"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// ctlMsg is one control message from the generator to a subprocess.
type ctlMsg struct {
	Cmd   string   `json:"cmd"` // peers | stats | trace | spans | micro
	Addrs []string `json:"addrs,omitempty"`
	Path  string   `json:"path,omitempty"`
	On    bool     `json:"on,omitempty"`
}

// traceCounters is a snapshot of a traceSet's counters.
type traceCounters struct {
	Reads, ReadNs                   uint64
	ReadAts, ReadAtNs               uint64
	Applies, ApplyNs, ApplyOps      uint64
	WALWrites, WALBytes, WALWriteNs uint64
	WALSyncs, WALSyncNs             uint64
	PinsMax                         uint64
	Frames, FrameBusyNs, FrameResNs uint64
	Ingests, IngestNs               uint64
	OutboxMax                       uint64
	DroppedSpans                    uint64
}

// combine applies f to each pair of fields (every field is a uint64).
func (a traceCounters) combine(b traceCounters, f func(x, y uint64) uint64) traceCounters {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(f(va.Field(i).Uint(), vb.Field(i).Uint()))
	}
	return a
}

func (ts *traceSet) counters() traceCounters {
	return traceCounters{
		Reads: ts.reads.Load(), ReadNs: ts.readNs.Load(),
		ReadAts: ts.readAts.Load(), ReadAtNs: ts.readAtNs.Load(),
		Applies: ts.applies.Load(), ApplyNs: ts.applyNs.Load(), ApplyOps: ts.applyOps.Load(),
		WALWrites: ts.walWrites.Load(), WALBytes: ts.walBytes.Load(), WALWriteNs: ts.walWriteNs.Load(),
		WALSyncs: ts.walSyncs.Load(), WALSyncNs: ts.walSyncNs.Load(),
		PinsMax: uint64(ts.pinsMax.Load()),
		Frames:  ts.frames.Load(), FrameBusyNs: ts.frameBusyNs.Load(), FrameResNs: ts.frameResidenceNs.Load(),
		Ingests: ts.ingests.Load(), IngestNs: ts.ingestNs.Load(),
		OutboxMax:    ts.outboxMax.Load(),
		DroppedSpans: uint64(ts.droppedSpans()),
	}
}

// procStats is what a process reports about itself: the registries the
// program already exposes, the decorators' counters, and the runtime's
// own accounting.
type procStats struct {
	Err       string            `json:"err,omitempty"`
	Mallocs   uint64            `json:"mallocs"`
	GCPauseNs uint64            `json:"gc_pause_ns"`
	CPUNs     uint64            `json:"cpu_ns"`
	HWMKB     uint64            `json:"hwm_kb"`
	Metrics   []obs.MetricValue `json:"metrics"`
	Trace     traceCounters     `json:"trace"`
	// micro reply only.
	BeginUs     float64 `json:"begin_us,omitempty"`
	SnapBeginUs float64 `json:"snap_begin_us,omitempty"`
}

// selfStats gathers the calling process's stats.
func selfStats(ts *traceSet, regs ...*obs.Registry) procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := procStats{Mallocs: ms.Mallocs, GCPauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.CPUNs = uint64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				st.HWMKB, _ = strconv.ParseUint(strings.Fields(rest)[0], 10, 64)
			}
		}
	}
	for _, r := range regs {
		st.Metrics = append(st.Metrics, r.Snapshot()...)
	}
	if ts != nil {
		st.Trace = ts.counters()
	}
	return st
}

// microTxn times db.Begin and db.BeginSnapshot directly (each paired
// with the Commit that ends it), in µs per call.
func microTxn(db *core.Database) (beginUs, snapUs float64) {
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		db.Begin().Commit()
	}
	beginUs = float64(time.Since(t0).Nanoseconds()) / n / 1e3
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if tx, err := db.BeginSnapshot(); err == nil {
			tx.Commit()
		}
	}
	snapUs = float64(time.Since(t0).Nanoseconds()) / n / 1e3
	return beginUs, snapUs
}

// openStore opens the workload's storage manager, decorated when ts is
// not nil. filter, when set, restricts OID allocation to what this shard
// owns and must be installed before the first user allocation.
func openStore(kind, path string, filter func(uint64) bool, ts *traceSet) (storage.Manager, error) {
	var m storage.Manager
	switch kind {
	case "dali":
		d := dali.New()
		if filter != nil {
			d.SetOIDFilter(filter)
		}
		m = d
	case "eos":
		var opts eos.Options
		if ts != nil {
			opts.WALFile = func(f wal.File) wal.File { return &tracedWAL{File: f, ts: ts} }
		}
		e, err := eos.Open(path, opts)
		if err != nil {
			return nil, err
		}
		if filter != nil {
			e.SetOIDFilter(filter)
		}
		m = e
	default:
		return nil, fmt.Errorf("unknown store %q", kind)
	}
	if ts != nil {
		m = traceStore(m, ts)
	}
	return m, nil
}

// roleMain runs a subprocess role; args follow "-role".
func roleMain(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("-role needs node or router")
	}
	fs := flag.NewFlagSet("role "+args[0], flag.ContinueOnError)
	store := fs.String("store", "dali", "node: storage manager, dali or eos")
	dir := fs.String("dir", "", "node: directory for the eos store")
	index := fs.Int("index", 0, "node: this shard's ring slot")
	shards := fs.Int("shards", 1, "node: shards in the ring (1 = unsharded)")
	traced := fs.Bool("traced", false, "install the tracing decorators")
	backends := fs.String("backends", "", "router: comma-separated shard addresses in ring order")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch args[0] {
	case "node":
		return nodeMain(*store, *dir, *index, *shards, *traced)
	case "router":
		return routerMain(strings.Split(*backends, ","))
	}
	return fmt.Errorf("unknown role %q", args[0])
}

// serveControl answers control messages until stdin closes.
func serveControl(handle func(ctlMsg) any) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	for sc.Scan() {
		var msg ctlMsg
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			enc.Encode(procStats{Err: err.Error()})
		} else {
			enc.Encode(handle(msg))
		}
		out.Flush()
	}
}

func nodeMain(storeKind, dir string, index, shards int, traced bool) error {
	var ts *traceSet
	if traced {
		ts = newTraceSet()
	}
	var ring *shard.Ring
	var filter func(uint64) bool
	if shards > 1 {
		var err error
		if ring, err = shard.NewRing(shards, 0); err != nil {
			return err
		}
		filter = ring.OIDFilter(index)
	}
	store, err := openStore(storeKind, filepath.Join(dir, fmt.Sprintf("s%d.eos", index)), filter, ts)
	if err != nil {
		return err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Register(credCardClass(wallStamp)); err != nil {
		return err
	}
	var opts server.Options
	addrs := make([]string, shards) // filled by the peers message, before any status op
	if ring != nil {
		if err := db.EnableSharding(filter); err != nil {
			return err
		}
		opts.ExtraOps = shard.Ops(db, ring, index, addrs)
	}
	srv := server.NewWithOptions(db, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	if ts != nil {
		rl, err := startRelay(addr, ts)
		if err != nil {
			return err
		}
		defer rl.close()
		addr = rl.addr()
		if ring != nil {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if d := db.OutboxDepth(); ts.on.Load() && d > ts.outboxMax.Load() {
							ts.outboxMax.Store(d)
						}
					}
				}
			}()
		}
	}
	fmt.Printf("READY %s\n", addr)

	var fwd *shard.Forwarder
	defer func() {
		if fwd != nil {
			fwd.Stop()
		}
	}()
	serveControl(func(msg ctlMsg) any {
		switch msg.Cmd {
		case "peers":
			if ring == nil || len(msg.Addrs) != shards || fwd != nil {
				return procStats{Err: "peers: not a fresh shard, or wrong address count"}
			}
			copy(addrs, msg.Addrs)
			f, err := shard.NewForwarder(db, ring, shard.ForwarderOptions{Self: index, Addrs: addrs})
			if err != nil {
				return procStats{Err: err.Error()}
			}
			fwd = f
			go fwd.Run()
			return procStats{}
		case "stats":
			return selfStats(ts, db.Observability())
		case "trace":
			if ts == nil {
				return procStats{Err: "trace: node was not started with -traced"}
			}
			if msg.On {
				ts.shared.reset()
			}
			ts.on.Store(msg.On)
			return procStats{}
		case "spans":
			if ts == nil {
				return procStats{Err: "spans: node was not started with -traced"}
			}
			if err := ts.writeSpans(msg.Path, fmt.Sprintf("node%d", index)); err != nil {
				return procStats{Err: err.Error()}
			}
			return procStats{}
		case "micro":
			st := procStats{}
			st.BeginUs, st.SnapBeginUs = microTxn(db)
			return st
		}
		return procStats{Err: "unknown command " + msg.Cmd}
	})
	return nil
}

func routerMain(backends []string) error {
	ring, err := shard.NewRing(len(backends), 0)
	if err != nil {
		return err
	}
	rt, err := shard.NewRouter(ring, shard.RouterOptions{
		Addrs:  backends,
		Client: server.ClientOptions{DialAttempts: 10, RedialBase: 50 * time.Millisecond, RedialMax: 2 * time.Second},
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go rt.Serve(ln)
	fmt.Printf("READY %s\n", ln.Addr())
	serveControl(func(msg ctlMsg) any {
		if msg.Cmd == "stats" {
			return selfStats(nil, rt.Observability())
		}
		return procStats{Err: "unknown command " + msg.Cmd}
	})
	return nil
}
