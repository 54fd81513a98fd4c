// Command bench is the repository's one benchmark: four named workloads
// over three topologies, end-to-end metrics measured with nothing
// installed, per-layer metrics from a separate traced run, and result
// verification built into every run. README.md explains how to run it
// and what each number means.
//
//	go run . -seed 1 -out result.json          every workload, untraced then traced
//	go run . -workload embedded-detect -trace 0 -seconds 15
//	go run . -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// config is what a result file needs to reproduce its run (-rerun).
type config struct {
	Seed     int64   `json:"seed"`
	Workload string  `json:"workload"` // "" = all
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick"`
	Trace    string  `json:"trace"` // "0", "1", or a file for the spans; "" with no -workload = both
}

type environment struct {
	GitCommit string `json:"git_commit"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	When      string `json:"when"`
}

type resultFile struct {
	Config config            `json:"config"`
	Env    environment       `json:"env"`
	Runs   []*workloadResult `json:"runs"`
}

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		if err := roleMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for every generated input")
	fs.StringVar(&cfg.Workload, "workload", "", "run one workload (default: all four, untraced then traced)")
	fs.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "how long one run measures")
	fs.BoolVar(&cfg.Quick, "quick", false, "smoke test: one-second runs on an eighth of the cards; numbers are not comparable")
	fs.StringVar(&cfg.Trace, "trace", "", "with -workload: 0 = end-to-end run, 1 = traced per-layer run, or a `file` to also write the spans to as JSON lines")
	out := fs.String("out", "", "write the full results to `file` as JSON")
	rerun := fs.String("rerun", "", "take the configuration from an earlier result `file`")
	compare := fs.Bool("compare", false, "compare two result files (or comma-separated lists of files): -compare base.json new.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the workload and metric tables define it, and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the generator process to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile of the generator process to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1))
	}
	if *rerun != "" {
		var old resultFile
		raw, err := os.ReadFile(*rerun)
		if err == nil {
			err = json.Unmarshal(raw, &old)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: -rerun:", err)
			return 2
		}
		cfg = old.Config
	}
	if cfg.Quick {
		cfg.Seconds = 1
	}
	if cfg.Workload != "" && workloadByName(cfg.Workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		pprof.StartCPUProfile(f)
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	handleSignals()
	defer cleanupAll()

	rf := resultFile{Config: cfg, Env: environment{
		GitCommit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		When: time.Now().UTC().Format(time.RFC3339),
	}}
	type job struct {
		def *workloadDef
		o   runOpts
	}
	var jobs []job
	opts := func(traced bool, traceOut string) runOpts {
		return runOpts{seed: cfg.Seed, seconds: cfg.Seconds, traced: traced, quick: cfg.Quick, traceOut: traceOut}
	}
	if cfg.Workload != "" {
		def := workloadByName(cfg.Workload)
		switch cfg.Trace {
		case "", "0":
			jobs = append(jobs, job{def, opts(false, "")})
		case "1":
			jobs = append(jobs, job{def, opts(true, "")})
		default:
			jobs = append(jobs, job{def, opts(true, cfg.Trace)})
		}
	} else {
		traceOut := ""
		if cfg.Trace != "" && cfg.Trace != "0" && cfg.Trace != "1" {
			traceOut = cfg.Trace
		}
		for _, def := range workloads {
			jobs = append(jobs, job{def, opts(false, "")})
			if cfg.Trace != "0" {
				jobs = append(jobs, job{def, opts(true, traceOut)})
			}
		}
	}
	status := 0
	for _, j := range jobs {
		res, err := runWorkload(j.def, j.o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.def.name, err)
			return 1
		}
		rf.Runs = append(rf.Runs, res)
		printResult(res)
		if !res.correct() {
			status = 1
		}
	}
	if *memprofile != "" {
		if f, err := os.Create(*memprofile); err == nil {
			pprof.WriteHeapProfile(f)
			f.Close()
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(&rf, "", " ")
		if err == nil {
			err = os.WriteFile(*out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if cfg.Workload != "" {
		// The driver's contract: one JSON object as the last line.
		res := rf.Runs[0]
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.correct(), res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
	}
	return status
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printResult(r *workloadResult) {
	mode := "end-to-end (nothing installed)"
	if r.Traced {
		mode = "traced (decorators installed)"
	}
	fmt.Printf("== %s  seed=%d  %.0fs  %s  stream=%s\n", r.Workload, r.Seed, r.Seconds, mode, r.StreamDigest)
	names := make([]string, 0, len(r.Phases))
	for n := range r.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := r.Phases[n]
		fmt.Printf("  phase %-16s %-8s %6.2fs  attempted=%d committed=%d failed=%d  %.1f txn/s  p50=%.1fus p99=%.1fus p99.9=%.1fus (n=%d)",
			n, p.Arrival, p.Seconds, p.Attempted, p.Committed, p.Failed, p.opsPerSec(), p.Lat.P50, p.Lat.P99, p.Lat.P999, p.Lat.N)
		if p.Arrival[0] != 'n' {
			fmt.Printf("  late_p99=%.1fus late_frac=%.4f", p.LateP99Us, p.LateFrac)
			if p.BacklogGrowing {
				fmt.Print("  backlog_growing")
			}
		}
		fmt.Println()
	}
	fmt.Printf("  fire latency: p50=%.1fus p99=%.1fus (n=%d)\n", r.Fire.P50, r.Fire.P99, r.Fire.N)
	v := r.Verify
	fmt.Printf("  verify: ok=%v outcome_mismatches=%d objects_checked=%d durable_checked=%d\n", v.OK, v.OutcomeMismatches, v.ObjectsChecked, v.DurableChecked)
	for _, p := range v.Problems {
		fmt.Printf("    PROBLEM: %s\n", p)
	}
	defs := endToEndMetrics
	if r.Traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if len(r.LayerTable) > 0 {
		fmt.Printf("  layer table, per attempted transaction (mean committed latency %.2f us):\n", r.MeanOpUs)
		fmt.Printf("  %-10s %9s %12s %12s %12s %10s\n", "layer", "count", "busy_us", "self_us", "waited_us", "failed")
		var self float64
		for _, row := range r.LayerTable {
			fmt.Println(fmtRow(row))
			self += row.Self
		}
		fmt.Printf("  %-10s %9s %12s %12.2f   unattributed_frac=%.4f\n", "sum", "", "", self, r.Metrics["obs.unattributed_frac"].Value)
		if r.DroppedSpans > 0 {
			fmt.Printf("  WARNING: %d spans did not fit their ring and were dropped; the table undercounts\n", r.DroppedSpans)
		}
	}
}
