package ode_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ode"
	"ode/internal/obs"
)

// TestObservabilityDocCoverage enforces the contract stated in package
// obs: every metric a main-memory (dali) or disk (eos) database
// registers has a row in docs/OBSERVABILITY.md whose unit column equals
// the registered unit, and registers with help text; every trace step
// kind, incident kind, chain kind and JSON field of the trace schema
// appears there verbatim. Adding a metric without documenting it fails
// CI. It also holds the experiment catalogue to the code: every test or
// benchmark EXPERIMENTS.md and DESIGN.md cite must exist.
func TestObservabilityDocCoverage(t *testing.T) {
	const path = "docs/OBSERVABILITY.md"
	doc := readDoc(t, path)
	mem, err := ode.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	disk, err := ode.OpenDisk(filepath.Join(t.TempDir(), "doc.eos"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	var names, rows, units []string
	var helped strings.Builder
	seen := map[string]bool{}
	for _, db := range []*ode.Database{mem, disk} {
		for _, m := range db.Observability().Snapshot() {
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			names = append(names, "`"+m.Name+"`")
			rows = append(rows, "| `"+m.Name+"` |")
			units = append(units, "| `"+m.Name+"` | "+m.Unit+" |")
			if m.Help != "" {
				helped.WriteString("`" + m.Name + "`")
			}
		}
	}
	quote := func(q string, terms ...string) []string {
		out := make([]string, len(terms))
		for i, term := range terms {
			out[i] = q + term + q
		}
		return out
	}
	checks := []docRow{
		{path, doc, "metric row", rows},
		{path, doc, "metric row with its registered unit", units},
		{"its registration (empty help)", helped.String(), "metric", names},
		{path, doc, "trace step kind", quote(`"`, obs.StepTransition, obs.StepMask, obs.StepFire,
			obs.StepCommitWait, obs.StepRetry, obs.StepActionStart, obs.StepActionEnd, obs.StepSnapshot)},
		{path, doc, "flight incident kind", quote(`"`, obs.IncidentKinds...)},
		{path, doc, "chain event kind", quote(`"`, obs.ChainTrace, obs.ChainIncident, obs.ChainHop, obs.ChainCompletion)},
		{path, doc, "op", quote("`", "trace.chain", "trace.rate")},
		{path, doc, "term", []string{"Fleet observability", "fleet-routed", "obs.trace_overhead_frac"}},
	}
	for _, v := range []any{
		obs.Step{}, obs.TraceRecord{}, obs.IncidentRecord{}, obs.MetricValue{},
		obs.Bucket{}, obs.ChainEvent{}, obs.ChainNode{},
	} {
		typ := reflect.TypeOf(v)
		checks = append(checks, docRow{path, doc, typ.Name() + " JSON field", jsonFields(typ)})
	}
	checkDocRows(t, checks)

	declared := map[string]bool{}
	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range declRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	citeRE := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"EXPERIMENTS.md", "DESIGN.md", "README.md"}, docs...) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRE.FindAllString(string(raw), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", path, name)
				declared[name] = true // report each name once
			}
		}
	}
}

// TestTraceEndToEnd fires the account triggers with sampling on and
// checks the recorded trace: FSM transitions, the §5.1.2 mask
// pseudo-event, coupling-mode dispatch, and the action bracket.
func TestTraceEndToEnd(t *testing.T) {
	db, ref := openAccountDB(t)
	db.Tracer().SetRate(1)

	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Deposit", 50.0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Overdraw: "after Withdraw & Overdrawn" accepts, BlockOverdraft
	// fires immediately and tabort-s the transaction.
	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, ref, "Withdraw", 100.0); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ode.ErrAborted) {
		t.Fatalf("overdraft commit = %v, want ErrAborted", err)
	}

	var fired *obs.TraceRecord
	for _, rec := range db.Tracer().Snapshot() {
		for _, s := range rec.Steps {
			if s.Kind == obs.StepFire && s.Trigger == "BlockOverdraft" {
				r := rec
				fired = &r
			}
		}
	}
	if fired == nil {
		t.Fatalf("no trace contains a fire step for BlockOverdraft; traces: %+v", db.Tracer().Snapshot())
	}
	if !strings.Contains(fired.Event, "Withdraw") {
		t.Errorf("firing trace posted event = %q, want the Withdraw event", fired.Event)
	}
	if fired.OID != uint64(ref.OID()) {
		t.Errorf("trace OID = %d, want %d", fired.OID, ref.OID())
	}
	var sawTransition, sawMask, sawFire, sawStart, sawEnd bool
	last := int64(-1)
	for _, s := range fired.Steps {
		if s.TNs < last {
			t.Errorf("steps out of order: %d after %d", s.TNs, last)
		}
		last = s.TNs
		switch s.Kind {
		case obs.StepTransition:
			sawTransition = true
		case obs.StepMask:
			if s.Mask == "Overdrawn" && s.Event == "True" {
				sawMask = true
			}
		case obs.StepFire:
			if s.Trigger == "BlockOverdraft" {
				sawFire = true
				if s.Coupling != "immediate" {
					t.Errorf("fire coupling = %q, want immediate", s.Coupling)
				}
			}
		case obs.StepActionStart:
			sawStart = true
		case obs.StepActionEnd:
			sawEnd = true
		}
	}
	if !sawTransition || !sawMask || !sawFire || !sawStart || !sawEnd {
		t.Fatalf("trace missing steps (transition=%v mask=%v fire=%v start=%v end=%v): %+v",
			sawTransition, sawMask, sawFire, sawStart, sawEnd, fired.Steps)
	}
}

// TestTraceSnapshotStep: a posting inside a snapshot transaction leaves
// a "snapshot" step carrying the pinned LSN — the trace says out loud
// that persistent trigger processing was suppressed.
func TestTraceSnapshotStep(t *testing.T) {
	cls := ode.MustClass("Probe",
		ode.Factory(func() any { return new(Account) }),
		ode.ReadOnlyMethod("Peek", func(ctx *ode.Ctx, self any, args []any) (any, error) {
			return self.(*Account).Balance, nil
		}),
		ode.Events("after Peek"),
		ode.Trigger("OnPeek", "after Peek",
			func(ctx *ode.Ctx, self any, act *ode.Activation) error { return nil },
			ode.Perpetual()),
	)
	db, err := ode.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Register(cls); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	ref, err := db.Create(tx, "Probe", &Account{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "OnPeek"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Tracer().SetRate(1)

	snap, err := db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(snap, ref, "Peek"); err != nil {
		t.Fatal(err)
	}
	lsn := snap.SnapshotLSN()
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, rec := range db.Tracer().Snapshot() {
		for _, s := range rec.Steps {
			if s.Kind == obs.StepSnapshot {
				found = true
				if s.LSN != lsn {
					t.Errorf("snapshot step LSN = %d, want pinned %d", s.LSN, lsn)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no %q step recorded for a snapshot posting", obs.StepSnapshot)
	}
}
