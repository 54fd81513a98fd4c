package ode_test

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"ode"
	"ode/internal/obs"
)

// TestObservabilityDocCoverage enforces the contract stated in package
// obs: every metric name registered by an open database, every trace step
// kind, and every JSON field of the trace schema must appear verbatim in
// docs/OBSERVABILITY.md. Adding a metric without documenting it fails CI.
func TestObservabilityDocCoverage(t *testing.T) {
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("docs/OBSERVABILITY.md missing: %v", err)
	}
	doc := string(raw)

	db, _ := openAccountDB(t)
	for _, name := range db.Observability().Names() {
		if !strings.Contains(doc, name) {
			t.Errorf("metric %q is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for _, kind := range []string{
		obs.StepTransition, obs.StepMask, obs.StepFire,
		obs.StepCommitWait, obs.StepRetry, obs.StepActionStart, obs.StepActionEnd,
		obs.StepSnapshot,
	} {
		if !strings.Contains(doc, `"`+kind+`"`) {
			t.Errorf("trace step kind %q is not documented in docs/OBSERVABILITY.md", kind)
		}
	}
	for _, kind := range obs.IncidentKinds {
		if !strings.Contains(doc, `"`+kind+`"`) {
			t.Errorf("flight incident kind %q is not documented in docs/OBSERVABILITY.md", kind)
		}
	}
	for _, kind := range []string{
		obs.ChainTrace, obs.ChainIncident, obs.ChainHop, obs.ChainCompletion,
	} {
		if !strings.Contains(doc, `"`+kind+`"`) {
			t.Errorf("chain event kind %q is not documented in docs/OBSERVABILITY.md", kind)
		}
	}
	for _, op := range []string{"trace.chain", "trace.rate"} {
		if !strings.Contains(doc, "`"+op+"`") {
			t.Errorf("op %q is not documented in docs/OBSERVABILITY.md", op)
		}
	}
	for _, term := range []string{"Fleet observability", "fleet-routed", "obs.trace_overhead_frac"} {
		if !strings.Contains(doc, term) {
			t.Errorf("docs/OBSERVABILITY.md does not mention %q", term)
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(obs.Step{}),
		reflect.TypeOf(obs.TraceRecord{}),
		reflect.TypeOf(obs.IncidentRecord{}),
		reflect.TypeOf(obs.MetricValue{}),
		reflect.TypeOf(obs.Bucket{}),
		reflect.TypeOf(obs.ChainEvent{}),
		reflect.TypeOf(obs.ChainNode{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			tag := typ.Field(i).Tag.Get("json")
			name := strings.Split(tag, ",")[0]
			if name == "" || name == "-" {
				continue
			}
			if !strings.Contains(doc, "`"+name+"`") {
				t.Errorf("%s JSON field `%s` is not documented in docs/OBSERVABILITY.md", typ.Name(), name)
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

// TestRegistrySubsumesStats checks that the pre-existing Stats accessors
// and the registry report the same counters, and that the storage, txn,
// and lock groups are present.
func TestRegistrySubsumesStats(t *testing.T) {
	db, ref := openAccountDB(t)
	tx := db.Begin()
	if _, err := db.Invoke(tx, ref, "Deposit", 10.0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]uint64{}
	groups := map[string]bool{}
	for _, m := range db.Observability().Snapshot() {
		byName[m.Name] = m.Value
		groups[strings.SplitN(m.Name, ".", 2)[0]] = true
	}
	for _, g := range []string{"core", "storage", "txn", "lock"} {
		if !groups[g] {
			t.Errorf("registry has no %q metrics", g)
		}
	}
	st := db.Stats()
	if st.EventsPosted == 0 {
		t.Fatal("no events posted")
	}
	if byName["core.events_posted"] != st.EventsPosted {
		t.Errorf("core.events_posted = %d, Stats().EventsPosted = %d", byName["core.events_posted"], st.EventsPosted)
	}
	if byName["txn.committed"] == 0 {
		t.Error("txn.committed = 0 after a commit")
	}
	db.ResetStats()
	if got := db.Stats(); got.EventsPosted != 0 || got.FiredImmediate != 0 {
		t.Errorf("ResetStats left %+v", got)
	}
}
