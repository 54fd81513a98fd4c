package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/fsm"
	"ode/internal/obs"
)

// pinger is the object of the co-acceptance rows: Ping counts itself.
type pinger struct{ N int }

// pingClass declares two triggers on "after Ping". A is perpetual and
// immediate; its action posts one more Ping from inside the posting
// that brings N to nestAt. B counts its firings in *fired.
func pingClass(nestAt int, bExpr string, bPerpetual bool, fired *int) *Class {
	var bOpts []TriggerOption
	if bPerpetual {
		bOpts = append(bOpts, Perpetual())
	}
	return MustClass("Pinger",
		Factory(func() any { return new(pinger) }),
		Method("Ping", func(ctx *Ctx, self any, args []any) (any, error) {
			self.(*pinger).N++
			return nil, nil
		}),
		Events("after Ping"),
		Trigger("A", "after Ping", func(ctx *Ctx, self any, act *Activation) error {
			if self.(*pinger).N != nestAt {
				return nil
			}
			_, err := ctx.Invoke(ctx.Self(), "Ping")
			return err
		}, Perpetual()),
		Trigger("B", bExpr, func(ctx *Ctx, self any, act *Activation) error {
			*fired++
			return nil
		}, bOpts...),
	)
}

// TestCoAcceptedDisposedBeforeActions checks §5.4.5's order: every
// activation a posting fires is disposed of before any action of that
// posting runs. When A's action posts Ping again, a co-accepted B must
// already be removed (once-only) or reset (perpetual), whichever of
// the two was activated first, on the persistent and the local path.
func TestCoAcceptedDisposedBeforeActions(t *testing.T) {
	rows := []struct {
		name       string
		local      bool
		bExpr      string
		bPerpetual bool
		pings      int // posted by the application; A adds one more
	}{
		{"once-only", false, "after Ping", false, 1},
		{"perpetual", false, "after Ping, after Ping", true, 2},
		{"local once-only", true, "after Ping", false, 1},
	}
	for _, row := range rows {
		for _, bFirst := range []bool{false, true} {
			order := "B after A"
			if bFirst {
				order = "B before A"
			}
			t.Run(row.name+"/"+order, func(t *testing.T) {
				fired := 0
				db := newTestDB(t, pingClass(row.pings, row.bExpr, row.bPerpetual, &fired))
				tx := db.Begin()
				ref, err := db.Create(tx, "Pinger", &pinger{})
				if err != nil {
					t.Fatal(err)
				}
				if !row.local {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					tx = db.Begin()
				}
				activate := func(trigger string) {
					var err error
					if row.local {
						_, err = db.ActivateLocal(tx, ref, trigger)
					} else {
						_, err = db.Activate(tx, ref, trigger)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if bFirst {
					activate("B")
					activate("A")
				} else {
					activate("A")
					activate("B")
				}
				for i := 0; i < row.pings; i++ {
					if _, err := db.Invoke(tx, ref, "Ping"); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if got := readPinger(t, db, ref).N; got != row.pings+1 {
					t.Fatalf("Ping ran %d times, want %d", got, row.pings+1)
				}
				if fired != 1 {
					t.Fatalf("B fired %d times, want 1", fired)
				}
			})
		}
	}
}

// TestPerpetualMaskAtStartRestarts checks that a perpetual trigger whose
// expression opens with a mask settles that mask again when it fires, as
// activation does, on the persistent and the local path. Reset to the
// bare start state, the next posting would advance an unsettled mask
// state and fail.
func TestPerpetualMaskAtStartRestarts(t *testing.T) {
	for _, local := range []bool{false, true} {
		fired := 0
		db := newTestDB(t, MustClass("Gate",
			Factory(func() any { return new(pinger) }),
			Method("Open", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
			Method("Ping", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
			Events("after Open", "after Ping"),
			Mask("m", func(ctx *Ctx, self any, act *Activation) (bool, error) { return true, nil }),
			Trigger("T", "(*after Open & m), after Ping", func(ctx *Ctx, self any, act *Activation) error {
				fired++
				return nil
			}, Perpetual()),
		))
		tx := db.Begin()
		ref, err := db.Create(tx, "Gate", &pinger{})
		if err != nil {
			t.Fatal(err)
		}
		if local {
			_, err = db.ActivateLocal(tx, ref, "T")
		} else {
			_, err = db.Activate(tx, ref, "T")
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := db.Invoke(tx, ref, "Ping"); err != nil {
				t.Fatalf("local=%v: Ping %d: %v", local, i+1, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if fired != 3 {
			t.Fatalf("local=%v: T fired %d times, want 3", local, fired)
		}
	}
}

// TestRestartMaskTraced checks that a sampled posting's trace keeps the
// mask step of a perpetual restart: each Ping fires T, and T's restart
// evaluates m inside that posting.
func TestRestartMaskTraced(t *testing.T) {
	db := newTestDB(t, MustClass("Gate",
		Factory(func() any { return new(pinger) }),
		Method("Open", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Method("Ping", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Open", "after Ping"),
		Mask("m", func(ctx *Ctx, self any, act *Activation) (bool, error) { return true, nil }),
		Trigger("T", "(*after Open & m), after Ping", func(ctx *Ctx, self any, act *Activation) error { return nil }, Perpetual()),
	))
	tx := db.Begin()
	ref, err := db.Create(tx, "Gate", &pinger{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "T"); err != nil {
		t.Fatal(err)
	}
	db.Tracer().SetRate(1)
	for i := 0; i < 3; i++ {
		if _, err := db.Invoke(tx, ref, "Ping"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	bc, _ := db.ClassOf("Gate")
	bt, _ := bc.TriggerByName("T")
	restarts := 0 // mask steps out of T's start state
	for _, rec := range db.Tracer().Snapshot() {
		for _, s := range rec.Steps {
			if s.Kind == obs.StepMask && s.Trigger == "T" && s.From == bt.Machine.Start {
				restarts++
			}
		}
	}
	if restarts != 3 {
		t.Fatalf("traces hold %d mask steps of T's restart, want 3: %+v", restarts, db.Tracer().Snapshot())
	}
}

// TestFailedActionFiresTheRest checks that an immediate action's error
// does not drop the other firings of its posting, which were disposed
// of before any action ran: A (perpetual, immediate) fails, and the
// once-only B (immediate) and C (deferred) co-accepted with it each
// still fire once, in either activation order, on both paths. The
// error reaches the caller, who may still commit.
func TestFailedActionFiresTheRest(t *testing.T) {
	errA := errors.New("A fails")
	for _, local := range []bool{false, true} {
		for _, aFirst := range []bool{true, false} {
			fired := map[string]int{}
			count := func(name string) ActionFunc {
				return func(ctx *Ctx, self any, act *Activation) error {
					fired[name]++
					return nil
				}
			}
			db := newTestDB(t, MustClass("Pinger",
				Factory(func() any { return new(pinger) }),
				Method("Ping", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
				Events("after Ping"),
				Trigger("A", "after Ping", func(ctx *Ctx, self any, act *Activation) error { return errA }, Perpetual()),
				Trigger("B", "after Ping", count("B")),
				Trigger("C", "after Ping", count("C"), WithCoupling(Deferred)),
			))
			tx := db.Begin()
			ref, err := db.Create(tx, "Pinger", &pinger{})
			if err != nil {
				t.Fatal(err)
			}
			order := []string{"B", "C", "A"}
			if aFirst {
				order = []string{"A", "B", "C"}
			}
			for _, trig := range order {
				if local {
					_, err = db.ActivateLocal(tx, ref, trig)
				} else {
					_, err = db.Activate(tx, ref, trig)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Invoke(tx, ref, "Ping"); !errors.Is(err, errA) {
				t.Fatalf("local=%v order %v: Ping = %v, want A's error", local, order, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if fired["B"] != 1 || fired["C"] != 1 {
				t.Fatalf("local=%v order %v: B fired %d, C fired %d; want 1 and 1", local, order, fired["B"], fired["C"])
			}
		}
	}
}

// TestLocalFiresWhenStoredDetectionFails checks that a local firing,
// disposed of before the persistent activations are detected, still
// fires when their detection fails (here on a mask error).
func TestLocalFiresWhenStoredDetectionFails(t *testing.T) {
	errMask := errors.New("mask fails")
	fired := 0
	db := newTestDB(t, MustClass("Pinger",
		Factory(func() any { return new(pinger) }),
		Method("Ping", func(ctx *Ctx, self any, args []any) (any, error) { return nil, nil }),
		Events("after Ping"),
		Mask("bad", func(ctx *Ctx, self any, act *Activation) (bool, error) { return false, errMask }),
		Trigger("L", "after Ping", func(ctx *Ctx, self any, act *Activation) error {
			fired++
			return nil
		}),
		Trigger("P", "after Ping & bad", func(ctx *Ctx, self any, act *Activation) error { return nil }),
	))
	tx := db.Begin()
	ref, err := db.Create(tx, "Pinger", &pinger{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Activate(tx, ref, "P"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ActivateLocal(tx, ref, "L"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, ref, "Ping"); !errors.Is(err, errMask) {
		t.Fatalf("Ping = %v, want the mask's error", err)
	}
	if fired != 1 {
		t.Fatalf("L fired %d times, want 1", fired)
	}
	tx.Abort()
}

// readPinger reads a committed pinger.
func readPinger(t *testing.T, db *Database, ref Ref) pinger {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	v, err := db.Get(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	return *v.(*pinger)
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// expr builds an event expression over A, B, C and the mask m.
func (b *fuzzBytes) expr(depth int) string {
	c := b.next()
	if depth == 0 {
		c %= 3
	}
	switch c % 7 {
	case 0, 1, 2:
		return string("ABC"[c%7])
	case 3:
		return "(" + b.expr(depth-1) + ", " + b.expr(depth-1) + ")"
	case 4:
		return "(" + b.expr(depth-1) + " || " + b.expr(depth-1) + ")"
	case 5:
		return "*(" + b.expr(depth-1) + ")"
	default:
		return "(" + b.expr(depth-1) + " & m)"
	}
}

// transition is one trace callback of detect.
type transition struct {
	from, to int32
	mask     string
	outcome  bool
}

// FuzzDetect checks detect's order independence: running the same
// posting over a permutation of the activations permutes the outcomes,
// the mask evaluations and the traced transitions, and changes nothing
// else. Each mask outcome is a function of the activation, the posting
// and how many masks that activation has evaluated in it, so an outcome
// cannot depend on which activation went first. Compiled machines
// carry random expressions over A, B, C and the mask m; the event
// stream is random.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 0, 6, 2, 1, 4, 1, 2, 0, 9, 0, 1, 2, 0, 0, 1})
	f.Add([]byte{2, 6, 5, 0, 0, 1, 3, 2, 1, 0, 7, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{4, 0, 1, 1, 0, 2, 0, 3, 0, 1, 2, 0, 1, 3, 5, 0, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		reg := event.NewRegistry()
		var evs []event.ID
		ids := map[string]event.ID{}
		for _, name := range []string{"A", "B", "C"} {
			id := reg.Register("F", event.Decl{Kind: event.KindUser, Name: name})
			ids[name] = id
			evs = append(evs, id)
		}
		opts := fsm.Options{
			Resolve: func(n *eventexpr.Name) (event.ID, error) {
				if id, ok := ids[n.String()]; ok {
					return id, nil
				}
				return event.None, fmt.Errorf("undeclared %q", n.String())
			},
			Alphabet: evs,
		}
		seed := uint32(in.next())
		step := uint32(0)
		maskOutcome := func(id, call int) bool {
			x := seed*2654435761 ^ step*40503 ^ uint32(id)*97 ^ uint32(call)*131
			x ^= x >> 13
			x *= 0x5bd1e995
			return (x>>15)&1 == 1
		}

		n := 1 + int(in.next()%5)
		acts := make([]detectAct, n)
		for i := range acts {
			src := in.expr(3)
			if in.next()%4 == 0 {
				src = "^" + src
			}
			p, err := eventexpr.Parse(src)
			if err != nil {
				t.Fatalf("generated %q does not parse: %v", src, err)
			}
			m, err := fsm.Compile(p, opts)
			if errors.Is(err, fsm.ErrMachineTooLarge) {
				t.Skip()
			}
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			call := 0
			start, _, err := m.Settle(m.Start, func(string) (bool, error) { call++; return maskOutcome(i, call), nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			acts[i] = detectAct{m: m, state: start, perpetual: in.next()%2 == 1}
		}

		live := make([]int, n) // ids of the activations not yet dead
		for i := range live {
			live[i] = i
		}
		for ; len(in) > 0 && len(live) > 0; step++ {
			ev := evs[in.next()%3]
			perm := append([]int(nil), live...)
			for i := len(perm) - 1; i > 0; i-- {
				j := int(in.next()) % (i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			// run posts ev to the activations in the given order and
			// returns the outcomes and transitions keyed by activation id.
			run := func(order []int) (map[int]outcome, map[int][]transition) {
				ordered := make([]detectAct, len(order))
				for j, id := range order {
					ordered[j] = acts[id]
				}
				calls := map[int]int{}
				trans := map[int][]transition{}
				outs, err := detect(ordered, ev, func(j int, name string) (bool, error) {
					if name != "m" {
						t.Fatalf("mask %q", name)
					}
					calls[order[j]]++
					return maskOutcome(order[j], calls[order[j]]), nil
				}, func(j int, from, to int32, mask string, v bool) {
					trans[order[j]] = append(trans[order[j]], transition{from, to, mask, v})
				})
				if err != nil {
					t.Fatal(err)
				}
				byID := map[int]outcome{}
				for j, o := range outs {
					byID[order[j]] = o
				}
				return byID, trans
			}
			want, wantTrans := run(live)
			got, gotTrans := run(perm)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTrans, wantTrans) {
				t.Fatalf("step %d: order %v gave %v %v, order %v gave %v %v", step, live, want, wantTrans, perm, got, gotTrans)
			}
			next := live[:0]
			for _, id := range live {
				o, a := want[id], &acts[id]
				switch {
				case o.fired && !a.perpetual:
					if o.state != deadState {
						t.Fatalf("fired once-only activation %d left in state %d", id, o.state)
					}
				case o.fired && a.m.States[a.m.Start].Mask == fsm.NoMask && o.state != a.m.Start:
					t.Fatalf("fired perpetual activation %d reset to %d, not start", id, o.state)
				case a.m.States[o.state].Mask != fsm.NoMask:
					t.Fatalf("activation %d left in mask state %d", id, o.state)
				}
				if a.state = o.state; o.state != deadState {
					next = append(next, id)
				}
			}
			live = next
		}
	})
}
