package fsm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ode/internal/event"
	"ode/internal/eventexpr"
)

// testClass wires a small class-like environment: an event registry, a
// declared alphabet, and named masks with settable values.
type testClass struct {
	reg    *event.Registry
	ids    map[string]event.ID // "after Buy" -> ID
	alpha  []event.ID
	masks  map[string]bool
	evaled []string // mask evaluation trace
}

func newTestClass(decls ...event.Decl) *testClass {
	c := &testClass{
		reg:   event.NewRegistry(),
		ids:   make(map[string]event.ID),
		masks: make(map[string]bool),
	}
	for _, d := range decls {
		var id event.ID
		if d.Kind == event.KindTxn {
			// Transaction events are global, pre-registered by the
			// registry; the expression language spells them "before X".
			id = c.reg.Lookup("", d)
			c.ids["before "+d.Name] = id
		} else {
			id = c.reg.Register("T", d)
			c.ids[d.String()] = id
		}
		c.alpha = append(c.alpha, id)
	}
	return c
}

func (c *testClass) options() Options {
	return Options{
		Resolve: func(n *eventexpr.Name) (event.ID, error) {
			key := n.String()
			if n.Prefix != "" {
				key = n.Prefix + " " + n.Ident
			}
			id, ok := c.ids[key]
			if !ok {
				return event.None, fmt.Errorf("event %q not declared", key)
			}
			return id, nil
		},
		Alphabet: c.alpha,
		MaskExists: func(name string) error {
			if _, ok := c.masks[name]; !ok {
				return fmt.Errorf("mask %q not registered", name)
			}
			return nil
		},
	}
}

func (c *testClass) compile(t *testing.T, src string) *Machine {
	t.Helper()
	m, err := Compile(eventexpr.MustParse(src), c.options())
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return m
}

// describe names an event by its declaration, for Format.
func (c *testClass) describe(id event.ID) string {
	if info, ok := c.reg.Info(id); ok {
		return info.Decl.String()
	}
	return fmt.Sprintf("e%d", id)
}

func (c *testClass) eval(name string) (bool, error) {
	c.evaled = append(c.evaled, name)
	v, ok := c.masks[name]
	if !ok {
		return false, fmt.Errorf("unknown mask %q", name)
	}
	return v, nil
}

// run feeds named events through the machine and returns on which postings
// (0-based) the machine accepted.
func run(t *testing.T, c *testClass, m *Machine, events ...string) []int {
	t.Helper()
	var fired []int
	st := m.Start
	for i, name := range events {
		id, ok := c.ids[name]
		if !ok {
			t.Fatalf("test bug: event %q not declared", name)
		}
		next, acc, err := m.Advance(st, id, c.eval)
		if err != nil {
			t.Fatalf("Advance(%q): %v", name, err)
		}
		st = next
		if acc {
			fired = append(fired, i)
		}
	}
	return fired
}

// credCardClass reproduces the paper's §4 CredCard declaration with the
// paper's local numbering: BigBuy=0, after PayBill=1, after Buy=2.
func credCardClass() *testClass {
	c := newTestClass(event.User("BigBuy"), event.After("PayBill"), event.After("Buy"))
	c.masks["MoreCred"] = false
	c.masks["OverLimit"] = false
	return c
}

// TestPaperE1Figure1FSM is experiment E1 (Figure 1, §5.1.2): the
// AutoRaiseLimit expression compiles to exactly the extended FSM of the
// paper's Figure 1 — four states, with:
//
//	state 0 (start): after Buy -> 1; BigBuy, after PayBill -> 0
//	state 1 (*mask MoreCred): True -> 2, False -> 0
//	state 2: after PayBill -> 3; BigBuy, after Buy -> 2
//	state 3 (accept)
func TestPaperE1Figure1FSM(t *testing.T) {
	c := credCardClass()
	m := c.compile(t, "relative((after Buy & MoreCred()), after PayBill)")
	t.Logf("Figure 1 machine:\n%s", m.Format(c.describe))

	if got := m.NumStates(); got != 4 {
		t.Fatalf("machine has %d states, Figure 1 has 4:\n%s", got, m.Format(nil))
	}
	if m.Start != 0 {
		t.Fatalf("start state = %d, want 0", m.Start)
	}
	big, pay, buy := c.ids["BigBuy"], c.ids["after PayBill"], c.ids["after Buy"]

	wantTrans := func(state int32, ev event.ID, want int32) {
		t.Helper()
		if got := m.move(state, ev); got != want {
			t.Errorf("state %d on event %d -> %d, want %d\n%s", state, ev, got, want, m.Format(nil))
		}
	}
	// State 0: loops on BigBuy || after PayBill, moves to 1 on after Buy.
	if m.States[0].Mask != NoMask || m.States[0].Accept {
		t.Fatalf("state 0 should be a plain non-accept state")
	}
	wantTrans(0, big, 0)
	wantTrans(0, pay, 0)
	wantTrans(0, buy, 1)

	// State 1: mask state evaluating MoreCred; True -> 2, False -> 0.
	s1 := m.States[1]
	if s1.Mask == NoMask || m.Masks[s1.Mask] != "MoreCred" {
		t.Fatalf("state 1 is not the MoreCred mask state:\n%s", m.Format(nil))
	}
	if s1.OnTrue != 2 || s1.OnFalse != 0 {
		t.Fatalf("state 1 True->%d False->%d, want True->2 False->0", s1.OnTrue, s1.OnFalse)
	}
	if len(s1.Trans) != 0 {
		t.Fatalf("mask state 1 has %d basic transitions, want 0 (it does not wait for external events)", len(s1.Trans))
	}

	// State 2: loops on BigBuy || after Buy, accepts via after PayBill.
	if m.States[2].Mask != NoMask || m.States[2].Accept {
		t.Fatalf("state 2 should be a plain non-accept state")
	}
	wantTrans(2, big, 2)
	wantTrans(2, buy, 2)
	wantTrans(2, pay, 3)

	// State 3: the accept state.
	if !m.States[3].Accept {
		t.Fatalf("state 3 is not accepting:\n%s", m.Format(nil))
	}
}

func TestDenyCreditMachine(t *testing.T) {
	// after Buy & OverLimit: accepts exactly when a Buy is posted while
	// the mask holds.
	c := credCardClass()
	m := c.compile(t, "after Buy & OverLimit")

	c.masks["OverLimit"] = false
	if fired := run(t, c, m, "after Buy", "BigBuy", "after Buy"); len(fired) != 0 {
		t.Fatalf("fired at %v with mask false", fired)
	}
	c.masks["OverLimit"] = true
	if fired := run(t, c, m, "after PayBill", "after Buy"); len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired at %v, want [1]", fired)
	}
}

func TestAutoRaiseLimitBehaviour(t *testing.T) {
	c := credCardClass()
	m := c.compile(t, "relative((after Buy & MoreCred()), after PayBill)")

	// Mask false: the Buy never arms the pattern.
	c.masks["MoreCred"] = false
	if fired := run(t, c, m, "after Buy", "after PayBill"); len(fired) != 0 {
		t.Fatalf("fired at %v with MoreCred false", fired)
	}
	// Mask true: Buy arms; any later PayBill fires, even after noise.
	c.masks["MoreCred"] = true
	fired := run(t, c, m, "after Buy", "BigBuy", "BigBuy", "after PayBill")
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired at %v, want [3]", fired)
	}
}

func TestSequence(t *testing.T) {
	c := newTestClass(event.User("A"), event.User("B"), event.User("C"))
	m := c.compile(t, "A, B")
	if fired := run(t, c, m, "A", "B"); len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("A,B on [A B]: fired %v", fired)
	}
	// Unanchored: subsequence may start anywhere, but A,B means B
	// immediately after A in the stream of declared events.
	if fired := run(t, c, m, "A", "C", "B"); len(fired) != 0 {
		t.Fatalf("A,B on [A C B]: fired %v, want none (C breaks adjacency)", fired)
	}
	if fired := run(t, c, m, "C", "A", "B"); len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("A,B on [C A B]: fired %v, want [2]", fired)
	}
}

func TestUnion(t *testing.T) {
	c := newTestClass(event.User("A"), event.User("B"), event.User("C"))
	m := c.compile(t, "A || B")
	if fired := run(t, c, m, "C", "B"); len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired %v", fired)
	}
	if fired := run(t, c, m, "A"); len(fired) != 1 {
		t.Fatalf("fired %v", fired)
	}
}

func TestStarSequence(t *testing.T) {
	// A, *B, C: an A, then zero or more Bs, then a C.
	c := newTestClass(event.User("A"), event.User("B"), event.User("C"))
	m := c.compile(t, "A, *B, C")
	if fired := run(t, c, m, "A", "C"); len(fired) != 1 {
		t.Fatalf("zero Bs: fired %v", fired)
	}
	if fired := run(t, c, m, "A", "B", "B", "B", "C"); len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("three Bs: fired %v", fired)
	}
	if fired := run(t, c, m, "A", "B", "A", "C"); len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("restart inside: fired %v, want [3] (second A restarts)", fired)
	}
}

func TestAnchored(t *testing.T) {
	c := newTestClass(event.User("A"), event.User("B"))
	m := c.compile(t, "^A, B")
	if !m.Anchored {
		t.Fatal("machine not marked anchored")
	}
	if fired := run(t, c, m, "A", "B"); len(fired) != 1 {
		t.Fatalf("anchored exact match: fired %v", fired)
	}
	// A leading B kills the anchored match permanently (§5.1.1: "nothing
	// ignored").
	if fired := run(t, c, m, "B", "A", "B"); len(fired) != 0 {
		t.Fatalf("anchored with leading noise: fired %v, want none", fired)
	}
	// Trailing events after a dead anchored machine stay dead.
	if fired := run(t, c, m, "A", "A", "B", "A", "B"); len(fired) != 0 {
		t.Fatalf("anchored broken mid-match: fired %v, want none", fired)
	}
}

func TestUnknownEventsIgnored(t *testing.T) {
	// §5.4.3: an event with no transition is ignored — this is how a base
	// class trigger ignores derived-class events.
	c := newTestClass(event.User("A"), event.User("B"))
	m := c.compile(t, "A, B")
	derived := c.reg.Register("Derived", event.After("Extra"))

	st := m.Start
	st, acc, err := m.Advance(st, c.ids["A"], c.eval)
	if err != nil || acc {
		t.Fatalf("after A: acc=%v err=%v", acc, err)
	}
	mid := st
	st, acc, err = m.Advance(st, derived, c.eval)
	if err != nil {
		t.Fatal(err)
	}
	if acc || st != mid {
		t.Fatalf("derived event changed state %d -> %d (acc=%v), want ignored", mid, st, acc)
	}
	_, acc, err = m.Advance(st, c.ids["B"], c.eval)
	if err != nil || !acc {
		t.Fatalf("after ignored event, B should still complete: acc=%v err=%v", acc, err)
	}
}

func TestMaskCascade(t *testing.T) {
	// (A & m1) || (A & m2): one posting of A must evaluate both masks
	// (serialized into a chain of mask states) before quiescing.
	c := newTestClass(event.User("A"))
	c.masks["m1"] = false
	c.masks["m2"] = true
	m := c.compile(t, "(A & m1) || (A & m2)")

	c.evaled = nil
	fired := run(t, c, m, "A")
	if len(fired) != 1 {
		t.Fatalf("fired %v, want one fire via m2", fired)
	}
	if len(c.evaled) != 2 {
		t.Fatalf("evaluated masks %v, want both m1 and m2", c.evaled)
	}
	c.masks["m2"] = false
	if fired := run(t, c, m, "A"); len(fired) != 0 {
		t.Fatalf("fired %v with both masks false", fired)
	}
}

func TestStickyAcceptAcrossCascade(t *testing.T) {
	// A || (A & m): posting A accepts via the bare branch even when the
	// mask branch evaluates False afterwards — the accept must not be
	// lost while the cascade resolves.
	c := newTestClass(event.User("A"))
	c.masks["m"] = false
	m := c.compile(t, "A || (A & m)")
	if fired := run(t, c, m, "A"); len(fired) != 1 {
		t.Fatalf("fired %v, want [0] (bare branch accepts)", fired)
	}
}

func TestChainedMasks(t *testing.T) {
	// A & m1 & m2: both masks must hold.
	c := newTestClass(event.User("A"))
	c.masks["m1"], c.masks["m2"] = false, false
	m := c.compile(t, "A & m1 & m2")
	for _, tc := range []struct {
		m1, m2 bool
		want   int
	}{
		{true, true, 1},
		{true, false, 0},
		{false, true, 0},
		{false, false, 0},
	} {
		c.masks["m1"], c.masks["m2"] = tc.m1, tc.m2
		if fired := run(t, c, m, "A"); len(fired) != tc.want {
			t.Errorf("m1=%v m2=%v: fired %v, want %d fires", tc.m1, tc.m2, fired, tc.want)
		}
	}
}

func TestMaskEvalError(t *testing.T) {
	c := newTestClass(event.User("A"))
	c.masks["m"] = true
	m := c.compile(t, "A & m")
	wantErr := errors.New("boom")
	_, _, err := m.Advance(m.Start, c.ids["A"], func(string) (bool, error) {
		return false, wantErr
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("Advance error = %v, want wrapped boom", err)
	}
}

func TestAdvanceStateRangeError(t *testing.T) {
	c := newTestClass(event.User("A"))
	m := c.compile(t, "A")
	if _, _, err := m.Advance(99, c.ids["A"], c.eval); err == nil {
		t.Fatal("Advance(out-of-range) succeeded")
	}
}

func TestRepeatedDetection(t *testing.T) {
	// The machine keeps matching after an accept (the engine decides
	// whether to reset or deactivate; the machine itself continues).
	c := newTestClass(event.User("A"), event.User("B"))
	m := c.compile(t, "A, B")
	fired := run(t, c, m, "A", "B", "A", "B")
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
}

func TestOverlappingMatchesFireOncePerPosting(t *testing.T) {
	// Footnote 5: several patterns may match ending at the same event;
	// Advance reports a single accept per posting.
	c := newTestClass(event.User("A"), event.User("B"))
	m := c.compile(t, "(A, B) || B")
	fired := run(t, c, m, "A", "B")
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired %v, want exactly [1]", fired)
	}
}

func TestCompileErrors(t *testing.T) {
	c := newTestClass(event.User("A"))
	cases := []string{
		"Undeclared",        // event not declared
		"A & nosuchmask",    // mask not registered
		"after NotDeclared", // member event not declared
	}
	for _, src := range cases {
		if _, err := Compile(eventexpr.MustParse(src), c.options()); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		} else if _, ok := err.(*CompileError); !ok {
			t.Errorf("Compile(%q) error type %T, want *CompileError", src, err)
		}
	}
}

func TestCompileEmptyAlphabetWithAny(t *testing.T) {
	opts := Options{
		Resolve: func(n *eventexpr.Name) (event.ID, error) { return 5, nil },
	}
	if _, err := Compile(eventexpr.MustParse("A"), opts); err == nil {
		t.Fatal("unanchored expression with empty alphabet should fail")
	}
	// Anchored expressions without 'any' are fine with no alphabet.
	if _, err := Compile(eventexpr.MustParse("^A"), opts); err != nil {
		t.Fatalf("anchored compile failed: %v", err)
	}
}

func TestStartAccepts(t *testing.T) {
	c := newTestClass(event.User("A"))
	if m := c.compile(t, "^*A"); !m.StartAccepts() {
		t.Error("^*A should accept the empty stream")
	}
	if m := c.compile(t, "A"); m.StartAccepts() {
		t.Error("A should not accept the empty stream")
	}
}

func TestFormat(t *testing.T) {
	c := credCardClass()
	m := c.compile(t, "relative((after Buy & MoreCred()), after PayBill)")
	out := m.Format(c.describe)
	for _, want := range []string{
		"state 0 (start)",
		"*mask MoreCred: True -> 2, False -> 0",
		"after Buy -> 1",
		"state 3 (accept)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	// nil describe must not panic.
	if m.Format(nil) == "" {
		t.Error("Format(nil) empty")
	}
}

func TestTransactionEventInAlphabet(t *testing.T) {
	// A class may express interest in transaction events (§5.1); they
	// participate in expressions like any other basic event.
	c := newTestClass(event.User("A"), event.BeforeTComplete)
	m := c.compile(t, "A, before tcomplete")
	fired := run(t, c, m, "A", "before tcomplete")
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired %v, want [1]", fired)
	}
}

// --- sparse vs dense equivalence -----------------------------------------

// genSources is a pool of expressions exercising every operator.
var genSources = []string{
	"A",
	"A, B",
	"A || B",
	"*A, B",
	"A & m1",
	"A & m1 & m2",
	"(A & m1) || (B & m2)",
	"relative(A, B)",
	"relative((A & m1), B, C)",
	"^A, B, C",
	"(A || B), *C, A",
	"*(A, B), C",
	"relative((A & m1), (B & m2))",
}

func TestDenseEquivalence(t *testing.T) {
	// Property: for random expressions, mask settings, and streams, the
	// §6 dense matrix produces identical (state, accept) traces.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newTestClass(event.User("A"), event.User("B"), event.User("C"))
		c.masks["m1"] = r.Intn(2) == 0
		c.masks["m2"] = r.Intn(2) == 0
		src := genSources[r.Intn(len(genSources))]
		m, err := Compile(eventexpr.MustParse(src), c.options())
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		d := newDenseIndexed(m, event.ID(c.reg.Len()))

		// X is registered after the matrix is built, so it indexes past
		// its width: both representations must ignore it.
		evs := []event.ID{c.ids["A"], c.ids["B"], c.ids["C"], c.reg.Register("X", event.User("X"))}
		sSt, dSt := m.Start, m.Start
		for i := 0; i < 40; i++ {
			// Flip masks mid-stream sometimes.
			if r.Intn(10) == 0 {
				c.masks["m1"] = !c.masks["m1"]
			}
			ev := evs[r.Intn(len(evs))]
			s2, sAcc, err1 := m.Advance(sSt, ev, c.eval)
			d2, dAcc, err2 := d.Advance(dSt, ev, c.eval)
			if (err1 == nil) != (err2 == nil) {
				t.Logf("%q: error divergence: %v vs %v", src, err1, err2)
				return false
			}
			if s2 != d2 || sAcc != dAcc {
				t.Logf("%q: divergence at step %d: sparse (%d,%v) dense (%d,%v)", src, i, s2, sAcc, d2, dAcc)
				return false
			}
			sSt, dSt = s2, d2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseAdvanceStateRangeError(t *testing.T) {
	c := newTestClass(event.User("A"))
	d := newDenseIndexed(c.compile(t, "A"), event.ID(c.reg.Len()))
	if _, _, err := d.Advance(99, c.ids["A"], c.eval); err == nil {
		t.Fatal("dense Advance(out-of-range) succeeded")
	}
}

func TestMachinesAreShared(t *testing.T) {
	// §5.1.3: FSM data is shared; per-activation state is one int32. The
	// machine must therefore be stateless across Advance calls — verify
	// interleaving two "activations" over one machine.
	c := newTestClass(event.User("A"), event.User("B"))
	m := c.compile(t, "A, B")
	st1, st2 := m.Start, m.Start
	var err error
	st1, _, err = m.Advance(st1, c.ids["A"], c.eval)
	if err != nil {
		t.Fatal(err)
	}
	// Activation 2 sees B first: must stay unarmed.
	var acc bool
	st2, acc, err = m.Advance(st2, c.ids["B"], c.eval)
	if err != nil || acc {
		t.Fatalf("activation 2 accepted prematurely")
	}
	_, acc, err = m.Advance(st1, c.ids["B"], c.eval)
	if err != nil || !acc {
		t.Fatalf("activation 1 should fire: acc=%v err=%v", acc, err)
	}
	_, acc, err = m.Advance(st2, c.ids["B"], c.eval)
	if err != nil || acc {
		t.Fatalf("activation 2 should still be unarmed")
	}
}
