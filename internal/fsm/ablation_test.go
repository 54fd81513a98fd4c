package fsm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ode/internal/event"
	"ode/internal/eventexpr"
)

// TestDominanceRuleShrinksFigure1 is the ablation for the redundant-mask
// elimination rule (DESIGN.md §5): without it, the AutoRaiseLimit machine
// grows beyond Figure 1's four states (the armed region keeps spawning
// behaviourally-irrelevant mask states); with it, the paper's machine is
// reproduced exactly.
func TestDominanceRuleShrinksFigure1(t *testing.T) {
	c := credCardClass()
	src := "relative((after Buy & MoreCred()), after PayBill)"
	with := c.compile(t, src)

	opts := c.options()
	opts.noDominance = true
	without, err := Compile(eventexpr.MustParse(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if with.NumStates() != 4 {
		t.Fatalf("with dominance: %d states, want 4", with.NumStates())
	}
	if without.NumStates() <= with.NumStates() {
		t.Fatalf("ablation: without dominance %d states, with %d — the rule should shrink the machine",
			without.NumStates(), with.NumStates())
	}
	t.Logf("Figure 1 machine: %d states with dominance, %d without", with.NumStates(), without.NumStates())
}

// TestDominanceBehaviourEquivalence: the rule is a pure optimization —
// both machines accept identically on every stream (with masks held
// constant per posting, which is how the engine evaluates them).
func TestDominanceBehaviourEquivalence(t *testing.T) {
	srcs := []string{
		"relative((after Buy & MoreCred()), after PayBill)",
		"after Buy & OverLimit",
		"(after Buy & MoreCred()) || (after PayBill & OverLimit)",
		"*(after Buy & MoreCred()), BigBuy",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := credCardClass()
		c.masks["MoreCred"] = r.Intn(2) == 0
		c.masks["OverLimit"] = r.Intn(2) == 0
		src := srcs[r.Intn(len(srcs))]

		with := c.compile(t, src)
		opts := c.options()
		opts.noDominance = true
		without, err := Compile(eventexpr.MustParse(src), opts)
		if err != nil {
			t.Fatal(err)
		}

		evs := []event.ID{c.ids["BigBuy"], c.ids["after PayBill"], c.ids["after Buy"]}
		s1, s2 := with.Start, without.Start
		for i := 0; i < 40; i++ {
			if r.Intn(8) == 0 {
				c.masks["MoreCred"] = !c.masks["MoreCred"]
			}
			ev := evs[r.Intn(len(evs))]
			n1, a1, err1 := with.Advance(s1, ev, c.eval)
			n2, a2, err2 := without.Advance(s2, ev, c.eval)
			if (err1 == nil) != (err2 == nil) || a1 != a2 {
				t.Logf("%q step %d: with=(%d,%v,%v) without=(%d,%v,%v)", src, i, n1, a1, err1, n2, a2, err2)
				return false
			}
			s1, s2 = n1, n2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDominanceOn/Off measure the advance cost of the two machines
// on the Figure 1 expression — the ablation's runtime side.
func benchDominance(b *testing.B, noDominance bool) {
	c := credCardClass()
	c.masks["MoreCred"] = true
	opts := c.options()
	opts.noDominance = noDominance
	m, err := Compile(eventexpr.MustParse("relative((after Buy & MoreCred()), after PayBill)"), opts)
	if err != nil {
		b.Fatal(err)
	}
	evs := []event.ID{c.ids["BigBuy"], c.ids["after PayBill"], c.ids["after Buy"]}
	eval := func(string) (bool, error) { return true, nil }
	st := m.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _ = m.Advance(st, evs[i%3], eval)
	}
}

func BenchmarkDominanceOn(b *testing.B)  { benchDominance(b, false) }
func BenchmarkDominanceOff(b *testing.B) { benchDominance(b, true) }

// TestSettle covers the activation-time mask resolution helper.
func TestSettle(t *testing.T) {
	c := newTestClass(event.User("A"), event.User("B"))
	c.masks["m"] = true
	// ^(*A & m), B: the start state is a mask state (Sub is nullable).
	m := c.compile(t, "^(*A & m), B")
	if m.States[m.Start].Mask == NoMask {
		t.Skip("construction did not yield a mask start state for this expression")
	}
	settled, accepted, err := m.Settle(m.Start, c.eval)
	if err != nil {
		t.Fatal(err)
	}
	if m.States[settled].Mask != NoMask {
		t.Fatal("Settle left a pending mask")
	}
	if accepted {
		t.Fatal("Settle accepted without consuming input")
	}
	// Out-of-range state errors.
	if _, _, err := m.Settle(99, c.eval); err == nil {
		t.Fatal("Settle(out-of-range) succeeded")
	}
	// Settling a non-mask state is a no-op.
	if s2, _, err := m.Settle(settled, c.eval); err != nil || s2 != settled {
		t.Fatalf("no-op settle: %d, %v", s2, err)
	}
}
