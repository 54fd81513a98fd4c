// Package fsm compiles Ode event expressions into the extended finite
// state machines of paper §5.1 and executes them.
//
// The construction is a position (Glushkov) automaton over the desugared
// expression, determinized by subset construction. Masks extend the
// machinery exactly as §5.1.2 describes: a mask occurrence becomes a
// pseudo-position whose "symbol" is the pseudo-event True; a DFA state
// whose candidate set contains a pending mask position is a *mask state*
// (the states marked with "*" in the paper's Figure 1). A mask state does
// not wait for external events: the run-time evaluates the mask predicate
// and feeds the resulting True/False pseudo-event to the machine, possibly
// cascading through several mask states before quiescing (§5.4.5 step b).
// Pseudo-events are consumed only by mask positions; every other candidate
// position is carried through unchanged, which is what produces Figure 1's
// "False → state 0" edge.
//
// Per §5.4.3, an event with no transition from the current state is
// ignored (the machine stays put). This both keeps transition lists sparse
// and lets base-class triggers ignore derived-class events.
package fsm

import (
	"fmt"
	"sort"
	"strings"

	"ode/internal/event"
	"ode/internal/eventexpr"
)

// NoMask marks a state with no mask to evaluate (§5.4.3's NoMask).
const NoMask = -1

// Dead is the sentinel for "no successor": returned only inside anchored
// machines, where a mismatching event kills the match permanently. The
// dead state is a real state with no transitions.
//
// Transition is one entry of a state's sparse transition list (§5.4.3):
// when Event is posted in the owning state, move to Next.
type Transition struct {
	Event event.ID
	Next  int32
}

// State is one state of a compiled machine, mirroring the paper's State
// class (§5.4.3): a state number (its index), an accept flag, the mask to
// evaluate (or NoMask), and the transition list. Mask states additionally
// carry the two pseudo-event successors.
type State struct {
	Accept bool
	// Mask is the index into Machine.Masks of the predicate this state
	// must evaluate, or NoMask. A mask state has no Trans entries; it
	// consumes only the True/False pseudo-events.
	Mask int
	// OnTrue and OnFalse are the successors for the pseudo-events when
	// Mask != NoMask.
	OnTrue, OnFalse int32
	// AcceptOnTrue reports whether consuming the True pseudo-event
	// completes the expression (e.g. "after Buy & OverLimit" accepts
	// exactly when the mask holds).
	AcceptOnTrue bool
	// Trans is the sparse, Event-sorted transition list.
	Trans []Transition
}

// Machine is a compiled extended FSM. It is immutable after compilation
// and shared by all objects of the class that declared the trigger
// (§5.1.3): per-activation state is just an integer state number held in
// the TriggerState.
type Machine struct {
	States []State
	// Start is the initial state number (always 0 by construction).
	Start int32
	// Masks maps mask occurrence index → registered predicate name, in
	// left-to-right occurrence order.
	Masks []string
	// Alphabet is the effective alphabet the machine was compiled over
	// (sorted). Events outside it are ignored at run time.
	Alphabet []event.ID
	// Anchored records whether the source expression was ^-anchored
	// (§5.1.1), i.e. compiled without the (*any) prefix.
	Anchored bool
	// Source is the original expression text, for diagnostics.
	Source string
}

// Options configures compilation.
type Options struct {
	// Resolve maps an event reference in the expression to its unique
	// run-time ID (§5.2). It must reject events not declared by the class
	// (§4: all events of interest must be declared).
	Resolve func(n *eventexpr.Name) (event.ID, error)
	// Alphabet is the class's declared event alphabet (§5.1: "The basic
	// events included in the event declaration for a class constitute the
	// alphabet"). It is required whenever the expression uses "any",
	// including the implicit (*any) prefix of unanchored expressions.
	Alphabet []event.ID
	// MaskExists validates a mask predicate reference; nil accepts all.
	MaskExists func(name string) error
	// noDominance disables the redundant-mask elimination rule during
	// subset construction (the rule that keeps Figure 1 at four states).
	// Without it the machine is still behaviourally correct — extra mask
	// states evaluate predicates whose outcome cannot matter — but
	// larger and slower. Set only by the package's ablation tests.
	noDominance bool
}

// CompileError reports a semantic error found while compiling an event
// expression (unknown event, unknown mask, empty alphabet, …).
type CompileError struct {
	Source string
	Msg    string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("compile event expression %q: %s", e.Source, e.Msg)
}

// symKind classifies a position in the Glushkov construction.
type symKind uint8

const (
	symEvent symKind = iota // a specific basic event
	symAny                  // matches any event in the class alphabet
	symMask                 // a pending mask evaluation (pseudo-event True)
)

// position is one leaf occurrence of the desugared expression.
type position struct {
	kind symKind
	ev   event.ID // symEvent only
	mask int      // symMask only: occurrence index into Machine.Masks
}

// builder accumulates Glushkov construction state.
type builder struct {
	opts   Options
	src    string
	pos    []position
	follow [][]int32
	masks  []string
	err    error
}

// glu is the nullable/first/last triple computed bottom-up.
type glu struct {
	nullable    bool
	first, last []int32
}

// Compile translates a parsed event expression into an extended FSM.
// Unless the expression is anchored, (*any) is prepended per §5.1.1 so the
// machine searches for matching subsequences anywhere in the event stream.
func Compile(p *eventexpr.Parsed, opts Options) (*Machine, error) {
	b := &builder{opts: opts, src: p.Source}
	expr := eventexpr.Desugar(p.Expr)
	if !p.Anchored {
		expr = &eventexpr.Seq{Left: &eventexpr.Star{Sub: &eventexpr.Any{}}, Right: expr}
	}
	if usesAny(expr) && len(opts.Alphabet) == 0 {
		return nil, &CompileError{p.Source, "expression uses 'any' (or is unanchored) but the class alphabet is empty"}
	}
	g := b.build(expr)
	if b.err != nil {
		return nil, b.err
	}
	m := b.determinize(g, p.Anchored)
	m.Source = p.Source
	return m, nil
}

func usesAny(e eventexpr.Expr) bool {
	switch e := e.(type) {
	case *eventexpr.Any:
		return true
	case *eventexpr.Seq:
		return usesAny(e.Left) || usesAny(e.Right)
	case *eventexpr.Or:
		return usesAny(e.Left) || usesAny(e.Right)
	case *eventexpr.Star:
		return usesAny(e.Sub)
	case *eventexpr.Mask:
		return usesAny(e.Sub)
	default:
		return false
	}
}

// addPos appends a new position and returns its index.
func (b *builder) addPos(p position) int32 {
	b.pos = append(b.pos, p)
	b.follow = append(b.follow, nil)
	return int32(len(b.pos) - 1)
}

// build runs the standard nullable/first/last/follow computation. Mask
// nodes are treated as Seq(Sub, maskLeaf): the mask must be evaluated
// after the sub-expression completes, so the mask position follows Sub's
// last positions.
func (b *builder) build(e eventexpr.Expr) glu {
	switch e := e.(type) {
	case *eventexpr.Name:
		id, err := b.opts.Resolve(e)
		if err != nil && b.err == nil {
			b.err = &CompileError{b.src, err.Error()}
		}
		i := b.addPos(position{kind: symEvent, ev: id})
		return glu{false, []int32{i}, []int32{i}}
	case *eventexpr.Any:
		i := b.addPos(position{kind: symAny})
		return glu{false, []int32{i}, []int32{i}}
	case *eventexpr.Seq:
		l := b.build(e.Left)
		r := b.build(e.Right)
		return b.seq(l, r)
	case *eventexpr.Or:
		l := b.build(e.Left)
		r := b.build(e.Right)
		return glu{
			nullable: l.nullable || r.nullable,
			first:    union(l.first, r.first),
			last:     union(l.last, r.last),
		}
	case *eventexpr.Star:
		s := b.build(e.Sub)
		for _, p := range s.last {
			b.follow[p] = union(b.follow[p], s.first)
		}
		return glu{true, s.first, s.last}
	case *eventexpr.Mask:
		s := b.build(e.Sub)
		if b.opts.MaskExists != nil {
			if err := b.opts.MaskExists(e.Name); err != nil && b.err == nil {
				b.err = &CompileError{b.src, err.Error()}
			}
		}
		occ := len(b.masks)
		b.masks = append(b.masks, e.Name)
		i := b.addPos(position{kind: symMask, mask: occ})
		leaf := glu{false, []int32{i}, []int32{i}}
		return b.seq(s, leaf)
	default:
		// Relative was desugared; anything else is a bug.
		panic(fmt.Sprintf("fsm: unexpected node %T after desugaring", e))
	}
}

// seq composes two glu values as a sequence, updating follow sets.
func (b *builder) seq(l, r glu) glu {
	for _, p := range l.last {
		b.follow[p] = union(b.follow[p], r.first)
	}
	g := glu{nullable: l.nullable && r.nullable}
	if l.nullable {
		g.first = union(l.first, r.first)
	} else {
		g.first = l.first
	}
	if r.nullable {
		g.last = union(l.last, r.last)
	} else {
		g.last = r.last
	}
	return g
}

// union merges two sorted position sets.
func union(a, c []int32) []int32 {
	out := make([]int32, 0, len(a)+len(c))
	i, j := 0, 0
	for i < len(a) && j < len(c) {
		switch {
		case a[i] < c[j]:
			out = append(out, a[i])
			i++
		case a[i] > c[j]:
			out = append(out, c[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, c[j:]...)
	return out
}

// dfaKey identifies a DFA state: candidate position set + accept flag.
type dfaKey string

func makeKey(set []int32, accept bool) dfaKey {
	var sb strings.Builder
	if accept {
		sb.WriteByte('A')
	}
	for _, p := range set {
		fmt.Fprintf(&sb, ".%d", p)
	}
	return dfaKey(sb.String())
}

// determinize runs subset construction over candidate-position sets. A DFA
// state's set holds the positions that may consume the *next* symbol;
// the accept flag records whether the consumption that entered the state
// completed the expression.
func (b *builder) determinize(g glu, anchored bool) *Machine {
	lastSet := make(map[int32]bool, len(g.last))
	for _, p := range g.last {
		lastSet[p] = true
	}

	// Effective alphabet: every event mentioned in the expression plus
	// the whole class alphabet when any-positions exist — and also for
	// anchored machines, where §5.1.1's "nothing ignored" means every
	// declared event must participate (killing the match if unmatched)
	// rather than being skipped.
	alpha := map[event.ID]bool{}
	hasAny := false
	for _, p := range b.pos {
		switch p.kind {
		case symEvent:
			alpha[p.ev] = true
		case symAny:
			hasAny = true
		}
	}
	if hasAny || anchored {
		for _, id := range b.opts.Alphabet {
			alpha[id] = true
		}
	}
	alphabet := make([]event.ID, 0, len(alpha))
	for id := range alpha {
		alphabet = append(alphabet, id)
	}
	sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })

	m := &Machine{Masks: b.masks, Alphabet: alphabet, Anchored: anchored}

	// normalize drops redundant mask positions: a pending mask whose
	// entire follow set is already a candidate, and whose consumption
	// cannot itself accept, changes nothing whichever way it evaluates.
	// This is what keeps Figure 1 at four states instead of spawning a
	// second (behaviourally identical) mask state from state 2.
	normalize := func(set []int32) []int32 {
		if b.opts.noDominance {
			return set
		}
		out := set
		for _, p := range set {
			if b.pos[p].kind != symMask || lastSet[p] {
				continue
			}
			if subset(b.follow[p], out) {
				out = remove(out, p)
			}
		}
		return out
	}

	states := make(map[dfaKey]int32)
	var sets [][]int32
	var work []int32

	intern := func(set []int32, accept bool) int32 {
		k := makeKey(set, accept)
		if id, ok := states[k]; ok {
			return id
		}
		id := int32(len(m.States))
		states[k] = id
		m.States = append(m.States, State{Accept: accept, Mask: NoMask, OnTrue: -1, OnFalse: -1})
		sets = append(sets, set)
		work = append(work, id)
		return id
	}

	start := intern(normalize(g.first), g.nullable)
	m.Start = start

	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		set := sets[id]

		// Pending masks? The state becomes a mask state evaluating the
		// lowest-numbered occurrence (§5.4.3: one MaskFunction per state;
		// several pending masks serialize into a chain of mask states).
		maskPos := int32(-1)
		for _, p := range set {
			if b.pos[p].kind == symMask {
				if maskPos < 0 || b.pos[p].mask < b.pos[maskPos].mask {
					maskPos = p
				}
			}
		}
		if maskPos >= 0 {
			trueSet := normalize(union(remove(set, maskPos), b.follow[maskPos]))
			falseSet := normalize(remove(set, maskPos))
			// Note: the accept flag of the True successor reflects the
			// pseudo-event consumption (a mask position can complete the
			// expression, as in "after Buy & OverLimit"); the run-time
			// keeps a sticky "accepted during this posting" flag so that
			// a basic-event accept is not lost while the cascade resolves
			// (§5.4.5 footnote 5: at most one firing per posting).
			onTrue := intern(trueSet, lastSet[maskPos])
			onFalse := intern(falseSet, false)
			st := &m.States[id] // take after intern: it may grow the slice
			st.Mask = b.pos[maskPos].mask
			st.AcceptOnTrue = lastSet[maskPos]
			st.OnTrue = onTrue
			st.OnFalse = onFalse
			continue
		}

		// Ordinary state: one transition per alphabet symbol with a
		// non-empty move. Anchored machines route dead moves to an
		// explicit empty state; unanchored machines always retain the
		// (*any)-prefix position, so moves are never empty.
		if len(set) == 0 {
			continue // dead state: no transitions, every event ignored
		}
		var trans []Transition
		for _, a := range alphabet {
			var next []int32
			accept := false
			for _, p := range set {
				pp := b.pos[p]
				if pp.kind == symMask {
					continue // masks never consume basic events
				}
				if pp.kind == symAny || pp.ev == a {
					next = union(next, b.follow[p])
					if lastSet[p] {
						accept = true
					}
				}
			}
			if len(next) == 0 && !accept {
				if !anchored {
					continue // cannot happen; defensive
				}
				dead := intern(nil, false)
				trans = append(trans, Transition{a, dead})
				continue
			}
			nid := intern(normalize(next), accept)
			trans = append(trans, Transition{a, nid})
		}
		m.States[id].Trans = trans
	}
	return m
}

// subset reports whether every element of a (sorted) is in c (sorted).
func subset(a, c []int32) bool {
	j := 0
	for _, x := range a {
		for j < len(c) && c[j] < x {
			j++
		}
		if j >= len(c) || c[j] != x {
			return false
		}
	}
	return true
}

// remove returns set without p (set is sorted; result is a fresh slice).
func remove(set []int32, p int32) []int32 {
	out := make([]int32, 0, len(set)-1)
	for _, x := range set {
		if x != p {
			out = append(out, x)
		}
	}
	return out
}

// NumStates reports the number of DFA states.
func (m *Machine) NumStates() int { return len(m.States) }

// move performs one raw transition on a basic event, honouring the
// ignore-unknown rule of §5.4.3. It must not be called on a mask state.
func (m *Machine) move(state int32, ev event.ID) int32 {
	trans := m.States[state].Trans
	// Binary search: transition lists are sorted by construction
	// (alphabet iterated in sorted order).
	lo, hi := 0, len(trans)
	for lo < hi {
		mid := (lo + hi) / 2
		if trans[mid].Event < ev {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(trans) && trans[lo].Event == ev {
		return trans[lo].Next
	}
	return state // ignored: stay (§5.4.3)
}

// MaskEval evaluates a named mask predicate for a particular trigger
// activation. It is supplied by the trigger engine when advancing.
type MaskEval func(maskName string) (bool, error)

// TraceFn observes each raw transition taken while advancing: first the
// basic-event move (mask == "", outcome unused), then one call per
// mask-cascade step with the evaluated predicate's name and outcome (the
// True/False pseudo-event of §5.1.2). An ignored event produces no
// calls. Supplied by the observability layer for sampled firing traces.
type TraceFn func(from, to int32, mask string, outcome bool)

// Advance feeds one basic event to the machine from the given state and
// resolves any resulting mask cascade to quiescence (§5.4.5 steps a–c).
// It returns the quiesced state and whether an accept state was reached at
// any point during this posting (the sticky accept of footnote 5).
func (m *Machine) Advance(state int32, ev event.ID, eval MaskEval) (next int32, accepted bool, err error) {
	return m.AdvanceTraced(state, ev, eval, nil)
}

// AdvanceTraced is Advance with an optional transition observer; trace
// may be nil, which makes it exactly Advance.
func (m *Machine) AdvanceTraced(state int32, ev event.ID, eval MaskEval, trace TraceFn) (next int32, accepted bool, err error) {
	if int(state) < 0 || int(state) >= len(m.States) {
		return state, false, fmt.Errorf("fsm: state %d out of range [0,%d)", state, len(m.States))
	}
	if m.States[state].Mask != NoMask {
		return state, false, fmt.Errorf("fsm: Advance called on unquiesced mask state %d", state)
	}
	cur := m.move(state, ev)
	if cur == state && !m.hasTransition(state, ev) {
		// Event ignored entirely: no state change, no mask cascade, no
		// accept — and, importantly for the engine, no write to the
		// trigger state is needed.
		return state, false, nil
	}
	if trace != nil {
		trace(state, cur, "", false)
	}
	accepted = m.States[cur].Accept
	// Mask cascade: "Potentially, multiple mask events must be posted
	// before the system quiesces" (§5.4.5).
	for m.States[cur].Mask != NoMask {
		st := m.States[cur]
		v, err := eval(m.Masks[st.Mask])
		if err != nil {
			return cur, accepted, fmt.Errorf("fsm: mask %q: %w", m.Masks[st.Mask], err)
		}
		from := cur
		if v {
			cur = st.OnTrue
		} else {
			cur = st.OnFalse
		}
		if trace != nil {
			trace(from, cur, m.Masks[st.Mask], v)
		}
		if m.States[cur].Accept {
			accepted = true
		}
	}
	return cur, accepted, nil
}

// Settle resolves a mask cascade starting at state without consuming a
// basic event. It is needed at trigger activation when the expression's
// first position is a mask (e.g. "(*A & m), B" evaluates m immediately).
// It returns the quiesced state and whether an accept state was reached
// during the cascade.
func (m *Machine) Settle(state int32, eval MaskEval) (int32, bool, error) {
	if int(state) < 0 || int(state) >= len(m.States) {
		return state, false, fmt.Errorf("fsm: state %d out of range [0,%d)", state, len(m.States))
	}
	cur := state
	accepted := m.States[cur].Accept
	for m.States[cur].Mask != NoMask {
		st := m.States[cur]
		v, err := eval(m.Masks[st.Mask])
		if err != nil {
			return cur, accepted, fmt.Errorf("fsm: mask %q: %w", m.Masks[st.Mask], err)
		}
		if v {
			cur = st.OnTrue
		} else {
			cur = st.OnFalse
		}
		if m.States[cur].Accept {
			accepted = true
		}
	}
	return cur, accepted, nil
}

// hasTransition reports whether state has an explicit transition on ev.
func (m *Machine) hasTransition(state int32, ev event.ID) bool {
	for _, t := range m.States[state].Trans {
		if t.Event == ev {
			return true
		}
		if t.Event > ev {
			return false
		}
	}
	return false
}

// StartAccepts reports whether the machine accepts the empty stream (a
// nullable expression); the trigger engine checks this at activation.
func (m *Machine) StartAccepts() bool { return m.States[m.Start].Accept }

// Format renders the machine in a human-readable form used by tests and
// the ode-inspect tool, one state per line:
//
//	state 0 (start): after Buy -> 1, BigBuy -> 0, after PayBill -> 0
//	state 1 *mask MoreCred: True -> 2, False -> 0
//	state 3 (accept):
func (m *Machine) Format(describe func(event.ID) string) string {
	if describe == nil {
		describe = func(id event.ID) string { return fmt.Sprintf("e%d", id) }
	}
	var sb strings.Builder
	for i, st := range m.States {
		fmt.Fprintf(&sb, "state %d", i)
		if int32(i) == m.Start {
			sb.WriteString(" (start)")
		}
		if st.Accept {
			sb.WriteString(" (accept)")
		}
		if st.Mask != NoMask {
			fmt.Fprintf(&sb, " *mask %s: True -> %d, False -> %d", m.Masks[st.Mask], st.OnTrue, st.OnFalse)
		} else {
			sb.WriteString(":")
			for j, t := range st.Trans {
				if j > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, " %s -> %d", describe(t.Event), t.Next)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
