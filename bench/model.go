package main

import (
	"fmt"

	"ode/internal/core"
	"ode/internal/event"
	"ode/internal/fsm"
	"ode/internal/storage/dali"
)

// opKind is one step of a generated transaction.
type opKind uint8

const (
	opBuy      opKind = iota // invoke Buy(amount)
	opPay                    // invoke PayBill(amount)
	opBigBuy                 // post the BigBuy user event
	opQuery                  // invoke the read-only GoodCredHist
	opKick                   // post Kick: Chain forwards First to the card's target
	opGet                    // read the object (snapshot transactions)
	opActivate               // re-activate AutoRaiseLimit after it fired
)

type op struct {
	kind   opKind
	card   int32
	amount float64
}

// posted maps an op to the basic event it posts (index into model.ev),
// or -1.
var posted = [...]int{opBuy: 0, opPay: 1, opBigBuy: 2, opQuery: 3, opKick: 4, opGet: -1, opActivate: -1}

var postedSpelling = [...]string{"after Buy", "after PayBill", "BigBuy", "after GoodCredHist", "Kick"}

// trigKind is what a trigger's action does, as far as the model cares.
type trigKind uint8

const (
	kindStamp trigKind = iota
	kindDeny
	kindRaise
	kindChain
)

type modelTrig struct {
	m         *fsm.Machine
	kind      trigKind
	perpetual bool
	coupling  core.Coupling
	arg       float64
}

// cardState is the model's view of one card. states[k] is activation k's
// FSM state, -1 once a once-only trigger has fired and deactivated.
type cardState struct {
	bal, lim float64
	raises   int
	kicks    int // committed Kick postings: the target must hold this many stamps
	stamps   int // stamping actions that committed on this card
	states   []int32
}

// model is the generator's oracle. It knows the §4 arithmetic and drives
// every activation's state with the bare compiled FSM — no object
// manager, locks, transactions or storage — so it predicts, for a
// serial history, which transactions abort, what every object holds
// afterwards and how many trigger actions ran under each coupling. The
// engine must agree exactly: a trigger state that survives a rollback, a
// firing that happens twice or a perpetual trigger that fails to re-arm
// shows up as a mismatch.
type model struct {
	trigs []modelTrig
	ev    [5]event.ID
	cards []cardState

	// fires counts trigger actions the engine should have run, by
	// coupling, and advances the bare-FSM calls made (the floor under
	// the engine's posting cost).
	fires    [4]uint64
	advances uint64
	replayNs int64 // how long replaying the executed transactions took

	cur      *cardState
	eval     fsm.MaskEval
	touched  []int32
	saved    []cardState
	doomed   bool
	pending  [4]uint64 // fires of the open transaction
	reraised []int32   // cards whose AutoRaiseLimit fired in the open transaction
}

// schemaMachines registers the schema in a throwaway main-memory
// database to obtain the compiled machines and event IDs.
func schemaMachines() (*core.BoundClass, error) {
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		return nil, err
	}
	if err := db.Register(credCardClass(wallStamp)); err != nil {
		return nil, err
	}
	bc, _ := db.ClassOf("CredCard")
	return bc, nil
}

func newModel(bc *core.BoundClass, acts []activation, cards int, lim float64) (*model, error) {
	m := &model{cards: make([]cardState, cards)}
	for i, key := range postedSpelling {
		id, ok := bc.EventID(key)
		if !ok {
			return nil, fmt.Errorf("model: event %q not declared", key)
		}
		m.ev[i] = id
	}
	for _, a := range acts {
		bt, ok := bc.TriggerByName(a.trigger)
		if !ok {
			return nil, fmt.Errorf("model: trigger %q not declared", a.trigger)
		}
		t := modelTrig{m: bt.Machine, perpetual: bt.Def.Perpetual, coupling: bt.Def.Coupling}
		switch a.trigger {
		case "DenyCredit":
			t.kind = kindDeny
		case "AutoRaiseLimit":
			t.kind = kindRaise
			t.arg = a.args[0].(float64)
		case "Chain":
			t.kind = kindChain
		}
		m.trigs = append(m.trigs, t)
	}
	backing := make([]int32, cards*len(acts))
	for i := range m.cards {
		c := &m.cards[i]
		c.lim = lim
		c.states = backing[i*len(acts) : (i+1)*len(acts) : (i+1)*len(acts)]
		for k, t := range m.trigs {
			c.states[k] = t.m.Start
		}
	}
	m.eval = func(name string) (bool, error) {
		switch name {
		case "OverLimit":
			return m.cur.bal > m.cur.lim, nil
		case "MoreCred":
			return m.cur.bal > 0.8*m.cur.lim, nil // every card has GoodHist
		}
		return false, fmt.Errorf("model: unknown mask %q", name)
	}
	return m, nil
}

// touch saves card i's state the first time the open transaction
// reaches it, so an abort can restore it.
func (m *model) touch(i int32) *cardState {
	c := &m.cards[i]
	for _, t := range m.touched {
		if t == i {
			return c
		}
	}
	m.touched = append(m.touched, i)
	s := *c
	s.states = append([]int32(nil), c.states...)
	m.saved = append(m.saved, s)
	return c
}

// apply runs one op of the open transaction.
func (m *model) apply(o op) error {
	c := m.touch(o.card)
	switch o.kind {
	case opBuy:
		c.bal += o.amount
	case opPay:
		c.bal -= o.amount
	case opActivate:
		for k, t := range m.trigs {
			if t.kind == kindRaise && c.states[k] < 0 {
				c.states[k] = t.m.Start
			}
		}
	}
	e := posted[o.kind]
	if e < 0 {
		return nil
	}
	m.cur = c
	// As in the engine, every activation sees the event before any
	// action runs; no action here changes what a mask reads.
	var raise float64
	for k := range m.trigs {
		t := &m.trigs[k]
		if c.states[k] < 0 {
			continue
		}
		m.advances++
		next, accepted, err := t.m.Advance(c.states[k], m.ev[e], m.eval)
		if err != nil {
			return err
		}
		if !accepted {
			c.states[k] = next
			continue
		}
		if t.perpetual {
			c.states[k] = t.m.Start
		} else {
			c.states[k] = -1
		}
		m.pending[t.coupling]++
		switch t.kind {
		case kindDeny:
			m.doomed = true
		case kindRaise:
			raise += t.arg
			c.raises++
			c.stamps++
			m.reraised = append(m.reraised, o.card)
		case kindChain:
			c.kicks++ // Chain does not stamp; its effect is the remote posting
		case kindStamp:
			c.stamps++
		}
	}
	c.lim += raise
	return nil
}

// end closes the open transaction and reports whether it aborted. An
// abort restores every touched card; immediate actions already ran and
// !dependent ones still run, so both count, while end and dependent
// actions of an aborted transaction never run.
func (m *model) end() (aborted bool) {
	aborted = m.doomed
	if aborted {
		for k, i := range m.touched {
			copy(m.cards[i].states, m.saved[k].states)
			states := m.cards[i].states
			m.cards[i] = m.saved[k]
			m.cards[i].states = states
		}
		m.fires[core.Immediate] += m.pending[core.Immediate]
		m.fires[core.Independent] += m.pending[core.Independent]
	} else {
		for c, n := range m.pending {
			m.fires[c] += n
		}
	}
	m.touched, m.saved, m.reraised = m.touched[:0], m.saved[:0], m.reraised[:0]
	m.doomed = false
	m.pending = [4]uint64{}
	return aborted
}
