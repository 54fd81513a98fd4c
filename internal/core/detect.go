package core

import (
	"ode/internal/event"
	"ode/internal/fsm"
)

// deadState is a once-only activation's state after it fired.
const deadState int32 = -1

// detectAct is one live activation as detect sees it: its machine, its
// current state and whether it is perpetual.
type detectAct struct {
	m         *fsm.Machine
	state     int32
	perpetual bool
}

// outcome is what one posting did to one activation. state has the
// disposition applied: startOf the machine for a fired perpetual
// activation, deadState for a fired once-only one.
type outcome struct {
	state int32
	fired bool
}

// detect is detection for one posting of ev (§5.4.5): it advances every
// activation, resolving its mask cascade, and gives each one that
// accepted its disposition. It touches no storage, takes no locks, reads
// no clock and writes nothing, so the caller settles every outcome before
// any action of the posting runs. mask(i, name) evaluates activation i's
// named mask; trace, nil unless the posting is sampled, observes
// activation i's transitions, the mask steps of a perpetual restart
// included. The outcomes are in input order.
func detect(acts []detectAct, ev event.ID, mask func(i int, name string) (bool, error), trace func(i int, from, to int32, mask string, outcome bool)) ([]outcome, error) {
	out := make([]outcome, len(acts))
	for i, a := range acts {
		eval := func(name string) (bool, error) { return mask(i, name) }
		var tf fsm.TraceFn
		if trace != nil {
			tf = func(from, to int32, name string, v bool) { trace(i, from, to, name, v) }
		}
		next, accepted, err := a.m.AdvanceTraced(a.state, ev, eval, tf)
		switch {
		case err != nil || !accepted:
		case a.perpetual:
			next, err = startOf(a.m, eval, tf)
		default:
			next = deadState
		}
		if err != nil {
			return nil, err
		}
		out[i] = outcome{state: next, fired: accepted}
	}
	return out, nil
}

// startOf is where an activation of m rests before its first event, and
// again after a perpetual one fires: the start state, or the state that
// an opening mask cascade settles into (§5.1.2).
func startOf(m *fsm.Machine, eval fsm.MaskEval, trace fsm.TraceFn) (int32, error) {
	if m.States[m.Start].Mask == fsm.NoMask {
		return m.Start, nil
	}
	state, _, err := m.Settle(m.Start, eval, trace)
	return state, err
}
