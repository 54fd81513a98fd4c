package event

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// eventTriple is Sentinel's event identity (Chakravarthy et al., ICDE
// 1995): class name, member-function prototype, and "begin" | "end".
type eventTriple struct {
	Class, Prototype, Modifier string
}

// tripleRegistry dispatches postings keyed by string triples, the way a
// Sentinel wrapper does: hash three strings, then call the subscribers.
type tripleRegistry struct {
	mu   sync.RWMutex
	subs map[eventTriple][]func()
}

func (r *tripleRegistry) post(t eventTriple) int {
	r.mu.RLock()
	subs := r.subs[t]
	r.mu.RUnlock()
	for _, fn := range subs {
		fn()
	}
	return len(subs)
}

// intRegistry is the Ode counterpart: the same surface keyed by the
// unique integer, so the measured difference is purely the
// representation.
type intRegistry struct {
	mu   sync.RWMutex
	subs [][]func()
}

func (r *intRegistry) post(id ID) int {
	r.mu.RLock()
	subs := r.subs[id]
	r.mu.RUnlock()
	for _, fn := range subs {
		fn()
	}
	return len(subs)
}

// e2Registries declares classes × 8 events both ways, with one
// subscriber per event, and returns them with a seeded posting order.
type e2Registries struct {
	triples []eventTriple
	ids     []ID
	treg    *tripleRegistry
	ireg    *intRegistry
	order   []int // indexes into triples/ids
	hits    int   // subscriber calls, both registries
}

func newE2Registries(classes, postings int) *e2Registries {
	const perClass = 8
	reg := NewRegistry()
	e := &e2Registries{treg: &tripleRegistry{subs: make(map[eventTriple][]func())}}
	for c := 0; c < classes; c++ {
		for m := 0; m < perClass; m++ {
			tr := eventTriple{
				Class:     fmt.Sprintf("Class%03d", c),
				Prototype: fmt.Sprintf("void member%d(Merchant*, float, const char*)", m),
				Modifier:  "end",
			}
			e.triples = append(e.triples, tr)
			e.treg.subs[tr] = append(e.treg.subs[tr], func() { e.hits++ })
			e.ids = append(e.ids, reg.Register(tr.Class, After(fmt.Sprintf("member%d", m))))
		}
	}
	e.ireg = &intRegistry{subs: make([][]func(), reg.Len()+1)}
	for _, id := range e.ids {
		e.ireg.subs[id] = append(e.ireg.subs[id], func() { e.hits++ })
	}
	rnd := rand.New(rand.NewSource(1))
	e.order = make([]int, postings)
	for i := range e.order {
		e.order[i] = rnd.Intn(len(e.ids))
	}
	return e
}

// TestTripleRegistryDispatch checks E2's Sentinel baseline: each triple
// dispatches to exactly its own subscriber, and an overloaded prototype
// is a different Sentinel event that matches nothing.
func TestTripleRegistryDispatch(t *testing.T) {
	for _, classes := range []int{1, 16, 64} {
		e := newE2Registries(classes, 0)
		for i, tr := range e.triples {
			before := e.hits
			if n := e.treg.post(tr); n != 1 || e.hits != before+1 {
				t.Fatalf("%d classes: triple %v dispatched to %d subscribers, %d calls", classes, tr, n, e.hits-before)
			}
			if i == 0 {
				other := eventTriple{tr.Class, "void member0(float)", tr.Modifier}
				if n := e.treg.post(other); n != 0 || e.hits != before+1 {
					t.Fatalf("%d classes: overloaded prototype matched %d subscribers", classes, n)
				}
			}
		}
	}
}

// TestIntRegistryDispatch checks E2's integer registry: each ID
// dispatches to exactly its own subscriber, and an ID nobody subscribed
// to dispatches nothing.
func TestIntRegistryDispatch(t *testing.T) {
	for _, classes := range []int{1, 16, 64} {
		e := newE2Registries(classes, 0)
		for _, id := range e.ids {
			before := e.hits
			if n := e.ireg.post(id); n != 1 || e.hits != before+1 {
				t.Fatalf("%d classes: ID %d dispatched to %d subscribers, %d calls", classes, id, n, e.hits-before)
			}
		}
		if n := e.ireg.post(None); n != 0 {
			t.Fatalf("%d classes: unsubscribed ID dispatched to %d subscribers", classes, n)
		}
	}
}
