package fsm

import (
	"errors"
	"testing"
	"unicode/utf8"

	"ode/internal/event"
	"ode/internal/eventexpr"
)

// FuzzCompile checks that every expression the parser accepts either
// compiles to a machine within maxStates or fails with
// ErrMachineTooLarge: compilation never hangs and never fails for any
// other reason once every event and mask resolves. The seeds are
// FuzzParse's, plus the doubling family that passes the cap.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"after Buy",
		"relative((after Buy & MoreCred()), after PayBill)",
		"*any, after Buy",
		"A || B, C & m",
		"^(A; B) & m1 && m2",
		"relative(A, B, C, D)",
		"*(*(A))",
		"((((A))))",
		"A & m()",
		"before tcomplete, before tabort",
		"| |", "&&&", "relative(", "^^", "*,", "any any",
		doubling(9), doubling(10), doubling(16),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !utf8.ValidString(src) {
			t.Skip()
		}
		p, err := eventexpr.Parse(src)
		if err != nil {
			return
		}
		ids := map[string]event.ID{}
		m, err := Compile(p, Options{
			Resolve: func(n *eventexpr.Name) (event.ID, error) {
				id, ok := ids[n.String()]
				if !ok {
					id = event.ID(len(ids) + 1)
					ids[n.String()] = id
				}
				return id, nil
			},
			Alphabet: []event.ID{1, 2, 3},
		})
		switch {
		case errors.Is(err, ErrMachineTooLarge):
		case err != nil:
			t.Fatalf("compile %q: %v", src, err)
		case m.NumStates() > maxStates:
			t.Fatalf("compile %q: %d states, cap %d", src, m.NumStates(), maxStates)
		}
	})
}
