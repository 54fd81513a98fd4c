// Package experiments implements the reproduction experiments catalogued
// in DESIGN.md and reported in EXPERIMENTS.md (see Suite). The paper has
// no quantitative tables — its measurable content is Figure 1, five
// design goals, the §6 implementation experiences, and the §7 comparison
// claims — so each experiment regenerates one of those: a structure
// check, a count, a micro-benchmark pair whose *shape* (who wins,
// direction, rough factor) the paper predicts, or a semantics check.
// Absolute speed is the bench/ ledger's job, not this package's.
//
// cmd/ode-bench runs every experiment and prints the tables;
// bench_test.go exposes the same measurements as testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"time"

	"ode/internal/core"
	"ode/internal/storage/dali"
	"ode/internal/storage/eos"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks iteration counts for CI/tests.
	Quick bool
	// Dir is scratch space for disk stores (E10, E14); empty uses a
	// temporary directory per experiment.
	Dir string
}

func (c Config) scale(n int) int {
	if c.Quick {
		n /= 20
		if n < 50 {
			n = 50
		}
	}
	return n
}

// Result is one experiment's outcome.
type Result struct {
	ID      string
	Title   string
	Passed  bool // the paper-predicted shape held
	Summary string
}

// Runner executes experiments and writes their tables.
type Runner struct {
	W   io.Writer
	Cfg Config
}

// Suite lists every experiment in run order. RunAll and cmd/ode-bench
// -only both read it, so the two cannot disagree on what exists.
// E18 (observability overhead) is benchmark-shaped and lives in
// bench_test.go; E16, E20, E21, E23, E24 and E25 were retired into the
// bench/ ledger (EXPERIMENTS.md, "Retired into the ledger").
var Suite = []struct {
	ID  string
	Run func(*Runner) Result
}{
	{"E1", (*Runner).E1}, {"E2", (*Runner).E2}, {"E3", (*Runner).E3},
	{"E4", (*Runner).E4}, {"E5", (*Runner).E5}, {"E6", (*Runner).E6},
	{"E7", (*Runner).E7}, {"E8", (*Runner).E8}, {"E9", (*Runner).E9},
	{"E10", (*Runner).E10}, {"E11", (*Runner).E11}, {"E12", (*Runner).E12},
	{"E13", (*Runner).E13}, {"E14", (*Runner).E14}, {"E15", (*Runner).E15},
	{"E17", (*Runner).E17}, {"E19", (*Runner).E19}, {"E22", (*Runner).E22},
}

// RunAll executes every experiment in order and returns the results.
func (r *Runner) RunAll() []Result {
	var out []Result
	for _, e := range Suite {
		out = append(out, e.Run(r))
		fmt.Fprintln(r.W)
	}
	fmt.Fprintf(r.W, "== summary ==\n")
	pass := 0
	for _, res := range out {
		verdict := "FAIL"
		if res.Passed {
			verdict = "ok"
			pass++
		}
		fmt.Fprintf(r.W, "%-4s %-4s %s — %s\n", res.ID, verdict, res.Title, res.Summary)
	}
	fmt.Fprintf(r.W, "%d/%d experiments match the paper's predicted shape\n", pass, len(out))
	return out
}

func (r *Runner) header(id, title, anchor, claim string) {
	fmt.Fprintf(r.W, "== %s: %s ==\n", id, title)
	fmt.Fprintf(r.W, "paper: %s\nclaim: %s\n", anchor, claim)
}

// perOp times fn over n iterations and returns ns/op.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// bestOp warms fn up and returns the fastest of three timed runs — used
// where quick-mode iteration counts would otherwise be noisy.
func bestOp(n int, fn func(i int)) float64 {
	warm := n / 10
	if warm < 1 {
		warm = 1
	}
	perOp(warm, fn)
	best := perOp(n, fn)
	for k := 0; k < 2; k++ {
		if v := perOp(n, fn); v < best {
			best = v
		}
	}
	return best
}

// --- shared fixture: the paper's §4 CredCard class ---------------------------

// CredCard is the benchmark object (mirrors the paper's §4 class).
type CredCard struct {
	Holder     string
	CredLim    float64
	CurrBal    float64
	GoodHist   bool
	BlackMarks []string
}

// CredCardClass builds the §4 class definition used across experiments.
func CredCardClass() *core.Class {
	return core.MustClass("CredCard",
		core.Factory(func() any { return new(CredCard) }),
		core.Method("Buy", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
		core.Method("PayBill", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal -= args[0].(float64)
			return nil, nil
		}),
		core.Method("RaiseLimit", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CredLim += args[0].(float64)
			return nil, nil
		}),
		core.ReadOnlyMethod("GoodCredHist", func(ctx *core.Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).GoodHist, nil
		}),
		core.Events("after Buy", "after PayBill", "BigBuy"),
		core.Mask("OverLimit", func(ctx *core.Ctx, self any, act *core.Activation) (bool, error) {
			c := self.(*CredCard)
			return c.CurrBal > c.CredLim, nil
		}),
		core.Mask("MoreCred", func(ctx *core.Ctx, self any, act *core.Activation) (bool, error) {
			c := self.(*CredCard)
			return c.CurrBal > 0.8*c.CredLim && c.GoodHist, nil
		}),
		core.Trigger("DenyCredit", "after Buy & OverLimit",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				ctx.TAbort()
				return nil
			},
			core.Perpetual()),
		core.Trigger("AutoRaiseLimit", "relative((after Buy & MoreCred()), after PayBill)",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				_, err := ctx.Invoke(ctx.Self(), "RaiseLimit", act.ArgFloat(0))
				return err
			}),
	)
}

// memDB opens a main-memory database with CredCard registered.
func memDB() (*core.Database, error) {
	db, err := core.NewDatabase(dali.New())
	if err != nil {
		return nil, err
	}
	if err := db.Register(CredCardClass()); err != nil {
		return nil, err
	}
	return db, nil
}

// diskDB opens a disk database at path with CredCard registered.
func diskDB(path string) (*core.Database, error) {
	store, err := eos.Open(path, eos.Options{})
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := db.Register(CredCardClass()); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// mustCard creates one committed card.
func mustCard(db *core.Database, limit float64) (core.Ref, error) {
	tx := db.Begin()
	ref, err := db.Create(tx, "CredCard", &CredCard{Holder: "bench", CredLim: limit, GoodHist: true})
	if err != nil {
		tx.Abort()
		return ref, err
	}
	return ref, tx.Commit()
}
