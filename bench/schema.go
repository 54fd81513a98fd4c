package main

import (
	"fmt"
	"strings"

	"ode/internal/core"
	"ode/internal/storage"
	"ode/internal/workload"
)

// CredCard is the benchmark object: the paper's §4 class as
// internal/experiments declares it, plus the fields the cross-shard
// Chain/Pair pattern of internal/shard's cluster test needs.
type CredCard struct {
	Holder   string
	CredLim  float64
	CurrBal  float64
	GoodHist bool
	// Raises counts RaiseLimit invocations, so a committed
	// AutoRaiseLimit firing is visible in the object read back.
	Raises int
	// Next is where the Chain action posts First (0 = nowhere).
	Next uint64
	// Stamps holds the wall-clock times (ns) appended by stamping
	// actions in node processes; embedded runs record fire latency in
	// memory and leave it empty.
	Stamps []int64 `json:",omitempty"`
}

// The four basic events the composite patterns range over, in the order
// workload.Expressions names them (E0..E3).
var basicEvents = [4]string{"after Buy", "after PayBill", "BigBuy", "after GoodCredHist"}

var couplings = [4]core.Coupling{core.Immediate, core.Deferred, core.Dependent, core.Independent}

var couplingTag = [4]string{"Imm", "End", "Dep", "Ind"}

// compName is the composite trigger of nesting depth d (0..3) under
// coupling index c.
func compName(c, d int) string { return fmt.Sprintf("%s%d", couplingTag[c], d) }

// compExpr spells workload.Expressions(4)[d] over the class's real
// events, rotated by c so the four couplings watch different patterns.
func compExpr(c, d int) string {
	var pairs []string
	for i := range basicEvents {
		pairs = append(pairs, fmt.Sprintf("E%d", i), basicEvents[(i+c)%4])
	}
	return strings.NewReplacer(pairs...).Replace(workload.Expressions(4)[d])
}

// stampFn is called on entry to every stamping trigger action. The
// embedded workloads record the latency since the current engine call in
// memory; node processes append the wall clock to the object.
type stampFn func(ctx *core.Ctx, c *CredCard, act *core.Activation)

// wallStamp is the node-process stamp: the completion time travels back
// to the generator inside the object it fired on.
func wallStamp(_ *core.Ctx, c *CredCard, _ *core.Activation) {
	c.Stamps = append(c.Stamps, nowWall())
}

// credCardClass builds the benchmark schema. Every trigger action except
// Chain's calls stamp first.
func credCardClass(stamp stampFn) *core.Class {
	stampOnly := func(ctx *core.Ctx, self any, act *core.Activation) error {
		stamp(ctx, self.(*CredCard), act)
		return nil
	}
	opts := []core.Option{
		core.Factory(func() any { return new(CredCard) }),
		core.Method("Buy", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal += args[0].(float64)
			return nil, nil
		}),
		core.Method("PayBill", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*CredCard).CurrBal -= args[0].(float64)
			return nil, nil
		}),
		core.Method("RaiseLimit", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CredLim += args[0].(float64)
			c.Raises++
			return nil, nil
		}),
		core.Method("Link", func(ctx *core.Ctx, self any, args []any) (any, error) {
			self.(*CredCard).Next = uint64(args[0].(float64))
			return nil, nil
		}),
		core.ReadOnlyMethod("GoodCredHist", func(ctx *core.Ctx, self any, args []any) (any, error) {
			return self.(*CredCard).GoodHist, nil
		}),
		core.Events("after Buy", "after PayBill", "BigBuy", "after GoodCredHist", "Kick", "First", "Second"),
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
				stamp(ctx, self.(*CredCard), act)
				ctx.TAbort()
				return nil
			},
			core.Perpetual()),
		core.Trigger("AutoRaiseLimit", "relative((after Buy & MoreCred()), after PayBill)",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				stamp(ctx, self.(*CredCard), act)
				_, err := ctx.Invoke(ctx.Self(), "RaiseLimit", act.ArgFloat(0))
				return err
			}),
		// The cross-shard pair: Chain runs where Kick is posted and posts
		// First to an object another shard owns; Pair completes there.
		// Pair re-arms itself by posting Second, so the k-th First on a
		// target is the k-th completion.
		core.Trigger("Chain", "Kick",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				c := self.(*CredCard)
				if c.Next == 0 {
					return nil
				}
				return ctx.PostUserEvent(core.RefFromOID(storage.OID(c.Next)), "First")
			},
			core.Perpetual()),
		core.Trigger("Pair", "Second , First",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				stamp(ctx, self.(*CredCard), act)
				return ctx.PostUserEvent(ctx.Self(), "Second")
			},
			core.Perpetual()),
	}
	for c := range couplings {
		for d := 0; d < 4; d++ {
			opts = append(opts, core.Trigger(compName(c, d), compExpr(c, d), stampOnly,
				core.Perpetual(), core.WithCoupling(couplings[c])))
		}
	}
	return core.MustClass("CredCard", opts...)
}

// activation is one trigger activated on every card of a workload.
type activation struct {
	trigger string
	args    []any
}

// raiseStep is AutoRaiseLimit's activation argument.
const raiseStep = 50.0

// detectActivations is embedded-detect's 16 activations per card: the two
// §4 triggers and 14 composite patterns. The two single-event patterns
// under the detached couplings are left out: each would start a system
// transaction on every Buy or PayBill.
func detectActivations() []activation {
	acts := []activation{{trigger: "DenyCredit"}, {trigger: "AutoRaiseLimit", args: []any{raiseStep}}}
	for c := range couplings {
		for d := 0; d < 4; d++ {
			if d == 0 && couplings[c] >= core.Dependent {
				continue
			}
			acts = append(acts, activation{trigger: compName(c, d)})
		}
	}
	return acts
}
