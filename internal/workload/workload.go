// Package workload generates deterministic synthetic workloads for the
// experiments in EXPERIMENTS.md. The paper evaluates Ode qualitatively on
// credit-card monitoring (§4) and motivates composite events with program
// trading (§1, §8); these generators produce both shapes, plus generic
// event streams for the detector benchmarks.
//
// Substitution note (DESIGN.md): the original work had no published
// workload traces, so every experiment runs on these seeded generators;
// all comparisons are therefore self-relative, which is exactly what the
// paper's claims (who wins, in which direction) require.
package workload

import (
	"fmt"
	"math/rand"
)

// CardOpKind enumerates credit-card operations.
type CardOpKind uint8

const (
	// OpBuy invokes Buy(amount).
	OpBuy CardOpKind = iota
	// OpPay invokes PayBill(amount).
	OpPay
	// OpBigBuy posts the user-defined BigBuy event.
	OpBigBuy
	// OpQuery invokes the read-only GoodCredHist.
	OpQuery
)

func (k CardOpKind) String() string {
	switch k {
	case OpBuy:
		return "buy"
	case OpPay:
		return "pay"
	case OpBigBuy:
		return "bigbuy"
	case OpQuery:
		return "query"
	default:
		return fmt.Sprintf("CardOpKind(%d)", uint8(k))
	}
}

// CardOp is one operation against one card.
type CardOp struct {
	Kind   CardOpKind
	Card   int // card index in [0, Cards)
	Amount float64
}

// CardMix sets the percentage of each operation kind; the remainder after
// Buy+Pay+BigBuy becomes queries. Percentages must sum to at most 100.
type CardMix struct {
	BuyPct    int
	PayPct    int
	BigBuyPct int
}

// DefaultCardMix is a write-heavy monitoring mix.
var DefaultCardMix = CardMix{BuyPct: 50, PayPct: 30, BigBuyPct: 5}

// CardStream generates n operations over cards cards. Hotspot is the
// probability (percent) that an operation targets card 0 — raising it
// concentrates conflicts for the lock experiments.
func CardStream(seed int64, n, cards int, mix CardMix, hotspotPct int) []CardOp {
	if cards <= 0 {
		cards = 1
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]CardOp, n)
	for i := range out {
		card := r.Intn(cards)
		if hotspotPct > 0 && r.Intn(100) < hotspotPct {
			card = 0
		}
		p := r.Intn(100)
		var op CardOp
		switch {
		case p < mix.BuyPct:
			op = CardOp{Kind: OpBuy, Card: card, Amount: float64(1 + r.Intn(500))}
		case p < mix.BuyPct+mix.PayPct:
			op = CardOp{Kind: OpPay, Card: card, Amount: float64(1 + r.Intn(400))}
		case p < mix.BuyPct+mix.PayPct+mix.BigBuyPct:
			op = CardOp{Kind: OpBigBuy, Card: card}
		default:
			op = CardOp{Kind: OpQuery, Card: card}
		}
		out[i] = op
	}
	return out
}

// Tick is one market data point for the trading example/benchmarks.
type Tick struct {
	Symbol string
	Price  float64
}

// TickStream produces a random-walk price stream over the given symbols,
// starting at start with per-step volatility vol (fraction, e.g. 0.02).
func TickStream(seed int64, n int, symbols []string, start, vol float64) []Tick {
	r := rand.New(rand.NewSource(seed))
	price := make(map[string]float64, len(symbols))
	for _, s := range symbols {
		price[s] = start
	}
	out := make([]Tick, n)
	for i := range out {
		s := symbols[r.Intn(len(symbols))]
		p := price[s] * (1 + vol*(r.Float64()*2-1))
		if p < 1 {
			p = 1
		}
		price[s] = p
		out[i] = Tick{Symbol: s, Price: p}
	}
	return out
}

// EventStream produces n indexes uniform over an alphabet of size k —
// raw input for the detector benchmarks (E5, E6).
func EventStream(seed int64, n, k int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(k)
	}
	return out
}

// Expressions returns event expressions of increasing nesting depth over
// an alphabet {E0..E(k-1)}, used to sweep detector cost with expression
// complexity (E5, E13).
func Expressions(k int) []string {
	name := func(i int) string { return fmt.Sprintf("E%d", i%k) }
	return []string{
		// depth 1: single event
		name(0),
		// depth 2: sequence
		fmt.Sprintf("%s, %s", name(0), name(1)),
		// depth 3: relative with union
		fmt.Sprintf("relative((%s || %s), %s)", name(0), name(1), name(2%k)),
		// depth 4: star + sequence + union
		fmt.Sprintf("*(%s || %s), %s, %s", name(0), name(1), name(2%k), name(3%k)),
	}
}
