package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"ode/internal/workload"
)

// stream is a pre-generated sequence of transactions: transaction i is
// ops[off[i]:off[i+1]]. The system under test sees only these inputs.
type stream struct {
	ops  []op
	off  []int32
	snap []bool // transaction i is a snapshot read transaction
	// wantAbort is the generator's prediction, made while shaping the
	// stream, that transaction i is rolled back by DenyCredit.
	wantAbort []bool
}

func (s *stream) len() int { return len(s.off) - 1 }

func (s *stream) txn(i int) []op { return s.ops[s.off[i]:s.off[i+1]] }

func (s *stream) add(ops []op, snap, wantAbort bool) {
	s.ops = append(s.ops, ops...)
	s.off = append(s.off, int32(len(s.ops)))
	s.snap = append(s.snap, snap)
	s.wantAbort = append(s.wantAbort, wantAbort)
}

func newStream(n, opsPer int) *stream {
	return &stream{
		ops:       make([]op, 0, n*opsPer),
		off:       append(make([]int32, 0, n+1), 0),
		snap:      make([]bool, 0, n),
		wantAbort: make([]bool, 0, n),
	}
}

// digest is a checksum of the whole stream: the same seed must give the
// same digest, byte for byte.
func (s *stream) digest() uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < s.len(); i++ {
		flags := uint64(0)
		if s.snap[i] {
			flags |= 1
		}
		if s.wantAbort[i] {
			flags |= 2
		}
		binary.LittleEndian.PutUint64(b[:8], flags)
		binary.LittleEndian.PutUint64(b[8:], uint64(s.off[i+1]))
		h.Write(b[:])
		for _, o := range s.txn(i) {
			binary.LittleEndian.PutUint64(b[:8], uint64(o.kind)<<32|uint64(uint32(o.card)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(o.amount))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// bustAmount is a purchase no limit in the benchmark covers: DenyCredit
// aborts the transaction whatever the card's balance, so the outcome does
// not depend on how concurrent transactions interleave.
const bustAmount = 1e9

// roomyLimit is the credit limit of the workloads whose ordinary
// purchases must never reach it.
const roomyLimit = 1e8

// kindOf maps workload.CardStream's kinds onto ops.
var kindOf = [...]opKind{workload.OpBuy: opBuy, workload.OpPay: opPay, workload.OpBigBuy: opBigBuy, workload.OpQuery: opQuery}

// detectLimit is embedded-detect's starting credit limit (the §4
// example's).
const detectLimit = 1000

// genDetect shapes workload.CardStream's DefaultCardMix into
// transactions of four postings for embedded-detect. Balances would
// otherwise drift upward until every transaction hit its limit, so the
// stream is shaped against the model as it is generated: a purchase that
// would pass the limit becomes a payment, except one in bustOneIn that
// stays and is denied; a payment that would overdraw becomes a purchase;
// and a card whose once-only AutoRaiseLimit fired gets it re-activated
// at the end of the same transaction. The work per transaction therefore
// stays the same however far into the stream a run gets.
func genDetect(seed int64, n, cards int, m *model) (*stream, error) {
	const perTxn = 4
	const bustOneIn = 16
	raw := workload.CardStream(seed, n*perTxn, cards, workload.DefaultCardMix, 0)
	coin := rand.New(rand.NewSource(seed ^ 0x5eed))
	s := newStream(n, perTxn+1)
	var buf []op
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, r := range raw[i*perTxn : (i+1)*perTxn] {
			o := op{kind: kindOf[r.Kind], card: int32(r.Card), amount: r.Amount}
			c := &m.cards[o.card]
			switch {
			case o.kind == opBuy && c.bal+o.amount > c.lim && coin.Intn(bustOneIn) != 0:
				o.kind = opPay
				if c.bal-o.amount < 0 {
					o.kind = opQuery
				}
			case o.kind == opPay && c.bal-o.amount < 0:
				o.kind = opBuy
				if c.bal+o.amount > c.lim {
					o.kind = opQuery
				}
			}
			if o.kind != opBuy && o.kind != opPay {
				o.amount = 0
			}
			if err := m.apply(o); err != nil {
				return nil, err
			}
			buf = append(buf, o)
		}
		for _, card := range m.reraised {
			o := op{kind: opActivate, card: card}
			if err := m.apply(o); err != nil {
				return nil, err
			}
			buf = append(buf, o)
		}
		s.add(buf, false, m.end())
	}
	return s, nil
}

// genCommit is embedded-commit's stream: one purchase per transaction on
// a uniformly chosen card, one in sixteen of them a bust that DenyCredit
// aborts.
func genCommit(seed int64, n, cards int) *stream {
	raw := workload.CardStream(seed, n, cards, workload.CardMix{BuyPct: 100}, 0)
	s := newStream(n, 1)
	for _, r := range raw {
		o := op{kind: opBuy, card: int32(r.Card), amount: r.Amount}
		bust := int(r.Amount)%16 == 0
		if bust {
			o.amount = bustAmount
		}
		s.add([]op{o}, false, bust)
	}
	return s
}

// balanceModulus divides every committed balance in server-readmostly:
// each write transaction nets a multiple of it, so a snapshot read that
// saw part of a transaction would show a balance that is not.
const balanceModulus = 7

// genReadMostly is server-readmostly's stream: nine transactions in ten
// read four cards under a snapshot, one in ten buys twice and pays once
// on one card.
func genReadMostly(seed int64, n, cards int) *stream {
	const perTxn = 4
	raw := workload.CardStream(seed, n*perTxn, cards, workload.CardMix{BuyPct: 100}, 0)
	s := newStream(n, perTxn)
	var buf [perTxn]op
	for i := 0; i < n; i++ {
		r := raw[i*perTxn : (i+1)*perTxn]
		if int(r[3].Amount)%10 != 0 {
			for k := range r {
				buf[k] = op{kind: opGet, card: int32(r[k].Card)}
			}
			s.add(buf[:], true, false)
			continue
		}
		card := int32(r[0].Card)
		a, b := r[0].Amount+10, r[1].Amount+10
		net := float64(balanceModulus * (int(r[2].Amount) % 4))
		buf[0] = op{kind: opBuy, card: card, amount: a}
		buf[1] = op{kind: opBuy, card: card, amount: b}
		buf[2] = op{kind: opPay, card: card, amount: a + b - net}
		s.add(buf[:3], false, false)
	}
	return s
}

// genFleet is fleet-routed's stream: two purchases on one card, and in
// one transaction in ten a Kick on the same card, whose Chain action
// posts First to the card's target on the other shard.
func genFleet(seed int64, n, cards int) *stream {
	const perTxn = 2
	raw := workload.CardStream(seed, n*perTxn, cards, workload.CardMix{BuyPct: 100}, 0)
	s := newStream(n, perTxn+1)
	var buf [perTxn + 1]op
	for i := 0; i < n; i++ {
		r := raw[i*perTxn : (i+1)*perTxn]
		card := int32(r[0].Card)
		buf[0] = op{kind: opBuy, card: card, amount: r[0].Amount}
		buf[1] = op{kind: opBuy, card: card, amount: r[1].Amount}
		if int(r[1].Amount)%10 == 0 {
			buf[2] = op{kind: opKick, card: card}
			s.add(buf[:3], false, false)
		} else {
			s.add(buf[:2], false, false)
		}
	}
	return s
}

// replay runs the executed transactions through the model in the order
// given. committed[k] is what the system under test did with transaction
// order[k]; a transaction it rolled back leaves no trace in the model
// either, and counts as a mismatch unless the model also aborts it.
func replay(m *model, s *stream, order []int32, committed []bool) (mismatches int, err error) {
	for k, i := range order {
		if s.snap[i] {
			if !committed[k] {
				mismatches++
			}
			continue
		}
		for _, o := range s.txn(int(i)) {
			if err := m.apply(o); err != nil {
				return mismatches, err
			}
		}
		predicted := !m.doomed
		if !committed[k] {
			m.doomed = true
		}
		m.end()
		if predicted != committed[k] {
			mismatches++
		}
	}
	return mismatches, nil
}
