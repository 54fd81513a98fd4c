package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ode/internal/server"
	"ode/internal/shard"
)

// generatorConns is how many client connections the generator opens:
// one per core of the two-core box it shares with the system under test.
const generatorConns = 2

// dueRec remembers when a firing transaction was due, for pairing with
// the stamp its trigger action left in the object.
type dueRec struct {
	card int32
	due  int64 // wall clock, ns
}

type netWorker struct {
	sess  *server.MuxSession
	calls []*server.Call
	log   []execRec
	dues  []dueRec
	// retries counts re-runs after a deadlock rollback.
	retries int
}

// netSUT is the server and fleet topologies: node subprocesses (and, for
// the fleet, a router subprocess in front of them) driven over the ODE2
// binary protocol on two multiplexed connections. Every transaction is
// sent pipelined — begin, its ops and commit are written without
// waiting — which is how a client that cares about latency uses the
// protocol.
type netSUT struct {
	def     *workloadDef
	s       *stream
	dir     string
	nodes   []*proc
	router  *proc
	traced  bool
	muxes   []*server.Mux
	workers []netWorker
	refs    []uint64 // card OIDs
	targets []uint64 // fleet: card i's Chain target, on the other shard
	ring    *shard.Ring
}

func startNet(def *workloadDef, s *stream, cards int, traced bool) (n *netSUT, err error) {
	n = &netSUT{def: def, s: s, traced: traced}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	if n.dir, err = scratchDir(); err != nil {
		return nil, err
	}
	shards := 1
	if def.topology == "fleet" {
		shards = 2
		if n.ring, err = shard.NewRing(shards, 0); err != nil {
			return nil, err
		}
	}
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		args := []string{"node", "-store", def.store, "-dir", n.dir,
			"-index", fmt.Sprint(i), "-shards", fmt.Sprint(shards)}
		if traced {
			args = append(args, "-traced")
		}
		p, err := startProc(fmt.Sprintf("node%d", i), args...)
		if err != nil {
			return nil, err
		}
		n.nodes = append(n.nodes, p)
		addrs[i] = p.addr
	}
	front := addrs[0]
	if shards > 1 {
		for _, p := range n.nodes {
			if err := p.call(ctlMsg{Cmd: "peers", Addrs: addrs}, nil); err != nil {
				return nil, err
			}
		}
		backends := addrs[0]
		for _, a := range addrs[1:] {
			backends += "," + a
		}
		if n.router, err = startProc("router", "router", "-backends", backends); err != nil {
			return nil, err
		}
		front = n.router.addr
	}
	for c := 0; c < generatorConns; c++ {
		m, err := server.DialMux(front, server.ClientOptions{DialAttempts: 5, RequestTimeout: 20 * time.Second})
		if err != nil {
			return nil, err
		}
		n.muxes = append(n.muxes, m)
	}
	n.workers = make([]netWorker, def.clients)
	for w := range n.workers {
		n.workers[w].sess = n.muxes[w%len(n.muxes)].Session()
	}
	if err := n.load(cards); err != nil {
		return nil, err
	}
	return n, nil
}

// batchTxn runs reqs inside one pipelined transaction on the first
// worker's session and returns the responses to reqs.
func (n *netSUT) batchTxn(snapshot bool, reqs []*server.Request) ([]*server.Response, error) {
	sess := n.workers[0].sess
	calls := make([]*server.Call, 0, len(reqs)+2)
	calls = append(calls, sess.Go(&server.Request{Op: "begin", Snapshot: snapshot}))
	for _, r := range reqs {
		calls = append(calls, sess.Go(r))
	}
	calls = append(calls, sess.Go(&server.Request{Op: "commit"}))
	out := make([]*server.Response, 0, len(reqs))
	var first error
	for k, c := range calls {
		resp, err := c.Wait()
		if err != nil && first == nil {
			first = fmt.Errorf("setup request %d (%s): %w", k, c.Req.Op, err)
		}
		if k > 0 && k <= len(reqs) {
			out = append(out, resp)
		}
	}
	return out, first
}

func invoke(ref uint64, method string, args ...any) *server.Request {
	return &server.Request{Op: "invoke", Ref: ref, Method: method, Args: args}
}

// load creates and activates the workload's objects over the wire. The
// router places fleet objects round-robin; a card's Chain target is
// picked among the objects the other shard owns.
func (n *netSUT) load(cards int) error {
	const batch = 64
	create := func(count int, lim float64) ([]uint64, error) {
		val, err := json.Marshal(&CredCard{Holder: n.def.holder(), CredLim: lim, GoodHist: true})
		if err != nil {
			return nil, err
		}
		oids := make([]uint64, 0, count)
		for lo := 0; lo < count; lo += batch {
			var reqs []*server.Request
			for i := lo; i < lo+batch && i < count; i++ {
				reqs = append(reqs, &server.Request{Op: "create", Class: "CredCard", Value: val})
			}
			resps, err := n.batchTxn(false, reqs)
			if err != nil {
				return nil, err
			}
			for _, r := range resps {
				oids = append(oids, r.Ref)
			}
		}
		return oids, nil
	}
	each := func(oids []uint64, mk func(i int, oid uint64) []*server.Request) error {
		for lo := 0; lo < len(oids); lo += batch {
			var reqs []*server.Request
			for i := lo; i < lo+batch && i < len(oids); i++ {
				reqs = append(reqs, mk(i, oids[i])...)
			}
			if _, err := n.batchTxn(false, reqs); err != nil {
				return err
			}
		}
		return nil
	}
	activate := func(acts []activation) func(int, uint64) []*server.Request {
		return func(_ int, oid uint64) []*server.Request {
			var reqs []*server.Request
			for _, a := range acts {
				reqs = append(reqs, &server.Request{Op: "activate", Ref: oid, Trigger: a.trigger, Args: a.args})
			}
			return reqs
		}
	}
	if n.ring == nil {
		oids, err := create(cards, n.def.limit)
		if err != nil {
			return err
		}
		n.refs = oids
		return each(oids, activate(n.def.acts))
	}
	oids, err := create(2*cards, n.def.limit)
	if err != nil {
		return err
	}
	byOwner := make([][]uint64, n.ring.Shards())
	for _, oid := range oids {
		d := n.ring.Owner(oid)
		byOwner[d] = append(byOwner[d], oid)
	}
	// Half of each shard's objects are cards, the other half targets for
	// the other shard's cards.
	for d, owned := range byOwner {
		other := byOwner[(d+1)%len(byOwner)]
		half := len(owned) / 2
		if half > len(other)-len(other)/2 {
			return fmt.Errorf("fleet load: router placed %d objects on shard %d and %d on the other", len(owned), d, len(other))
		}
		n.refs = append(n.refs, owned[:half]...)
		n.targets = append(n.targets, other[len(other)/2:len(other)/2+half]...)
	}
	if len(n.refs) != cards {
		return fmt.Errorf("fleet load: %d cards placed, want %d", len(n.refs), cards)
	}
	if err := each(n.targets, func(_ int, oid uint64) []*server.Request {
		return []*server.Request{
			{Op: "activate", Ref: oid, Trigger: "Pair"},
			{Op: "post", Ref: oid, Event: "Second"}, // arm: Pair now waits for First
		}
	}); err != nil {
		return err
	}
	return each(n.refs, func(i int, oid uint64) []*server.Request {
		return append(activate(n.def.acts)(i, oid), invoke(oid, "Link", float64(n.targets[i])))
	})
}

func (n *netSUT) request(o op) *server.Request {
	ref := n.refs[o.card]
	switch o.kind {
	case opBuy:
		return invoke(ref, "Buy", o.amount)
	case opPay:
		return invoke(ref, "PayBill", o.amount)
	case opBigBuy:
		return &server.Request{Op: "post", Ref: ref, Event: "BigBuy"}
	case opQuery:
		return invoke(ref, "GoodCredHist")
	case opKick:
		return &server.Request{Op: "post", Ref: ref, Event: "Kick"}
	case opGet:
		return &server.Request{Op: "get", Ref: ref}
	}
	return &server.Request{Op: "activate", Ref: ref, Trigger: "AutoRaiseLimit", Args: []any{raiseStep}}
}

// maxRetries is how often a client re-runs a transaction the system
// rolled back as a deadlock victim, as any client of a locking database
// must. Two writers of one card deadlock when both hold its shared lock
// and ask for the exclusive one.
const maxRetries = 8

func (n *netSUT) exec(w, i int, due time.Time) (committed, correct bool) {
	wk := &n.workers[w]
	for attempt := 0; ; attempt++ {
		var victim bool
		committed, correct, victim = n.attempt(wk, i)
		if !victim || attempt == maxRetries {
			break
		}
		wk.retries++
	}
	wk.log = append(wk.log, execRec{int32(i), committed})
	if committed && !n.s.snap[i] && n.def.fireOn != opNone {
		for _, o := range n.s.txn(i) {
			if o.kind == n.def.fireOn {
				wk.dues = append(wk.dues, dueRec{card: o.card, due: due.UnixNano()})
				break
			}
		}
	}
	return committed, correct
}

// attempt sends transaction i once. victim reports a rollback the
// generator did not predict, which is worth another attempt.
func (n *netSUT) attempt(wk *netWorker, i int) (committed, correct, victim bool) {
	ops := n.s.txn(i)
	calls := wk.calls[:0]
	calls = append(calls, wk.sess.Go(&server.Request{Op: "begin", Snapshot: n.s.snap[i]}))
	for _, o := range ops {
		calls = append(calls, wk.sess.Go(n.request(o)))
	}
	calls = append(calls, wk.sess.Go(&server.Request{Op: "commit"}))
	wk.calls = calls
	committed, correct = true, true
	for k, c := range calls {
		resp, err := c.Wait()
		if err != nil {
			// The router's pipelined path relays a backend rollback as a
			// plain error without the aborted flag, so the text decides.
			if committed && !n.s.wantAbort[i] &&
				(errors.Is(err, server.ErrRemoteAborted) || strings.Contains(err.Error(), "deadlock")) {
				victim = true
			}
			committed = false
			continue
		}
		if k > 0 && k <= len(ops) && ops[k-1].kind == opGet {
			// A snapshot must never show part of a write transaction.
			var c CredCard
			if json.Unmarshal(resp.Value, &c) != nil || (n.def.checkModulus && int64(c.CurrBal)%balanceModulus != 0) {
				correct = false
			}
		}
	}
	if committed == n.s.wantAbort[i] {
		correct = false
	}
	return committed, correct, victim
}

func (n *netSUT) clients() int { return len(n.workers) }

func (n *netSUT) startPhase(time.Time) {}

func (n *netSUT) execLog() []execRec {
	var out []execRec
	for w := range n.workers {
		out = append(out, n.workers[w].log...)
	}
	return out
}

// fireSamples pairs, per card, the k-th due time of a firing transaction
// with the k-th stamp its trigger action appended, and returns the
// latencies of those due inside [from, to). Stamps live in the card
// itself, or for the fleet in the card's target on the other shard.
func (n *netSUT) fireSamples(from, to time.Time) ([]sample, error) {
	cards, targets, err := n.readBack()
	if err != nil {
		return nil, err
	}
	holders := cards
	if n.ring != nil {
		holders = targets
	}
	dues := make([][]int64, len(cards))
	for w := range n.workers {
		for _, d := range n.workers[w].dues {
			dues[d.card] = append(dues[d.card], d.due)
		}
	}
	var out []sample
	lo, hi := from.UnixNano(), to.UnixNano()
	for i, ds := range dues {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		stamps := append([]int64(nil), holders[i].Stamps...)
		sort.Slice(stamps, func(a, b int) bool { return stamps[a] < stamps[b] })
		for k, d := range ds {
			if k >= len(stamps) {
				break // verification reports the missing firing
			}
			if d >= lo && d < hi {
				out = append(out, sample{end: stamps[k] - lo, lat: stamps[k] - d})
			}
		}
	}
	return out, nil
}

func (n *netSUT) traceOn(on bool) {
	for _, p := range n.nodes {
		p.call(ctlMsg{Cmd: "trace", On: on}, nil)
	}
}

func (n *netSUT) stats() (sutStats, error) {
	nodes := make([]procStats, len(n.nodes))
	for i, p := range n.nodes {
		if err := p.call(ctlMsg{Cmd: "stats"}, &nodes[i]); err != nil {
			return sutStats{}, err
		}
	}
	var router *procStats
	if n.router != nil {
		router = new(procStats)
		if err := n.router.call(ctlMsg{Cmd: "stats"}, router); err != nil {
			return sutStats{}, err
		}
	}
	return foldStats(nodes, router), nil
}

func (n *netSUT) micro() (beginUs, snapUs float64, err error) {
	var st procStats
	if err := n.nodes[0].call(ctlMsg{Cmd: "micro"}, &st); err != nil {
		return 0, 0, err
	}
	return st.BeginUs, st.SnapBeginUs, nil
}

// drain waits until every shard's outbox is empty: each captured
// cross-shard posting has then been delivered, applied and acknowledged.
func (n *netSUT) drain() error {
	if n.router == nil {
		return nil
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := n.workers[0].sess.Call(&server.Request{Op: "shard.status"})
		if err != nil {
			return fmt.Errorf("shard.status: %w", err)
		}
		var st shard.Status
		if err := json.Unmarshal(resp.Value, &st); err != nil {
			return fmt.Errorf("shard.status: %w", err)
		}
		pending := uint64(0)
		for _, s := range st.Fleet {
			pending += s.OutboxPending
		}
		if len(st.Fleet) == len(n.nodes) && pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not drain: %d outbox records still pending", pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (n *netSUT) readObjects(oids []uint64) ([]CredCard, error) {
	const batch = 256
	out := make([]CredCard, 0, len(oids))
	for lo := 0; lo < len(oids); lo += batch {
		var reqs []*server.Request
		for i := lo; i < lo+batch && i < len(oids); i++ {
			reqs = append(reqs, &server.Request{Op: "get", Ref: oids[i]})
		}
		resps, err := n.batchTxn(true, reqs)
		if err != nil {
			return nil, err
		}
		for _, r := range resps {
			var c CredCard
			if err := json.Unmarshal(r.Value, &c); err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func (n *netSUT) readBack() (cards, targets []CredCard, err error) {
	if cards, err = n.readObjects(n.refs); err != nil {
		return nil, nil, err
	}
	if targets, err = n.readObjects(n.targets); err != nil {
		return nil, nil, err
	}
	return cards, targets, nil
}

func (n *netSUT) durable() (cards, targets []CredCard, err error) {
	if n.def.store != "eos" {
		return nil, nil, nil
	}
	stores, err := reopenCopies(n.dir, len(n.nodes))
	if err != nil {
		return nil, nil, err
	}
	defer stores.close()
	if cards, err = stores.read(n.refs); err != nil {
		return nil, nil, err
	}
	targets, err = stores.read(n.targets)
	return cards, targets, err
}

func (n *netSUT) writeSpans(path string) error {
	for _, p := range n.nodes {
		if err := p.call(ctlMsg{Cmd: "spans", Path: path}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (n *netSUT) traceSet() *traceSet { return nil }

// routerAdded times a synchronous three-request snapshot transaction
// through the router and straight at the owning node, on an otherwise
// idle fleet, and returns what the router adds per request in µs.
func (n *netSUT) routerAdded() (float64, error) {
	const rounds = 300
	ref := n.refs[0]
	direct, err := server.DialMux(n.nodes[n.ring.Owner(ref)].addr, server.ClientOptions{RequestTimeout: 20 * time.Second})
	if err != nil {
		return 0, err
	}
	defer direct.Close()
	rtt := func(sess *server.MuxSession) (float64, error) {
		var c CredCard
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if err := sess.BeginSnapshot(); err != nil {
				return 0, err
			}
			if err := sess.Get(ref, &c); err != nil {
				return 0, err
			}
			if err := sess.Commit(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / rounds / 3 / 1e3, nil
	}
	via, err := rtt(n.workers[0].sess)
	if err != nil {
		return 0, err
	}
	straight, err := rtt(direct.Session())
	if err != nil {
		return 0, err
	}
	return via - straight, nil
}

func (n *netSUT) close() {
	for _, m := range n.muxes {
		m.Close()
	}
	n.muxes = nil
	var wg sync.WaitGroup
	procs := n.nodes
	if n.router != nil {
		procs = append([]*proc{n.router}, procs...)
	}
	for _, p := range procs {
		wg.Add(1)
		go func(p *proc) { defer wg.Done(); p.stop() }(p)
	}
	wg.Wait()
	n.nodes, n.router = nil, nil
	if n.dir != "" {
		removeScratch(n.dir)
		n.dir = ""
	}
}
