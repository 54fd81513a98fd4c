package experiments

import (
	"bytes"
	"fmt"
	"math/rand"

	"ode/internal/baseline/rescan"
	"ode/internal/baseline/sentinel"
	"ode/internal/core"
	"ode/internal/event"
	"ode/internal/eventexpr"
	"ode/internal/fsm"
	"ode/internal/obj"
	"ode/internal/workload"
)

// E1 reproduces Figure 1: the AutoRaiseLimit event expression compiles to
// the paper's four-state extended FSM.
func (r *Runner) E1() Result {
	res := Result{ID: "E1", Title: "Figure 1 FSM reproduction"}
	r.header("E1", res.Title, "Figure 1, §5.1.2",
		"relative((after Buy & MoreCred()), after PayBill) compiles to a 4-state machine with one mask state")
	db, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	bc, _ := db.ClassOf("CredCard")
	bt, _ := bc.TriggerByName("AutoRaiseLimit")
	m := bt.Machine

	describe := func(id event.ID) string {
		if info, ok := db.Registry().Info(id); ok {
			return info.Decl.String()
		}
		return fmt.Sprintf("e%d", id)
	}
	fmt.Fprint(r.W, m.Format(describe))

	buyID, _ := bc.EventID("after Buy")
	payID, _ := bc.EventID("after PayBill")
	bigID, _ := bc.EventID("BigBuy")
	structureOK := m.NumStates() == 4 &&
		m.States[0].Mask == fsm.NoMask && !m.States[0].Accept &&
		m.States[1].Mask != fsm.NoMask &&
		m.Masks[m.States[1].Mask] == "MoreCred" &&
		m.States[1].OnTrue == 2 && m.States[1].OnFalse == 0 &&
		m.States[3].Accept
	// Edge labels of Figure 1.
	moves := func(s int32, ev event.ID) int32 {
		next, _, _ := m.Advance(s, ev, func(string) (bool, error) { return true, nil })
		return next
	}
	edgesOK := moves(0, bigID) == 0 && moves(0, payID) == 0 &&
		moves(2, bigID) == 2 && moves(2, buyID) == 2 && moves(2, payID) == 3

	res.Passed = structureOK && edgesOK
	res.Summary = fmt.Sprintf("%d states, mask state 1 (True->2, False->0), accept state 3", m.NumStates())
	fmt.Fprintf(r.W, "structure matches Figure 1: %v\n", res.Passed)
	return res
}

// E2 measures event posting cost: Ode's unique-integer eventReps versus
// Sentinel's (class, prototype, modifier) string triples (§7).
func (r *Runner) E2() Result {
	res := Result{ID: "E2", Title: "integer eventReps vs Sentinel string triples"}
	r.header("E2", res.Title, "§5.2, §7",
		"mapping basic events to globally unique integers gives significantly lower posting overhead than string triples")
	n := r.Cfg.scale(2_000_000)
	const eventsPerClass = 8
	fmt.Fprintf(r.W, "%-8s %-8s %14s %14s %8s\n", "classes", "events", "triple ns/op", "int ns/op", "ratio")

	ok := true
	var lastRatio float64
	for _, classes := range []int{1, 16, 64} {
		total := classes * eventsPerClass
		triples := make([]sentinel.EventTriple, 0, total)
		treg := sentinel.NewRegistry()
		ireg := sentinel.NewIntRegistry(total + 1)
		ereg := event.NewRegistry()
		ids := make([]event.ID, 0, total)
		hits := 0
		for c := 0; c < classes; c++ {
			for e := 0; e < eventsPerClass; e++ {
				tr := sentinel.EventTriple{
					Class:     fmt.Sprintf("Class%03d", c),
					Prototype: fmt.Sprintf("void member%d(Merchant*, float, const char*)", e),
					Modifier:  "end",
				}
				triples = append(triples, tr)
				treg.Subscribe(tr, func(sentinel.EventTriple) { hits++ })
				id := ereg.Register(tr.Class, event.After(fmt.Sprintf("member%d", e)))
				ids = append(ids, id)
				ireg.Subscribe(id, func(event.ID) { hits++ })
			}
		}
		rnd := rand.New(rand.NewSource(1))
		order := make([]int, n)
		for i := range order {
			order[i] = rnd.Intn(total)
		}
		tripleNs := bestOp(n, func(i int) { treg.Post(triples[order[i]]) })
		intNs := bestOp(n, func(i int) { ireg.Post(ids[order[i]]) })
		ratio := tripleNs / intNs
		lastRatio = ratio
		fmt.Fprintf(r.W, "%-8d %-8d %14.1f %14.1f %7.1fx\n", classes, total, tripleNs, intNs, ratio)
		if intNs >= tripleNs {
			ok = false
		}
	}
	res.Passed = ok
	res.Summary = fmt.Sprintf("integers beat triples (last ratio %.1fx)", lastRatio)
	return res
}

// E3 verifies design goal 3: only objects of classes with triggers pay
// trigger overhead — and objects with no *active* triggers pay only the
// header-bit test. The verdict is counted, not timed: registry deltas
// over the timed loop show every posting on an inactive object taking
// the header fast path with no mask evaluated and no more store reads
// than a class without events, while an active trigger evaluates its
// mask on every posting and reads the index and its TriggerState.
func (r *Runner) E3() Result {
	res := Result{ID: "E3", Title: "trigger overhead only where triggers exist"}
	r.header("E3", res.Title, "design goal 3, §5.4.5 footnote 3",
		"invocations on trigger-free objects skip the index lookup via the object's control information")

	plain := core.MustClass("Plain",
		core.Factory(func() any { return new(CredCard) }),
		core.Method("Buy", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*CredCard)
			c.CurrBal += args[0].(float64)
			return nil, nil
		}),
	)
	db, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	if err := db.Register(plain); err != nil {
		res.Summary = err.Error()
		return res
	}

	counters := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, mv := range db.Observability().Snapshot() {
			out[mv.Name] = mv.Value
		}
		return out
	}
	type variant struct {
		ns                         float64
		calls, posts, skips, masks uint64
		readsPerCall               float64
	}
	n := r.Cfg.scale(100_000)
	measure := func(class string, activate bool) variant {
		tx := db.Begin()
		ref, _ := db.Create(tx, class, &CredCard{CredLim: 1e12, GoodHist: true})
		if activate {
			if _, err := db.Activate(tx, ref, "DenyCredit"); err != nil {
				panic(err)
			}
		}
		tx.Commit()
		btx := db.Begin()
		var v variant
		before := counters()
		v.ns = bestOp(n, func(int) {
			v.calls++
			if _, err := db.Invoke(btx, ref, "Buy", 1.0); err != nil {
				panic(err)
			}
		})
		after := counters()
		btx.Commit()
		delta := func(name string) uint64 { return after[name] - before[name] }
		v.posts, v.skips, v.masks = delta("core.events_posted"), delta("core.fast_path_skips"), delta("core.masks_evaluated")
		v.readsPerCall = float64(delta("storage.reads")) / float64(v.calls)
		return v
	}
	plainV := measure("Plain", false)
	inactive := measure("CredCard", false)
	active := measure("CredCard", true)
	fmt.Fprintf(r.W, "%-28s %12s %10s %10s %10s %12s\n", "variant", "ns/Invoke", "postings", "fast-path", "masks", "reads/Invoke")
	for _, row := range []struct {
		name string
		v    variant
	}{
		{"no events declared", plainV},
		{"events, no active trigger", inactive},
		{"active trigger (mask eval)", active},
	} {
		fmt.Fprintf(r.W, "%-28s %12.0f %10d %10d %10d %12.2f\n",
			row.name, row.v.ns, row.v.posts, row.v.skips, row.v.masks, row.v.readsPerCall)
	}
	fastPath := inactive.posts == inactive.calls && inactive.skips == inactive.posts &&
		inactive.masks == 0 && inactive.readsPerCall == plainV.readsPerCall
	slowPath := active.posts == active.calls && active.masks == active.posts &&
		active.readsPerCall > inactive.readsPerCall
	res.Passed = fastPath && slowPath
	res.Summary = fmt.Sprintf("inactive: %d/%d postings on the fast path, %d masks, %.2f reads/Invoke (plain %.2f); active: %d masks for %d postings, %.2f reads/Invoke",
		inactive.skips, inactive.posts, inactive.masks, inactive.readsPerCall, plainV.readsPerCall,
		active.masks, active.posts, active.readsPerCall)
	return res
}

// E4 verifies design goal 4: volatile objects pay nothing — a direct Go
// method call versus the persistent Invoke path.
func (r *Runner) E4() Result {
	res := Result{ID: "E4", Title: "volatile calls pay no trigger overhead"}
	r.header("E4", res.Title, "design goal 4, §5.3",
		"member functions invoked on volatile objects do not post events (no wrapper, no overhead)")
	db, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	ref, err := mustCard(db, 1e12)
	if err != nil {
		res.Summary = err.Error()
		return res
	}

	n := r.Cfg.scale(2_000_000)
	volatileCard := &CredCard{CredLim: 1e12}
	buy := func(c *CredCard, amt float64) { c.CurrBal += amt }
	volatileNs := perOp(n, func(int) { buy(volatileCard, 1) })

	nInv := r.Cfg.scale(100_000)
	tx := db.Begin()
	persistentNs := perOp(nInv, func(int) {
		if _, err := db.Invoke(tx, ref, "Buy", 1.0); err != nil {
			panic(err)
		}
	})
	tx.Commit()
	posted := db.Stats().EventsPosted

	fmt.Fprintf(r.W, "volatile direct call: %10.2f ns/op (events posted: 0)\n", volatileNs)
	fmt.Fprintf(r.W, "persistent Invoke:    %10.2f ns/op (events posted: %d)\n", persistentNs, posted)
	res.Passed = volatileNs*10 < persistentNs && posted > 0
	res.Summary = fmt.Sprintf("volatile %.0fx cheaper; zero events posted by direct calls", persistentNs/volatileNs)
	return res
}

// E5 verifies design goal 2: FSM detection versus re-scanning the event
// history, across expression depth and stream length.
func (r *Runner) E5() Result {
	res := Result{ID: "E5", Title: "FSM detection vs history re-scan"}
	r.header("E5", res.Title, "design goal 2, §5.1",
		"composite events are detected efficiently: FSM cost is O(1) per event; re-scanning grows with history")

	const k = 4
	reg := event.NewRegistry()
	ids := make(map[string]event.ID, k)
	var alpha []event.ID
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("E%d", i)
		id := reg.Register("Bench", event.User(name))
		ids[name] = id
		alpha = append(alpha, id)
	}
	resolve := func(n *eventexpr.Name) (event.ID, error) {
		id, ok := ids[n.String()]
		if !ok {
			return event.None, fmt.Errorf("unknown event %q", n.String())
		}
		return id, nil
	}

	lengths := []int{100, 1000, 10000}
	rescanCap := 1000
	if r.Cfg.Quick {
		lengths = []int{100, 500}
		rescanCap = 200
	}
	fmt.Fprintf(r.W, "%-6s %-8s %14s %14s %10s\n", "depth", "stream", "fsm ns/ev", "rescan ns/ev", "speedup")
	ok := true
	var worst float64 = 1e18
	for depth, src := range workload.Expressions(k) {
		parsed := eventexpr.MustParse(src)
		m, err := fsm.Compile(parsed, fsm.Options{Resolve: resolve, Alphabet: alpha})
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		for _, length := range lengths {
			stream := workload.EventStream(int64(depth), length, k)
			evs := make([]event.ID, length)
			for i, e := range stream {
				evs[i] = alpha[e]
			}
			// FSM: feed the whole stream repeatedly.
			reps := r.Cfg.scale(2_000_000) / length
			if reps < 1 {
				reps = 1
			}
			state := m.Start
			fsmNs := perOp(reps*length, func(i int) {
				next, _, _ := m.Advance(state, evs[i%length], nil)
				state = next
			})
			// Rescan: one pass over a capped stream (it is quadratic).
			rl := length
			if rl > rescanCap {
				rl = rescanCap
			}
			d, err := rescan.New(parsed, resolve, alpha, nil)
			if err != nil {
				res.Summary = err.Error()
				return res
			}
			rescanNs := perOp(rl, func(i int) {
				if _, err := d.Post(evs[i]); err != nil {
					panic(err)
				}
			})
			speedup := rescanNs / fsmNs
			if speedup < worst {
				worst = speedup
			}
			note := ""
			if rl < length {
				note = fmt.Sprintf(" (rescan capped at %d events)", rl)
			}
			fmt.Fprintf(r.W, "%-6d %-8d %14.1f %14.1f %9.0fx%s\n", depth+1, length, fsmNs, rescanNs, speedup, note)
			if length >= 1000 && fsmNs >= rescanNs {
				ok = false
			}
		}
	}
	res.Passed = ok
	res.Summary = fmt.Sprintf("FSM wins everywhere at scale (min speedup %.0fx)", worst)
	return res
}

// E6 reproduces the §6 experience: the dense 2-D transition matrix is
// very space inefficient for sparse machines, which is why Ode switched
// to sparse transition lists over globally unique event integers.
func (r *Runner) E6() Result {
	res := Result{ID: "E6", Title: "sparse transition lists vs dense matrix"}
	r.header("E6", res.Title, "§6",
		"the planned 2-D array representation is very space inefficient for sparse machines; sparse lists win in space and stay competitive in time")

	// §6's planned representation indexes the matrix directly by the
	// event integer. With globally unique IDs, the matrix width is the
	// application-wide event count even though each class's machine uses
	// only its own handful — that is the sparsity the paper gave up the
	// dense form over. Sweep the number of classes in the application
	// while keeping the measured class fixed at 8 events.
	const perClass = 8
	fmt.Fprintf(r.W, "%-14s %10s %12s %14s %9s %12s %12s\n",
		"app classes", "event IDs", "sparse B", "dense(2-D) B", "ratio", "sparse ns", "dense ns")
	ok := true
	prevRatio := 0.0
	n := r.Cfg.scale(2_000_000)
	for _, classes := range []int{1, 16, 64, 256} {
		reg := event.NewRegistry()
		// Other classes in the application register their events first.
		for c := 1; c < classes; c++ {
			for e := 0; e < perClass; e++ {
				reg.Register(fmt.Sprintf("Other%d", c), event.User(fmt.Sprintf("E%d", e)))
			}
		}
		// The measured class registers last, so its IDs sit at the top of
		// the global space.
		ids := make(map[string]event.ID, perClass)
		var alpha []event.ID
		var maxID event.ID
		for e := 0; e < perClass; e++ {
			name := fmt.Sprintf("E%d", e)
			id := reg.Register("Measured", event.User(name))
			ids[name] = id
			alpha = append(alpha, id)
			if id > maxID {
				maxID = id
			}
		}
		parsed := eventexpr.MustParse("E0, E1")
		m, err := fsm.Compile(parsed, fsm.Options{
			Resolve:  func(nm *eventexpr.Name) (event.ID, error) { return ids[nm.String()], nil },
			Alphabet: alpha,
		})
		if err != nil {
			res.Summary = err.Error()
			return res
		}
		d := fsm.NewDenseIndexed(m, maxID)
		stream := workload.EventStream(int64(classes), 4096, perClass)
		evs := make([]event.ID, len(stream))
		for i, e := range stream {
			evs[i] = alpha[e]
		}
		var st int32 = m.Start
		sparseNs := bestOp(n, func(i int) {
			next, _, _ := m.Advance(st, evs[i%len(evs)], nil)
			st = next
		})
		st = m.Start
		denseNs := bestOp(n, func(i int) {
			next, _, _ := d.Advance(st, evs[i%len(evs)], nil)
			st = next
		})
		ratio := float64(d.MemoryFootprint()) / float64(m.MemoryFootprint())
		fmt.Fprintf(r.W, "%-14d %10d %12d %14d %8.1fx %12.1f %12.1f\n",
			classes, reg.Len(), m.MemoryFootprint(), d.MemoryFootprint(), ratio, sparseNs, denseNs)
		if ratio <= prevRatio {
			ok = false // dense waste must grow with application size
		}
		prevRatio = ratio
		if sparseNs > denseNs*3 {
			ok = false // sparse must stay competitive in time
		}
	}
	res.Passed = ok && prevRatio > 10
	res.Summary = fmt.Sprintf("dense 2-D matrix reaches %.0fx the sparse footprint in a 256-class application", prevRatio)
	return res
}

// E7 verifies design goal 5 / §5.1.3: trigger state lives outside the
// object, so activation never changes the stored object payload; the
// price is the hash-index lookup, measured against active-trigger count.
func (r *Runner) E7() Result {
	res := Result{ID: "E7", Title: "out-of-object trigger state; index lookup cost"}
	r.header("E7", res.Title, "design goal 5, §5.1.3, §6",
		"activating/deactivating triggers must not change object layout (no data conversion); the object→trigger index pays per active trigger")

	db, err := memDB()
	if err != nil {
		res.Summary = err.Error()
		return res
	}
	defer db.Close()
	ref, err := mustCard(db, 1e12)
	if err != nil {
		res.Summary = err.Error()
		return res
	}

	payload := func() []byte {
		img, err := db.Store().Read(ref.OID())
		if err != nil {
			panic(err)
		}
		_, p, err := obj.DecodeEnvelope(img)
		if err != nil {
			panic(err)
		}
		return append([]byte(nil), p...)
	}
	before := payload()
	tx := db.Begin()
	if _, err := db.Activate(tx, ref, "DenyCredit"); err != nil {
		res.Summary = err.Error()
		return res
	}
	tx.Commit()
	after := payload()
	stable := bytes.Equal(before, after)
	fmt.Fprintf(r.W, "object payload identical after activation: %v (%d bytes)\n", stable, len(after))

	// Lookup cost versus number of active triggers on the object.
	n := r.Cfg.scale(50_000)
	fmt.Fprintf(r.W, "%-16s %12s\n", "active triggers", "ns/Invoke")
	costs := map[int]float64{}
	counts := []int{1, 4, 16, 64}
	current := 1 // DenyCredit from above
	for _, target := range counts {
		tx := db.Begin()
		for current < target {
			if _, err := db.Activate(tx, ref, "DenyCredit"); err != nil {
				res.Summary = err.Error()
				return res
			}
			current++
		}
		tx.Commit()
		btx := db.Begin()
		costs[target] = perOp(n, func(int) {
			if _, err := db.Invoke(btx, ref, "Buy", 1.0); err != nil {
				panic(err)
			}
		})
		btx.Commit()
		fmt.Fprintf(r.W, "%-16d %12.0f\n", target, costs[target])
	}
	res.Passed = stable && costs[64] > costs[1]
	res.Summary = fmt.Sprintf("payload stable; 64 triggers cost %.1fx of 1", costs[64]/costs[1])
	return res
}
