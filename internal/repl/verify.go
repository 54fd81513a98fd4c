package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"ode/internal/obs"
	"ode/internal/server"
	"ode/internal/storage"
)

// Typed verify outcomes. ErrDiverged is returned by a detect-only audit
// that confirmed divergence; ErrRepairFailed when repair retries ran
// out without converging; ErrLagged when the replica could not catch up
// to the primary's capture point, so lag and divergence cannot be told
// apart.
var (
	ErrDiverged     = errors.New("repl: replica diverged from primary")
	ErrRepairFailed = errors.New("repl: divergence repair did not converge")
	ErrLagged       = errors.New("repl: replica lagging; divergence audit inconclusive")
)

// VerifyOptions tunes the online divergence audit.
type VerifyOptions struct {
	// Repair authorizes in-place repair of confirmed divergence.
	Repair bool
	// Class, when non-zero, scopes the audit (and any repair) to one
	// catalog class: both sides digest only that class's objects, so
	// the exchange costs O(class) instead of O(store) and the report
	// never names an OID outside the class. The repl.verify op maps a
	// class name to this ID; class IDs are identical on primary and
	// replica because the catalog itself replicates.
	Class uint32
	// BackoffBase/BackoffMax shape the capped exponential backoff
	// between rounds and repair attempts (defaults 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

const (
	// verifyRounds caps the audit rounds used to separate real
	// divergence from replication churn (two consecutive rounds must
	// agree, so at least 2).
	verifyRounds = 4
	// repairAttempts caps repair→confirm cycles.
	repairAttempts = 3
	// catchUpWait bounds the per-round wait for the replica's applied
	// position to reach the primary's capture LSN; it must stay under
	// the exchange's read timeout.
	catchUpWait = 10 * time.Second
)

// VerifyReport is the audit's outcome, served by the repl.verify op.
type VerifyReport struct {
	InSync bool `json:"in_sync"`
	// Diverged lists OIDs whose (local, remote) digest pair persisted
	// across consecutive rounds with the replica caught up — real
	// divergence, not stream lag.
	Diverged []uint64 `json:"diverged,omitempty"`
	// Repaired lists OIDs rewritten or freed by an authorized repair.
	Repaired []uint64 `json:"repaired,omitempty"`
	// Unstable counts diff entries that kept changing between rounds
	// (objects being rewritten by the live stream); they self-heal.
	Unstable       int    `json:"unstable,omitempty"`
	Rounds         int    `json:"rounds"`
	Symbols        uint64 `json:"symbols"`
	CaptureLSN     uint64 `json:"capture_lsn"`
	PrimaryObjects uint64 `json:"primary_objects"`
	// Class echoes the scoping catalog class ID (0 = whole store);
	// PrimaryObjects counts only that class when set.
	Class uint32 `json:"class,omitempty"`
}

// digestPair is one OID's claim on both sides of an exchange; equal
// pairs across two caught-up rounds confirm divergence (a live-stream
// rewrite would have changed at least one side between captures).
type digestPair struct {
	local, remote       uint64
	hasLocal, hasRemote bool
}

func pairsOf(res *reconResult) map[uint64]digestPair {
	m := make(map[uint64]digestPair, len(res.remoteOnly)+len(res.localOnly))
	for _, it := range res.remoteOnly {
		p := m[it.Key]
		p.remote, p.hasRemote = it.Digest, true
		m[it.Key] = p
	}
	for _, it := range res.localOnly {
		p := m[it.Key]
		p.local, p.hasLocal = it.Digest, true
		m[it.Key] = p
	}
	return m
}

func sortedOIDs(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for oid := range set {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verify audits this replica's store against the primary over the
// repl.recon op and reports whether they agree. It is safe on a
// running replica (the audit distinguishes divergence from stream lag
// by requiring the replica to catch up to each capture point and the
// divergent digest pair to persist across consecutive rounds) and on a
// stopped one (position equality substitutes for catch-up). On
// confirmed divergence it bumps repl.diverged, records a "divergence"
// flight incident, and — only when opts.Repair is set — rewrites the
// divergent objects in place with typed, capped-backoff retries.
func (r *Replica) Verify(opts VerifyOptions) (*VerifyReport, error) {
	r.verifyMu.Lock()
	defer r.verifyMu.Unlock()
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	r.verifyRuns.Inc()

	rep := &VerifyReport{Class: opts.Class}
	bo := server.Backoff{Base: opts.BackoffBase, Max: opts.BackoffMax}
	var prev map[uint64]digestPair
	var lastErr error
	for round := 0; round < verifyRounds; round++ {
		if round > 0 {
			time.Sleep(bo.Next())
		}
		res, err := r.verifyRound(nil, opts.Class)
		if err != nil {
			if errors.Is(err, ErrLagged) {
				return rep, err
			}
			lastErr = err // transient link failure: burn a round, retry
			continue
		}
		rep.Rounds++
		rep.Symbols += res.symbols
		rep.CaptureLSN = res.captureLSN
		rep.PrimaryObjects = res.remoteN
		if res.inSync || len(res.remoteOnly)+len(res.localOnly) == 0 {
			rep.InSync = true
			return rep, nil
		}
		pairs := pairsOf(res)
		if prev == nil {
			prev = pairs
			continue
		}
		stable := map[uint64]bool{}
		for oid, p := range pairs {
			if q, ok := prev[oid]; ok && q == p {
				stable[oid] = true
			}
		}
		rep.Unstable = len(pairs) - len(stable)
		if len(stable) == 0 {
			// Pure churn: every diff entry moved between captures, which
			// is the signature of the live stream rewriting hot objects.
			prev = pairs
			continue
		}
		rep.Diverged = sortedOIDs(stable)
		r.diverged.Add(uint64(len(stable)))
		obs.Flight().Record(obs.IncDivergence, obs.Cause{}, obs.Cause{}, uint64(len(stable)),
			fmt.Sprintf("%d objects differ from primary %s", len(stable), r.primary))
		if !opts.Repair {
			return rep, ErrDiverged
		}
		return r.repairDiverged(rep, stable, opts, &bo)
	}
	if lastErr != nil && rep.Rounds == 0 {
		return rep, fmt.Errorf("repl: verify could not complete a round: %w", lastErr)
	}
	// Rounds exhausted without two consecutive matching diffs: nothing
	// confirmable under live churn.
	rep.InSync = rep.Unstable == 0 && len(prev) == 0
	return rep, nil
}

// verifyRound runs one exchange against the primary. fetch, when
// non-nil, requests the primary images for those OIDs (repair);
// nil stops at the decoded difference (audit). class, when non-zero,
// scopes both sides' inventories to that catalog class. Each round
// waits for the replica to catch up to the primary's capture LSN so
// the decoded difference cannot be explained by un-applied history.
func (r *Replica) verifyRound(fetch map[uint64]bool, class uint32) (*reconResult, error) {
	conn, err := r.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	if err := enc.Encode(&server.Request{Op: OpRecon, ID: uint64(class)}); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(reconReadTimeout))
	var f Frame
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if err := checkSum(&f); err != nil {
		return nil, err
	}
	if f.T == FrameErr {
		return nil, fmt.Errorf("repl: primary: %s", f.Err)
	}
	if f.T != FrameRecon {
		return nil, fmt.Errorf("repl: expected recon frame, got %q", f.T)
	}
	deadline := time.Now().Add(catchUpWait)
	for r.applied.Load() < f.LSN {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: applied %d behind capture %d", ErrLagged, r.applied.Load(), f.LSN)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return r.runRecon(&f, conn, enc, dec, fetch != nil, fetch, class)
}

// repairDiverged rewrites the confirmed-divergent objects from the
// primary's images and re-audits, retrying with capped backoff until
// the divergence is gone or attempts run out.
func (r *Replica) repairDiverged(rep *VerifyReport, stable map[uint64]bool, opts VerifyOptions, bo *server.Backoff) (*VerifyReport, error) {
	var lastErr error
	for attempt := 0; attempt < repairAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		res, err := r.verifyRound(stable, opts.Class)
		if err != nil {
			lastErr = err
			continue
		}
		rep.Symbols += res.symbols
		ops := res.reconOps(stable)
		if len(ops) > 0 {
			if err := r.store.ApplyReplicated(reconTxnBase+res.captureLSN, ops); err != nil {
				lastErr = err
				continue
			}
			r.objectsRepaired.Add(uint64(len(ops)))
			r.store.EnsureNextOID(storage.OID(res.nextOID))
			repaired := map[uint64]bool{}
			for _, op := range ops {
				repaired[uint64(op.OID)] = true
			}
			rep.Repaired = sortedOIDs(repaired)
		}
		// Confirm: a fresh audit round must no longer see any of the
		// repaired OIDs in the diff.
		chk, err := r.verifyRound(nil, opts.Class)
		if err != nil {
			lastErr = err
			continue
		}
		rep.Symbols += chk.symbols
		still := 0
		for _, oid := range chk.diffOIDs() {
			if stable[oid] {
				still++
			}
		}
		if still == 0 {
			rep.InSync = chk.inSync || len(chk.remoteOnly)+len(chk.localOnly) == 0
			return rep, nil
		}
		lastErr = fmt.Errorf("%d objects still divergent after repair", still)
	}
	return rep, fmt.Errorf("%w: %v", ErrRepairFailed, lastErr)
}
