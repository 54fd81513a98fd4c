package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"ode/internal/antientropy"
	"ode/internal/server"
	"ode/internal/storage"
	"ode/internal/storage/eos"
	"ode/internal/wal"
)

// Tuning constants for the anti-entropy exchange. The symbol stream is
// rateless, so these only shape batching and the give-up point, never
// correctness.
const (
	// reconBuckets is the digest-walk width offered in the recon frame.
	reconBuckets = 64
	// reconMaxBatch caps one sym frame's worth of coded symbols.
	reconMaxBatch = 4096
	// reconReadTimeout bounds each wait for the peer's next frame
	// during an exchange (both sides; an exchange is request/response,
	// unlike the one-way subscribe stream).
	reconReadTimeout = 30 * time.Second
)

// errReconAbort reports that the exchange was abandoned in favor of a
// full snapshot (the decoder's symbol budget ran out, meaning the
// difference is comparable to the store itself).
var errReconAbort = errors.New("repl: reconciliation aborted, falling back to snapshot")

// serveRecon runs the primary half of one anti-entropy exchange on an
// established stream connection: offer the fenced digest inventory,
// answer "more" requests with coded-symbol batches, and ship the
// divergent objects the peer asks for. Returns the inventory's capture
// LSN — the position a subscribe stream must resume from so the
// repaired store plus the following records equals a log replay.
// aborted means the peer gave up (or never needed anything beyond the
// digests); the caller falls back to a snapshot or just moves on.
// class, when non-zero, scopes the offered inventory to that catalog
// class (the peer must scope its own side identically).
func (h *Hub) serveRecon(conn net.Conn, enc *json.Encoder, dec *json.Decoder, clearDeadline bool, class uint32) (capture wal.LSN, aborted bool, err error) {
	if clearDeadline {
		// The subscribe stream runs without read deadlines; restore that
		// once the request/response exchange is over.
		defer conn.SetReadDeadline(time.Time{})
	}
	capture, nextOID, items, err := exportScoped(h.store, class)
	if err != nil {
		enc.Encode((&Frame{T: FrameErr, Err: err.Error()}).seal())
		return 0, false, err
	}
	h.reconSessions.Inc()
	root := antientropy.DigestSet(items)
	offer := &Frame{
		T:       FrameRecon,
		LSN:     uint64(capture),
		NextOID: uint64(nextOID),
		N:       uint64(len(items)),
		Root:    &root,
		Buckets: antientropy.DigestBuckets(items, reconBuckets),
	}
	if err := enc.Encode(offer.seal()); err != nil {
		return 0, false, err
	}
	var symEnc *antientropy.Encoder
	for {
		conn.SetReadDeadline(time.Now().Add(reconReadTimeout))
		var f Frame
		if err := dec.Decode(&f); err != nil {
			return 0, false, err
		}
		if err := checkSum(&f); err != nil {
			return 0, false, err
		}
		switch f.T {
		case FrameMore:
			if f.N == 0 {
				return 0, true, nil // peer wants the full snapshot
			}
			n := f.N
			if n > reconMaxBatch {
				n = reconMaxBatch
			}
			if symEnc == nil {
				symEnc = antientropy.NewEncoder(items)
			}
			batch := &Frame{T: FrameSym, Syms: make([]antientropy.CodedSymbol, n)}
			for i := range batch.Syms {
				batch.Syms[i] = symEnc.Next()
			}
			if err := enc.Encode(batch.seal()); err != nil {
				return 0, false, err
			}
			h.symbolsSent.Add(n)
		case FrameNeed:
			for _, oid := range f.OIDs {
				data, err := h.store.Read(storage.OID(oid))
				obj := &Frame{T: FrameObj, OID: oid, Data: data}
				if errors.Is(err, storage.ErrNotFound) {
					// Freed on the primary after the digest capture; the
					// peer frees it locally and the record stream replays
					// the free idempotently anyway.
					obj = &Frame{T: FrameObj, OID: oid, Gone: true}
				} else if err != nil {
					enc.Encode((&Frame{T: FrameErr, Err: err.Error()}).seal())
					return 0, false, err
				}
				if err := enc.Encode(obj.seal()); err != nil {
					return 0, false, err
				}
				h.reconObjects.Inc()
			}
			if err := enc.Encode((&Frame{T: FrameReconEnd, End: uint64(h.store.Log().End())}).seal()); err != nil {
				return 0, false, err
			}
			return capture, false, nil
		case FrameReconEnd:
			// Peer is satisfied with the digests alone (in sync, or a
			// verify pass that doesn't want images).
			return capture, false, nil
		default:
			return 0, false, fmt.Errorf("repl: unexpected frame %q during reconciliation", f.T)
		}
	}
}

// handleRecon serves OpRecon: one anti-entropy exchange and the
// connection is done. Request.ID, when non-zero, is the catalog class ID
// scoping the exchange to one class.
func (h *Hub) handleRecon(conn net.Conn, req *server.Request) error {
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	h.serveRecon(conn, enc, dec, false, uint32(req.ID))
	return nil
}

// exportScoped captures a digest inventory, whole-store (class 0) or
// restricted to one catalog class. Scoping still fences the full store
// state — the capture LSN is the same either way.
func exportScoped(store *eos.Manager, class uint32) (wal.LSN, storage.OID, []antientropy.Item, error) {
	if class == 0 {
		return store.ExportDigests()
	}
	lsn, nextOID, tagged, err := store.ExportClassDigests()
	if err != nil {
		return 0, 0, nil, err
	}
	return lsn, nextOID, antientropy.FilterClass(tagged, class), nil
}

// --- replica side ------------------------------------------------------------

// reconResult is one completed exchange seen from the replica: the
// primary's capture point, the decoded symmetric difference, and (when
// images were fetched) the divergent objects themselves.
type reconResult struct {
	captureLSN uint64
	nextOID    uint64
	remoteN    uint64 // primary's object count at capture
	symbols    uint64 // coded symbols consumed
	inSync     bool   // roots matched; no symbols flowed

	remoteOnly []antientropy.Item // present on primary, absent/different here
	localOnly  []antientropy.Item // present here, absent/different on primary

	// objs maps each fetched OID to its primary image; a nil entry
	// means the primary freed it (ship a local free). Only populated
	// when the exchange was run with fetch=true.
	objs map[uint64][]byte
	end  uint64 // primary durable end as of reconend (0 if not fetched)
}

// diffOIDs returns the divergent OIDs (union of both sides), sorted.
func (res *reconResult) diffOIDs() []uint64 {
	seen := map[uint64]bool{}
	for _, it := range res.remoteOnly {
		seen[it.Key] = true
	}
	for _, it := range res.localOnly {
		seen[it.Key] = true
	}
	out := make([]uint64, 0, len(seen))
	for oid := range seen {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runRecon drives the replica half of an exchange whose opening recon
// frame has already been decoded into f. With fetch=true it asks for
// the divergent images (rejoin/repair); with fetch=false it stops at
// the decoded difference (verify). only, when non-nil, restricts the
// fetched set to those OIDs. class, when non-zero, scopes the local
// inventory to that catalog class and must match what the primary was
// asked to offer. Returns errReconAbort when the symbol budget runs
// out before the difference decodes.
func (r *Replica) runRecon(f *Frame, conn net.Conn, enc *json.Encoder, dec *json.Decoder, fetch bool, only map[uint64]bool, class uint32) (*reconResult, error) {
	_, _, items, err := exportScoped(r.store, class)
	if err != nil {
		return nil, err
	}
	res := &reconResult{captureLSN: f.LSN, nextOID: f.NextOID, remoteN: f.N}
	if f.Root != nil && antientropy.DigestSet(items).Equal(*f.Root) {
		if err := enc.Encode((&Frame{T: FrameReconEnd}).seal()); err != nil {
			return nil, err
		}
		res.inSync = true
		return res, nil
	}

	// Size the first ask from the digest walk: each differing bucket
	// holds at least one divergent item, and decoding d items takes a
	// small multiple of d symbols.
	ask := uint64(8)
	if f.Buckets != nil {
		ask += 4 * uint64(antientropy.DiffBuckets(antientropy.DigestBuckets(items, len(f.Buckets)), f.Buckets))
	}
	sdec := antientropy.NewDecoder(items)
	budget := uint64(6*(len(items)+int(f.N)) + 64)
	for !sdec.Decoded() {
		if res.symbols >= budget {
			// The difference is on the order of the store itself; a full
			// snapshot is cheaper than continuing to stream symbols.
			enc.Encode((&Frame{T: FrameMore, N: 0}).seal())
			return nil, errReconAbort
		}
		if ask > reconMaxBatch {
			ask = reconMaxBatch
		}
		if err := enc.Encode((&Frame{T: FrameMore, N: ask}).seal()); err != nil {
			return nil, err
		}
		conn.SetReadDeadline(time.Now().Add(reconReadTimeout))
		var sf Frame
		if err := dec.Decode(&sf); err != nil {
			return nil, err
		}
		if err := checkSum(&sf); err != nil {
			return nil, err
		}
		if sf.T == FrameErr {
			return nil, fmt.Errorf("repl: primary: %s", sf.Err)
		}
		if sf.T != FrameSym {
			return nil, fmt.Errorf("repl: expected sym frame, got %q", sf.T)
		}
		for i := range sf.Syms {
			sdec.AddSymbol(sf.Syms[i])
			res.symbols++
			r.symbolsReceived.Inc()
			if sdec.Decoded() {
				break
			}
		}
		ask *= 2
	}
	res.remoteOnly, res.localOnly = sdec.Diff()
	r.diffsDecoded.Add(uint64(len(res.remoteOnly) + len(res.localOnly)))

	if !fetch {
		if err := enc.Encode((&Frame{T: FrameReconEnd}).seal()); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Fetch the images for everything the primary has that we lack (a
	// modified object is remote-only + local-only under one OID; the
	// image covers it). Local-only OIDs with no remote counterpart are
	// frees and need no bytes.
	need := make([]uint64, 0, len(res.remoteOnly))
	for _, it := range res.remoteOnly {
		if only != nil && !only[it.Key] {
			continue
		}
		need = append(need, it.Key)
	}
	sort.Slice(need, func(i, j int) bool { return need[i] < need[j] })
	if err := enc.Encode((&Frame{T: FrameNeed, OIDs: need}).seal()); err != nil {
		return nil, err
	}
	res.objs = make(map[uint64][]byte, len(need))
	for {
		conn.SetReadDeadline(time.Now().Add(reconReadTimeout))
		var of Frame
		if err := dec.Decode(&of); err != nil {
			return nil, err
		}
		if err := checkSum(&of); err != nil {
			return nil, err
		}
		switch of.T {
		case FrameObj:
			if of.Gone {
				res.objs[of.OID] = nil
			} else {
				data := make([]byte, len(of.Data))
				copy(data, of.Data)
				res.objs[of.OID] = data
			}
		case FrameReconEnd:
			res.end = of.End
			return res, nil
		case FrameErr:
			return nil, fmt.Errorf("repl: primary: %s", of.Err)
		default:
			return nil, fmt.Errorf("repl: unexpected frame %q while fetching objects", of.T)
		}
	}
}

// reconOps turns a fetched exchange into one replicated batch: writes
// for every image the primary shipped, frees for objects the primary
// lacks (including ones it freed mid-exchange). only, when non-nil,
// restricts the repair to those OIDs.
func (res *reconResult) reconOps(only map[uint64]bool) []storage.Op {
	remote := map[uint64]bool{}
	for _, it := range res.remoteOnly {
		remote[it.Key] = true
	}
	ops := make([]storage.Op, 0, len(res.objs)+len(res.localOnly))
	for _, oid := range res.diffOIDs() {
		if only != nil && !only[oid] {
			continue
		}
		if data, ok := res.objs[oid]; ok {
			if data == nil {
				ops = append(ops, storage.Op{Kind: storage.OpFree, OID: storage.OID(oid)})
			} else {
				ops = append(ops, storage.Op{Kind: storage.OpWrite, OID: storage.OID(oid), Data: data})
			}
			continue
		}
		if !remote[oid] {
			// Only we have it; the primary never did (or freed it).
			ops = append(ops, storage.Op{Kind: storage.OpFree, OID: storage.OID(oid)})
		}
	}
	return ops
}
