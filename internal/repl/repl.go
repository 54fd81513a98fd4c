// Package repl is log-shipping replication for the EOS-backed Ode
// database: a primary streams its durable WAL records, in log order, to
// read replicas that apply them through the same log-ordered commit
// path the primary uses for recovery.
//
// The design leans on two properties the rest of the repository already
// establishes. First, the WAL is redo-only with full after-images, so
// applying a committed batch is idempotent — a replica that re-receives
// a prefix after reconnecting converges to the same bytes. Second,
// *everything* that matters rides the log: object images, the catalog,
// clusters, and — crucially for the paper's §7 global composite events —
// the persistent TriggerState objects. Shipping the log therefore ships
// trigger FSM state, which is what lets a promoted replica resume a
// half-matched composite event exactly where the primary left it.
//
// Wire protocol (over the server package's TCP listener): a replica
// sends the ordinary JSON request
//
//	{"op":"repl.subscribe","lsn":N}
//
// and the connection switches to a one-way stream of JSON frames:
//
//	{"t":"snap","lsn":L,"next_oid":M}   snapshot bootstrap begins
//	{"t":"obj","oid":K,"data":"..."}    one object image (repeated)
//	{"t":"snapend"}                     snapshot complete; stream follows
//	{"t":"recs","lsn":L,"next":N,"end":E,"recs":[...]}  WAL records
//	{"t":"ping","end":E}                heartbeat with durable end
//	{"t":"err","err":"..."}             terminal error
//
// A snapshot is sent only when the requested position is out of range —
// below the primary's log base (checkpoint-truncated away) or beyond
// its end (the replica outlived a primary rollback). Lag is measured in
// log bytes: the primary's durable end minus the replica's applied
// position, both in the primary's LSN space.
//
// # Anti-entropy
//
// A resuming replica whose position is out of range may ask for set
// reconciliation instead of a full snapshot ({"op":"repl.subscribe",
// "lsn":N,"recon":true}): the hub fences a per-object digest inventory
// (internal/antientropy) and the two sides exchange rateless coded
// symbols until the symmetric difference decodes, after which only the
// divergent objects travel. The same exchange backs the standalone
// repl.recon stream op, which Replica.Verify uses for the online
// divergence audit and in-place repair. Frame grammar and the rejoin
// decision tree are documented in docs/REPLICATION.md.
//
// Every frame carries a semantic checksum (crc) over its meaningful
// fields, computed independently of the JSON encoding: a flipped byte
// that still parses as valid JSON (e.g. inside a base64 object image)
// is caught by the receiver, which drops the link and resumes from the
// last commit boundary instead of applying corrupt state.
package repl

import (
	"fmt"

	"ode/internal/antientropy"
)

// Frame is one streamed message. T selects which other fields are
// meaningful (see the package comment for the grammar).
type Frame struct {
	T       string    `json:"t"`
	LSN     uint64    `json:"lsn,omitempty"`      // snap/recon: capture LSN; recs: first record's LSN
	Next    uint64    `json:"next,omitempty"`     // recs: LSN just past the batch
	End     uint64    `json:"end,omitempty"`      // recs/ping/reconend: primary durable end (lag basis)
	NextOID uint64    `json:"next_oid,omitempty"` // snap/recon: primary's OID allocator position
	OID     uint64    `json:"oid,omitempty"`      // obj
	Data    []byte    `json:"data,omitempty"`     // obj (base64 via encoding/json)
	Recs    []WireRec `json:"recs,omitempty"`     // recs
	Err     string    `json:"err,omitempty"`      // err
	TS      int64     `json:"ts,omitempty"`       // ping/pong: sender timestamp (RTT measurement)

	// Anti-entropy fields (recon/sym/more/need/obj frames).
	N       uint64                    `json:"n,omitempty"`       // recon: object count; more: symbols wanted (0 = abort to snapshot)
	Root    *antientropy.SetDigest    `json:"root,omitempty"`    // recon: whole-inventory digest
	Buckets []antientropy.SetDigest   `json:"buckets,omitempty"` // recon: digest walk buckets
	Syms    []antientropy.CodedSymbol `json:"syms,omitempty"`    // sym: coded-symbol batch
	OIDs    []uint64                  `json:"oids,omitempty"`    // need: divergent objects to ship
	Gone    bool                      `json:"gone,omitempty"`    // obj: freed on the primary; free it locally

	// CRC is the semantic frame checksum (frameSum over every field
	// above, in fixed order). Zero means "absent" for compatibility
	// with peers that predate it; frameSum never returns zero.
	CRC uint64 `json:"crc,omitempty"`
}

// Frame type tags.
const (
	FrameSnap    = "snap"
	FrameObj     = "obj"
	FrameSnapEnd = "snapend"
	FrameRecs    = "recs"
	FramePing    = "ping"
	// FramePong is the only frame a replica sends *up* the stream: it
	// echoes a ping's TS so the hub can observe round-trip time on its
	// own clock. Old peers neither send nor expect it (a ping without TS
	// gets no pong), so mixed versions interoperate.
	FramePong = "pong"
	FrameErr  = "err"
	// Anti-entropy frames. Down: recon (digest offer), sym (symbol
	// batch), obj (divergent image, Gone for primary-side frees),
	// reconend (exchange complete). Up: more (request N more symbols;
	// N==0 aborts to a full snapshot), need (divergent OIDs to ship),
	// reconend (in sync / done, nothing needed).
	FrameRecon    = "recon"
	FrameSym      = "sym"
	FrameMore     = "more"
	FrameNeed     = "need"
	FrameReconEnd = "reconend"
)

// WireRec is one WAL record on the wire. Next is the LSN just past the
// record: the replica resumes from the Next of the last commit record
// it applied, which is always a transaction-batch boundary (commit
// batches are appended contiguously), so a resumed stream never starts
// mid-transaction.
type WireRec struct {
	Type uint8  `json:"k"`
	Txn  uint64 `json:"x"`
	OID  uint64 `json:"o,omitempty"`
	Data []byte `json:"d,omitempty"`
	Next uint64 `json:"n"`
}

// Each op name below is a row of the server op table.

// OpSubscribe is the wire op a replica opens its stream with; Hub.Ops
// binds the hub's handler to it.
const OpSubscribe = "repl.subscribe"

// OpRecon is the standalone anti-entropy stream op: one digest/symbol
// exchange (plus optional divergent-object shipping) and the connection
// ends. Replica.Verify drives it; Hub.Ops binds the hub's handler to it.
const OpRecon = "repl.recon"

// The replica-side admin ops (Replica.Ops binds them; docs/PROTOCOL.md
// and docs/REPLICATION.md document the request/response shapes):
const (
	// OpStatus reports the replica's applied LSN, lag, and primary.
	OpStatus = "repl.status"
	// OpPromote detaches the replica from its primary and makes it
	// writable (the §promotion runbook's switch).
	OpPromote = "repl.promote"
	// OpVerify runs the online divergence audit (optionally repairing)
	// against the primary.
	OpVerify = "repl.verify"
)

// --- semantic frame checksum -------------------------------------------------

// frameSum hashes a frame's meaningful fields, in fixed order, with
// FNV-1a 64 — independent of the JSON encoding, so both sides agree on
// it regardless of field order, base64 framing, or whitespace. The
// result is never zero (zero marks "no checksum" on the wire).
func frameSum(f *Frame) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte1 := func(b byte) { h ^= uint64(b); h *= prime64 }
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			byte1(byte(v >> (8 * i)))
		}
	}
	str := func(s string) {
		u64(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			byte1(s[i])
		}
	}
	bts := func(b []byte) {
		u64(uint64(len(b)))
		for _, c := range b {
			byte1(c)
		}
	}
	str(f.T)
	u64(f.LSN)
	u64(f.Next)
	u64(f.End)
	u64(f.NextOID)
	u64(f.OID)
	bts(f.Data)
	u64(uint64(len(f.Recs)))
	for i := range f.Recs {
		r := &f.Recs[i]
		byte1(r.Type)
		u64(r.Txn)
		u64(r.OID)
		bts(r.Data)
		u64(r.Next)
	}
	str(f.Err)
	u64(uint64(f.TS))
	u64(f.N)
	if f.Root != nil {
		byte1(1)
		u64(f.Root.Count)
		u64(f.Root.Sum)
		u64(f.Root.Xor)
	} else {
		byte1(0)
	}
	u64(uint64(len(f.Buckets)))
	for _, b := range f.Buckets {
		u64(b.Count)
		u64(b.Sum)
		u64(b.Xor)
	}
	u64(uint64(len(f.Syms)))
	for _, s := range f.Syms {
		u64(uint64(s.Count))
		u64(s.Key)
		u64(s.Dig)
		u64(s.Check)
	}
	u64(uint64(len(f.OIDs)))
	for _, o := range f.OIDs {
		u64(o)
	}
	if f.Gone {
		byte1(1)
	} else {
		byte1(0)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// seal stamps the frame's checksum before encoding.
func (f *Frame) seal() *Frame {
	f.CRC = frameSum(f)
	return f
}

// checkSum verifies a received frame's checksum. Frames from old peers
// (CRC 0) pass; anything else must match.
func checkSum(f *Frame) error {
	if f.CRC == 0 {
		return nil
	}
	if got := frameSum(f); got != f.CRC {
		return fmt.Errorf("repl: frame %q checksum mismatch (got %#x, want %#x): corrupt link", f.T, got, f.CRC)
	}
	return nil
}
