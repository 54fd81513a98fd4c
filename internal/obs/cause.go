package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Cause is a compact causal-provenance identifier assigned to every
// posted basic event. It answers the question traces alone cannot:
// *why* did this fire? The paper's coupling modes (§4.2) and globally
// persistent composite events (§5.1.3) let one posting fan out into
// detached system transactions, further firings, and — with
// replication — FSM completions on a promoted replica; a Cause links
// every one of those hops back to the posting that started the chain.
//
// Node identifies the assigning database instance (random per Causes
// source, so two nodes of a replication pair never collide) and Seq is
// a per-node monotonic sequence. The zero Cause means "no provenance"
// (provenance disabled, or a pre-provenance record).
type Cause struct {
	Node uint64 `json:"node"`
	Seq  uint64 `json:"seq"`
}

// IsZero reports the no-provenance Cause.
func (c Cause) IsZero() bool { return c == Cause{} }

// String renders the cause as "<16-hex-node>-<seq>" ("" for the zero
// Cause) — the spelling stored in trigger-state records, trace records,
// and flight incidents.
func (c Cause) String() string {
	if c.IsZero() {
		return ""
	}
	return fmt.Sprintf("%016x-%d", c.Node, c.Seq)
}

// ParseCause parses the String form back into a Cause. The empty string
// parses (ok) to the zero Cause; anything else malformed is !ok.
func ParseCause(s string) (Cause, bool) {
	if s == "" {
		return Cause{}, true
	}
	dash := strings.IndexByte(s, '-')
	if dash != 16 {
		return Cause{}, false
	}
	node, err := strconv.ParseUint(s[:dash], 16, 64)
	if err != nil {
		return Cause{}, false
	}
	seq, err := strconv.ParseUint(s[dash+1:], 10, 64)
	if err != nil {
		return Cause{}, false
	}
	c := Cause{Node: node, Seq: seq}
	if c.IsZero() {
		return Cause{}, false // "0000000000000000-0" is not a valid spelling
	}
	return c, true
}

// Causes issues cause IDs for one database instance: one atomic add per
// posting. The node ID is random so that the primary and a replica of a
// replication pair — even when both run in one process, as the failover
// tests do — assign causes that are attributable to the right side.
type Causes struct {
	node atomic.Uint64
	seq  atomic.Uint64
}

// NewCauses returns a source with a random non-zero node ID.
func NewCauses() *Causes {
	c := &Causes{}
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		c.node.Store(binary.LittleEndian.Uint64(b[:]))
	}
	if c.node.Load() == 0 {
		c.node.Store(1)
	}
	return c
}

// Node returns the source's node ID.
func (c *Causes) Node() uint64 { return c.node.Load() }

// SetNode overrides the node ID (tests that need deterministic
// attribution). Call before the source is shared.
func (c *Causes) SetNode(n uint64) {
	if n == 0 {
		n = 1
	}
	c.node.Store(n)
}

// Next assigns the next cause ID: one atomic add.
func (c *Causes) Next() Cause {
	return Cause{Node: c.node.Load(), Seq: c.seq.Add(1)}
}

// EnsureSeq raises the sequence so the next cause's seq is strictly
// greater than seen. Restart recovery calls this with every persisted
// seq it reloads (sharding outbox records), so a reborn node never
// re-issues a sequence number that may already be in flight.
func (c *Causes) EnsureSeq(seen uint64) {
	for {
		cur := c.seq.Load()
		if cur >= seen || c.seq.CompareAndSwap(cur, seen) {
			return
		}
	}
}

// --- commit-record cause notes ------------------------------------------------
//
// A cause note is the binary annotation carried in the Data field of a
// WAL commit record: (self, parent) of the transaction's originating
// posting. Recovery and replica replay ignore commit-record Data they
// do not understand, so old logs and old peers interoperate; a replica
// that does understand it attributes its ApplyReplicated — and any
// post-failover composite completion — to the primary-side event.

// causeNoteMagic tags a commit-record Data payload as a cause note.
const causeNoteMagic = 0xC1

// causeNoteHasParent flags a note that carries a parent cause. Any
// other flag bit is from a future format and makes the note foreign.
const causeNoteHasParent = 0x01

// MaxCauseNoteLen bounds the encoded size of a cause note. The typical
// note is far smaller — a root posting (no parent, small seq) encodes
// in ~12 bytes — which matters because the note rides *every*
// originating commit record: on small transactions a fixed-width
// encoding measurably inflates the WAL (it measured a 3.4 % commit-throughput loss).
const MaxCauseNoteLen = 2 + 8 + binary.MaxVarintLen64 + 8 + binary.MaxVarintLen64

// EncodeCauseNote encodes (self, parent) for a commit record: magic,
// flags, self node (fixed 8 bytes — it is random, so incompressible),
// self seq as a uvarint, and the parent pair only when non-zero.
func EncodeCauseNote(self, parent Cause) []byte {
	b := make([]byte, 0, MaxCauseNoteLen)
	flags := byte(0)
	if !parent.IsZero() {
		flags |= causeNoteHasParent
	}
	b = append(b, causeNoteMagic, flags)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], self.Node)
	b = append(b, n[:]...)
	b = binary.AppendUvarint(b, self.Seq)
	if flags&causeNoteHasParent != 0 {
		binary.LittleEndian.PutUint64(n[:], parent.Node)
		b = append(b, n[:]...)
		b = binary.AppendUvarint(b, parent.Seq)
	}
	return b
}

// DecodeCauseNote decodes a commit record's Data. ok is false for
// empty, foreign, truncated, or trailing-garbage payloads.
func DecodeCauseNote(b []byte) (self, parent Cause, ok bool) {
	if len(b) < 11 || b[0] != causeNoteMagic {
		return Cause{}, Cause{}, false
	}
	flags := b[1]
	if flags&^byte(causeNoteHasParent) != 0 {
		return Cause{}, Cause{}, false // unknown future flags
	}
	p := 2
	self.Node = binary.LittleEndian.Uint64(b[p:])
	p += 8
	seq, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return Cause{}, Cause{}, false
	}
	p += n
	self.Seq = seq
	if flags&causeNoteHasParent != 0 {
		if len(b) < p+9 {
			return Cause{}, Cause{}, false
		}
		parent.Node = binary.LittleEndian.Uint64(b[p:])
		p += 8
		pseq, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return Cause{}, Cause{}, false
		}
		p += n
		parent.Seq = pseq
	}
	if p != len(b) {
		return Cause{}, Cause{}, false
	}
	return self, parent, true
}
