// Package antientropy implements rateless set reconciliation for the
// replication layer: coded symbols over (OID, object-digest) items in
// the style of rateless invertible Bloom lookup tables (Yang et al.,
// "Practical Rateless Set Reconciliation", SIGCOMM 2024), plus an
// order-independent digest walk for cheap steady-state auditing.
//
// The protocol is symmetric and rateless: the sender streams coded
// symbols one at a time and the receiver subtracts its own locally
// generated symbol stream, leaving a sketch of the symmetric
// difference. Peeling the sketch recovers exactly the items present on
// one side but not the other, so communication is proportional to the
// drift between the two stores, never to their size. A modified object
// shows up as one remote-only and one local-only item sharing an OID;
// a created or freed object shows up on one side only.
//
// The package is self-contained (stdlib only) so both the storage
// layer and the wire layer can depend on it.
package antientropy

import (
	"container/heap"
	"errors"
	"math"
)

// Item is one set element: an object identifier paired with a digest of
// the object's durable image. Two stores are in sync exactly when their
// item sets are equal.
type Item struct {
	Key    uint64 // OID
	Digest uint64 // content digest of the object image (see Digest)
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// permutation used for item checksums and mapping seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns the item's checksum. It doubles as the seed of the
// item's index mapping, so both sides derive identical symbol
// placements without exchanging anything beyond the symbols themselves.
func (it Item) Hash() uint64 {
	return mix64(mix64(it.Key^0x9e3779b97f4a7c15) ^ it.Digest)
}

// Digest fingerprints an object image with FNV-1a 64. It is the
// canonical content digest used for Item.Digest throughout the repo.
func Digest(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// CodedSymbol is one cell of the rateless sketch: the signed count,
// XOR-folds of the member items, and the XOR of their checksums. JSON
// tags are single letters because symbols travel in batches on the
// replication wire.
type CodedSymbol struct {
	Count int64  `json:"c"`
	Key   uint64 `json:"k"`
	Dig   uint64 `json:"d"`
	Check uint64 `json:"h"`
}

// apply folds item into the symbol with the given direction (+1 add,
// -1 remove). XOR is its own inverse, so only Count is signed.
func (s *CodedSymbol) apply(it Item, dir int64) {
	s.Count += dir
	s.Key ^= it.Key
	s.Dig ^= it.Digest
	s.Check ^= it.Hash()
}

// zero reports whether the symbol holds no residue. A stream of pure
// difference symbols that are all zero means the sets matched.
func (s CodedSymbol) zero() bool {
	return s.Count == 0 && s.Key == 0 && s.Dig == 0 && s.Check == 0
}

// mapping generates the (strictly increasing) sequence of symbol
// indices an item participates in. Every item lands in index 0; the
// gaps then grow so that index i holds each item with probability
// ~1/(1+i/2), giving the sketch its rateless soliton-like shape. The
// update rule is the one from the riblt reference design.
type mapping struct {
	prng    uint64
	lastIdx uint64
}

func newMapping(seed uint64) mapping { return mapping{prng: seed} }

// idxSat caps index growth far above any reachable symbol count so the
// gap arithmetic can never wrap uint64 (a wrapped index would re-enter
// the live sketch range and corrupt it).
const idxSat = uint64(1) << 62

// next advances to the item's next index after lastIdx.
func (m *mapping) next() uint64 {
	r := m.prng * 0xda942042e4dd58b5
	m.prng = r
	if m.lastIdx >= idxSat {
		// Saturated region: indices this large are never visited; just
		// stay strictly increasing.
		m.lastIdx++
		return m.lastIdx
	}
	f := (float64(m.lastIdx) + 1.5) * (float64(uint64(1)<<32)/math.Sqrt(float64(r)+1) - 1)
	var gap uint64
	if f >= float64(idxSat) {
		gap = idxSat
	} else {
		gap = uint64(math.Ceil(f))
		if gap == 0 {
			// Degenerate draw (probability ~2^-32): applying an item
			// twice to one index would XOR it out of the sketch, so
			// force progress instead.
			gap = 1
		}
	}
	m.lastIdx += gap
	return m.lastIdx
}

// encEntry is one item queued in the encoder, keyed by the next symbol
// index it must be folded into.
type encEntry struct {
	item    Item
	mapping mapping
	nextIdx uint64
}

type encHeap []encEntry

func (h encHeap) Len() int           { return len(h) }
func (h encHeap) Less(i, j int) bool { return h[i].nextIdx < h[j].nextIdx }
func (h encHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *encHeap) Push(x any)        { *h = append(*h, x.(encEntry)) }
func (h *encHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h encHeap) peekIdx() uint64    { return h[0].nextIdx }
func (h encHeap) empty() bool        { return len(h) == 0 }

// Encoder produces the infinite coded-symbol stream for a fixed item
// set, one symbol per Next call, lazily: a min-heap orders items by the
// next index they appear in, so producing symbol i touches only the
// items mapped there.
type Encoder struct {
	heap encHeap
	next uint64 // index of the symbol the next Next() call returns
}

// NewEncoder builds an encoder over the given items. The slice is not
// retained.
func NewEncoder(items []Item) *Encoder {
	e := &Encoder{heap: make(encHeap, 0, len(items))}
	for _, it := range items {
		// Every item participates in symbol 0.
		e.heap = append(e.heap, encEntry{item: it, mapping: newMapping(it.Hash())})
	}
	heap.Init(&e.heap)
	return e
}

// Next returns the coded symbol at the next sequential index.
func (e *Encoder) Next() CodedSymbol {
	var s CodedSymbol
	for !e.heap.empty() && e.heap.peekIdx() == e.next {
		ent := e.heap[0]
		s.apply(ent.item, 1)
		ent.nextIdx = ent.mapping.next()
		e.heap[0] = ent
		heap.Fix(&e.heap, 0)
	}
	e.next++
	return s
}

// ErrDecodeOverrun is returned by AddSymbols when the decoder consumed
// far more symbols than any plausible difference would need, signalling
// that the caller should fall back to a full transfer.
var ErrDecodeOverrun = errors.New("antientropy: symbol budget exhausted without decoding")

// peeledEntry remembers a decoded item so its contribution can be
// subtracted from difference symbols that arrive after it was peeled.
type peeledEntry struct {
	item    Item
	mapping mapping
	nextIdx uint64
	dir     int64
}

type peeledHeap []peeledEntry

func (h peeledHeap) Len() int           { return len(h) }
func (h peeledHeap) Less(i, j int) bool { return h[i].nextIdx < h[j].nextIdx }
func (h peeledHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *peeledHeap) Push(x any)        { *h = append(*h, x.(peeledEntry)) }
func (h *peeledHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Decoder consumes a remote symbol stream, subtracts the local stream,
// and peels the residue into the symmetric difference.
type Decoder struct {
	local   *Encoder
	syms    []CodedSymbol
	pending []uint64 // indices to re-examine for peeling
	peeled  peeledHeap

	remote []Item // present remotely, absent locally
	gone   []Item // present locally, absent remotely

	nonzero int // count of non-zero difference symbols
}

// NewDecoder builds a decoder whose local side is the given item set.
func NewDecoder(local []Item) *Decoder {
	return &Decoder{local: NewEncoder(local)}
}

// AddSymbol ingests the next remote coded symbol (symbols must arrive
// in index order, starting at 0) and peels whatever becomes peelable.
func (d *Decoder) AddSymbol(cs CodedSymbol) {
	ls := d.local.Next()
	diff := CodedSymbol{
		Count: cs.Count - ls.Count,
		Key:   cs.Key ^ ls.Key,
		Dig:   cs.Dig ^ ls.Dig,
		Check: cs.Check ^ ls.Check,
	}
	// Items decoded earlier still contribute to later symbols of
	// whichever stream carried them; cancel them out as their mapping
	// sequences reach this index.
	idx := uint64(len(d.syms))
	for len(d.peeled) > 0 && d.peeled[0].nextIdx == idx {
		ent := d.peeled[0]
		diff.apply(ent.item, -ent.dir)
		ent.nextIdx = ent.mapping.next()
		d.peeled[0] = ent
		heap.Fix(&d.peeled, 0)
	}
	d.syms = append(d.syms, diff)
	if !diff.zero() {
		d.nonzero++
	}
	d.pending = append(d.pending, idx)
	d.peel()
}

// peel drains the pending worklist: any difference symbol holding
// exactly one item (count ±1, checksum matching) is decoded, and the
// decoded item is subtracted from every index it maps to, which may in
// turn expose new singletons.
func (d *Decoder) peel() {
	for len(d.pending) > 0 {
		i := d.pending[len(d.pending)-1]
		d.pending = d.pending[:len(d.pending)-1]
		s := d.syms[i]
		if s.Count != 1 && s.Count != -1 {
			continue
		}
		it := Item{Key: s.Key, Digest: s.Dig}
		if it.Hash() != s.Check {
			continue
		}
		dir := s.Count
		if dir == 1 {
			d.remote = append(d.remote, it)
		} else {
			d.gone = append(d.gone, it)
		}
		// Subtract the item from every symbol it participates in, then
		// park it on the peeled heap so future symbols get the same
		// treatment.
		m := newMapping(it.Hash())
		idx := uint64(0)
		for idx < uint64(len(d.syms)) {
			wasZero := d.syms[idx].zero()
			d.syms[idx].apply(it, -dir)
			nowZero := d.syms[idx].zero()
			if wasZero && !nowZero {
				d.nonzero++
			} else if !wasZero && nowZero {
				d.nonzero--
			}
			if !nowZero {
				d.pending = append(d.pending, idx)
			}
			idx = m.next()
		}
		heap.Push(&d.peeled, peeledEntry{item: it, mapping: m, nextIdx: idx, dir: dir})
	}
}

// Decoded reports whether the full symmetric difference has been
// recovered: at least one symbol seen and every difference symbol
// reduced to zero.
func (d *Decoder) Decoded() bool {
	return len(d.syms) > 0 && d.nonzero == 0
}

// Diff returns the decoded difference: items only the remote side has,
// and items only the local side has. Valid once Decoded() is true; the
// returned slices are owned by the decoder.
func (d *Decoder) Diff() (remoteOnly, localOnly []Item) {
	return d.remote, d.gone
}
