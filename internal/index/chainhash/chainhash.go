// Package chainhash implements Chained Bucket Hashing [Knu73, AHU74] as
// studied in §3.2: a static hash table — the table size is fixed at
// creation — with each slot holding a chain of multi-item nodes. It has
// excellent performance for static data, which made it the paper's
// temporary-index structure for unordered data (e.g. the inner table of
// the Hash Join), but it cannot grow: load it far past its capacity hint
// and the chains simply lengthen.
package chainhash

import (
	"repro/internal/index"
	"repro/internal/meter"
)

// DefaultNodeSize is the default chain-node capacity.
const DefaultNodeSize = 4

// DefaultCapacity is assumed when no capacity hint is given.
const DefaultCapacity = 1024

// Table is a chained-bucket hash table. The zero value is not usable;
// call New.
type Table[E any] struct {
	cfg      index.Config[E]
	hash     func(E) uint64
	eq       func(a, b E) bool
	same     func(a, b E) bool
	m        *meter.Counters
	slots    []*chainNode[E]
	mask     uint64 // len(slots)-1; slot count is always a power of two
	size     int
	nodeSize int
}

type chainNode[E any] struct {
	items []E // unordered within the node; cap nodeSize
	next  *chainNode[E]
}

// New creates a table sized for cfg.CapacityHint entries: the slot count
// is chosen so a full table averages one full node per slot, then
// rounded up to a power of two so the slot computation is a bit mask
// rather than an integer modulo (a ~20-cycle divide on every Insert and
// probe — see BenchmarkSlotModulo vs BenchmarkSlotMask).
func New[E any](cfg index.Config[E]) *Table[E] {
	if cfg.Hash == nil || cfg.Eq == nil {
		panic("chainhash: Config.Hash and Config.Eq are required")
	}
	ns := cfg.NodeSize
	if ns <= 0 {
		ns = DefaultNodeSize
	}
	hint := cfg.CapacityHint
	if hint <= 0 {
		hint = DefaultCapacity
	}
	// Largest power of two not exceeding the one-full-node-per-slot
	// count: the table never holds more directory than the hint implies
	// (the §3.2.2 storage factor stays in the paper's band), chains just
	// run marginally longer at full load.
	nslots := 1
	for nslots*2 <= hint/ns {
		nslots <<= 1
	}
	return &Table[E]{
		cfg:      cfg,
		hash:     cfg.Hash,
		eq:       cfg.Eq,
		same:     cfg.SameOrEq(),
		m:        cfg.Meter,
		slots:    make([]*chainNode[E], nslots),
		mask:     uint64(nslots - 1),
		size:     0,
		nodeSize: ns,
	}
}

// Len returns the number of entries.
func (t *Table[E]) Len() int { return t.size }

func (t *Table[E]) slot(h uint64) int { return int(h & t.mask) }

// Insert adds e; false when unique and a key-equal entry exists.
func (t *Table[E]) Insert(e E) bool {
	t.m.AddHash(1)
	s := t.slot(t.hash(e))
	if t.cfg.Unique {
		for n := t.slots[s]; n != nil; n = n.next {
			t.m.AddNode(1)
			for _, x := range n.items {
				t.m.AddCompare(1)
				if t.eq(x, e) {
					return false
				}
			}
		}
	}
	for n := t.slots[s]; n != nil; n = n.next {
		if len(n.items) < cap(n.items) {
			n.items = append(n.items, e)
			t.m.AddMove(1)
			t.size++
			return true
		}
	}
	t.m.AddAlloc(1)
	n := &chainNode[E]{items: make([]E, 1, t.nodeSize), next: t.slots[s]}
	n.items[0] = e
	t.slots[s] = n
	t.size++
	return true
}

// Delete removes the entry identical to e.
func (t *Table[E]) Delete(e E) bool {
	t.m.AddHash(1)
	s := t.slot(t.hash(e))
	var prev *chainNode[E]
	for n := t.slots[s]; n != nil; prev, n = n, n.next {
		t.m.AddNode(1)
		for i, x := range n.items {
			t.m.AddCompare(1)
			if t.same(x, e) {
				n.items[i] = n.items[len(n.items)-1]
				n.items = n.items[:len(n.items)-1]
				t.m.AddMove(1)
				t.size--
				if len(n.items) == 0 {
					if prev == nil {
						t.slots[s] = n.next
					} else {
						prev.next = n.next
					}
				}
				return true
			}
		}
	}
	return false
}

// SearchKey returns an entry in bucket h satisfying match.
func (t *Table[E]) SearchKey(h uint64, match func(E) bool) (E, bool) {
	for n := t.slots[t.slot(h)]; n != nil; n = n.next {
		t.m.AddNode(1)
		for _, x := range n.items {
			t.m.AddCompare(1)
			if match(x) {
				return x, true
			}
		}
	}
	var zero E
	return zero, false
}

// SearchKeyAppend appends every entry in bucket h satisfying match to out
// and returns the extended slice, recording one node visit per chain node
// and one comparison per item.
func (t *Table[E]) SearchKeyAppend(h uint64, match func(E) bool, out []E) []E {
	for n := t.slots[t.slot(h)]; n != nil; n = n.next {
		t.m.AddNode(1)
		for _, x := range n.items {
			t.m.AddCompare(1)
			if match(x) {
				out = append(out, x)
			}
		}
	}
	return out
}

// ScanBatches visits all entries in unspecified order, handing them to fn
// in blocks gathered into buf (allocating a 256-entry block when buf has
// no capacity). The block is reused between calls; fn must not retain it.
func (t *Table[E]) ScanBatches(buf []E, fn func(block []E) bool) {
	if cap(buf) == 0 {
		buf = make([]E, 0, 256)
	}
	buf = buf[:0]
	ok := true
	for _, head := range t.slots {
		for n := head; n != nil; n = n.next {
			if buf, ok = index.Gather(buf, n.items, fn); !ok {
				return
			}
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// Stats reports the structure's shape: the whole (partly unused) table of
// head pointers plus one next pointer and control word per chain node —
// the accounting behind the paper's 2.3 storage factor.
func (t *Table[E]) Stats() index.Stats {
	s := index.Stats{Entries: t.size, DirSlots: len(t.slots)}
	for _, head := range t.slots {
		for n := head; n != nil; n = n.next {
			s.Nodes++
			s.EntrySlots += cap(n.items)
			s.ChildPtrs++
			s.ControlWords++
		}
	}
	return s
}
