// Package linearhash implements Linear Hashing [Lit80] as studied in
// §3.2: a growing hash file whose buckets (a primary node plus an
// overflow chain) split one at a time in a fixed order, driven by a
// storage-utilization criterion. The paper found it "just too slow to use
// in main memory": chasing a target utilization makes it reorganize data
// constantly even when the number of elements is static — the behaviour
// the query-mix experiment exposes.
package linearhash

import (
	"repro/internal/index"
	"repro/internal/meter"
)

// DefaultNodeSize is the default node (primary and overflow) capacity.
const DefaultNodeSize = 8

// TargetUtilization is the storage utilization the table maintains: it
// splits on inserts that push utilization above the target and contracts
// on deletes that pull it below. Litwin's single setpoint is what made the
// structure reorganize constantly under the paper's constant-size query
// mix (§3.2.2).
const TargetUtilization = 0.80

// Table is a linear hash table. The zero value is not usable; call New.
type Table[E any] struct {
	cfg      index.Config[E]
	hash     func(E) uint64
	eq       func(a, b E) bool
	same     func(a, b E) bool
	m        *meter.Counters
	buckets  []*chain[E]
	n0       int  // initial bucket count N
	level    uint // L
	split    int  // next bucket to split (p)
	size     int
	nodes    int // allocated chain nodes, for utilization
	nodeSize int
}

type chain[E any] struct {
	items []E
	next  *chain[E]
}

// New creates an empty table.
func New[E any](cfg index.Config[E]) *Table[E] {
	if cfg.Hash == nil || cfg.Eq == nil {
		panic("linearhash: Config.Hash and Config.Eq are required")
	}
	ns := cfg.NodeSize
	if ns <= 0 {
		ns = DefaultNodeSize
	}
	t := &Table[E]{
		cfg:      cfg,
		hash:     cfg.Hash,
		eq:       cfg.Eq,
		same:     cfg.SameOrEq(),
		m:        cfg.Meter,
		n0:       4,
		nodeSize: ns,
	}
	for i := 0; i < t.n0; i++ {
		t.buckets = append(t.buckets, t.newChain())
	}
	return t
}

func (t *Table[E]) newChain() *chain[E] {
	t.m.AddAlloc(1)
	t.nodes++
	return &chain[E]{items: make([]E, 0, t.nodeSize)}
}

// Len returns the number of entries.
func (t *Table[E]) Len() int { return t.size }

// addr maps a hash to its current bucket, accounting for the split
// pointer.
func (t *Table[E]) addr(h uint64) int {
	mask := uint64(t.n0) << t.level
	b := int(h % mask)
	if b < t.split {
		b = int(h % (mask * 2))
	}
	return b
}

// utilization is data bytes used over data bytes allocated (§3.2.2).
func (t *Table[E]) utilization() float64 {
	return float64(t.size) / float64(t.nodes*t.nodeSize)
}

// Insert adds e; false when unique and a key-equal entry exists.
func (t *Table[E]) Insert(e E) bool {
	t.m.AddHash(1)
	h := t.hash(e)
	b := t.buckets[t.addr(h)]
	if t.cfg.Unique {
		for n := b; n != nil; n = n.next {
			t.m.AddNode(1)
			for _, x := range n.items {
				t.m.AddCompare(1)
				if t.eq(x, e) {
					return false
				}
			}
		}
	}
	t.addTo(b, e)
	t.size++
	for t.utilization() > TargetUtilization {
		t.splitOne()
	}
	return true
}

// addTo appends e to the chain, extending it with an overflow node when
// every node is full.
func (t *Table[E]) addTo(b *chain[E], e E) {
	n := b
	for {
		if len(n.items) < cap(n.items) {
			n.items = append(n.items, e)
			t.m.AddMove(1)
			return
		}
		if n.next == nil {
			n.next = t.newChain()
			n.next.items = append(n.next.items, e)
			t.m.AddMove(1)
			return
		}
		n = n.next
	}
}

// splitOne splits the bucket at the split pointer, rehashing its entries
// between the old position and the new bucket appended at the end.
func (t *Table[E]) splitOne() {
	mask2 := (uint64(t.n0) << t.level) * 2
	old := t.buckets[t.split]
	// Reclaim the old chain's nodes and rebuild both buckets fresh.
	for n := old; n != nil; n = n.next {
		t.nodes--
	}
	a, b := t.newChain(), t.newChain()
	for n := old; n != nil; n = n.next {
		for _, x := range n.items {
			t.m.AddHash(1)
			t.m.AddMove(1)
			if int(t.hash(x)%mask2) == t.split {
				t.addTo(a, x)
			} else {
				t.addTo(b, x)
			}
		}
	}
	t.buckets[t.split] = a
	t.buckets = append(t.buckets, b)
	t.split++
	if t.split == t.n0<<t.level {
		t.level++
		t.split = 0
	}
}

// contractOne undoes the most recent split, merging the last bucket back.
func (t *Table[E]) contractOne() {
	if len(t.buckets) <= t.n0 {
		return
	}
	if t.split == 0 {
		t.level--
		t.split = t.n0 << t.level
	}
	t.split--
	last := t.buckets[len(t.buckets)-1]
	t.buckets = t.buckets[:len(t.buckets)-1]
	for n := last; n != nil; n = n.next {
		t.nodes--
		for _, x := range n.items {
			t.m.AddMove(1)
			t.addTo(t.buckets[t.split], x)
		}
	}
}

// Delete removes the entry identical to e.
func (t *Table[E]) Delete(e E) bool {
	t.m.AddHash(1)
	h := t.hash(e)
	b := t.buckets[t.addr(h)]
	var prev *chain[E]
	for n := b; n != nil; prev, n = n, n.next {
		t.m.AddNode(1)
		for i, x := range n.items {
			t.m.AddCompare(1)
			if t.same(x, e) {
				n.items[i] = n.items[len(n.items)-1]
				n.items = n.items[:len(n.items)-1]
				t.m.AddMove(1)
				t.size--
				if len(n.items) == 0 && prev != nil {
					prev.next = n.next
					t.nodes--
				}
				for len(t.buckets) > t.n0 && t.utilization() < TargetUtilization {
					t.contractOne()
				}
				return true
			}
		}
	}
	return false
}

// SearchKey returns an entry in bucket h satisfying match.
func (t *Table[E]) SearchKey(h uint64, match func(E) bool) (E, bool) {
	for n := t.buckets[t.addr(h)]; n != nil; n = n.next {
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

// SearchKeyAppend appends every entry in bucket h satisfying match to out:
// one node visit per chain node and one comparison per item.
func (t *Table[E]) SearchKeyAppend(h uint64, match func(E) bool, out []E) []E {
	for n := t.buckets[t.addr(h)]; n != nil; n = n.next {
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

// ScanBatches hands all entries to fn in blocks gathered into buf (a
// 256-entry block when buf has no capacity), in unspecified order. The
// block is reused between calls; fn must not retain it.
func (t *Table[E]) ScanBatches(buf []E, fn func(block []E) bool) {
	if cap(buf) == 0 {
		buf = make([]E, 0, 256)
	}
	buf = buf[:0]
	ok := true
	for _, b := range t.buckets {
		for n := b; n != nil; n = n.next {
			if buf, ok = index.Gather(buf, n.items, fn); !ok {
				return
			}
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// Stats reports bucket head pointers plus per-node slots, next pointers,
// and control words.
func (t *Table[E]) Stats() index.Stats {
	s := index.Stats{Entries: t.size, DirSlots: len(t.buckets)}
	for _, b := range t.buckets {
		for n := b; n != nil; n = n.next {
			s.Nodes++
			s.EntrySlots += cap(n.items)
			s.ChildPtrs++
			s.ControlWords++
		}
	}
	return s
}
