// Package mlh implements Modified Linear Hashing [LeC85] as studied in
// §3.2: Linear Hashing re-engineered for main memory. It "uses the basic
// principles of Linear Hashing, but uses very small nodes in the
// directory, single-item overflow buckets, and average overflow chain
// length as the criteria to control directory growth". The NodeSize knob
// is therefore the target average chain length — the x-axis of Graphs 1
// and 2 for this structure. Among the hash methods tested, it gave the
// best overall performance and replaced Chained Bucket Hashing as the
// MM-DBMS's index for unordered data.
package mlh

import (
	"repro/internal/index"
	"repro/internal/meter"
)

// DefaultChainLength is the default target average chain length.
const DefaultChainLength = 2

// Table is a modified linear hash table. The zero value is not usable;
// call New.
type Table[E any] struct {
	cfg    index.Config[E]
	hash   func(E) uint64
	eq     func(a, b E) bool
	same   func(a, b E) bool
	m      *meter.Counters
	dir    []*item[E] // directory of single-item node chains
	n0     int
	level  uint
	split  int
	size   int
	target int // target average chain length
}

// item is the single-item node of Modified Linear Hashing.
type item[E any] struct {
	e    E
	next *item[E]
}

// New creates an empty table.
func New[E any](cfg index.Config[E]) *Table[E] {
	if cfg.Hash == nil || cfg.Eq == nil {
		panic("mlh: Config.Hash and Config.Eq are required")
	}
	target := cfg.NodeSize
	if target <= 0 {
		target = DefaultChainLength
	}
	t := &Table[E]{
		cfg:    cfg,
		hash:   cfg.Hash,
		eq:     cfg.Eq,
		same:   cfg.SameOrEq(),
		m:      cfg.Meter,
		n0:     4,
		target: target,
	}
	t.dir = make([]*item[E], t.n0)
	return t
}

// Len returns the number of entries.
func (t *Table[E]) Len() int { return t.size }

func (t *Table[E]) addr(h uint64) int {
	mask := uint64(t.n0) << t.level
	b := int(h % mask)
	if b < t.split {
		b = int(h % (mask * 2))
	}
	return b
}

// avgChain is the average overflow chain length — the growth criterion.
func (t *Table[E]) avgChain() float64 {
	return float64(t.size) / float64(len(t.dir))
}

// Insert adds e; false when unique and a key-equal entry exists.
func (t *Table[E]) Insert(e E) bool {
	t.m.AddHash(1)
	h := t.hash(e)
	s := t.addr(h)
	if t.cfg.Unique {
		for n := t.dir[s]; n != nil; n = n.next {
			t.m.AddNode(1)
			t.m.AddCompare(1)
			if t.eq(n.e, e) {
				return false
			}
		}
	}
	t.m.AddAlloc(1)
	t.dir[s] = &item[E]{e: e, next: t.dir[s]}
	t.size++
	for t.avgChain() > float64(t.target) {
		t.splitOne()
	}
	return true
}

// splitOne splits the directory slot at the split pointer.
func (t *Table[E]) splitOne() {
	mask2 := (uint64(t.n0) << t.level) * 2
	old := t.dir[t.split]
	t.dir[t.split] = nil
	t.dir = append(t.dir, nil)
	newIdx := len(t.dir) - 1
	for n := old; n != nil; {
		next := n.next
		t.m.AddHash(1)
		t.m.AddMove(1)
		if int(t.hash(n.e)%mask2) == t.split {
			n.next = t.dir[t.split]
			t.dir[t.split] = n
		} else {
			n.next = t.dir[newIdx]
			t.dir[newIdx] = n
		}
		n = next
	}
	t.split++
	if t.split == t.n0<<t.level {
		t.level++
		t.split = 0
	}
}

// contractOne undoes the most recent split.
func (t *Table[E]) contractOne() {
	if len(t.dir) <= t.n0 {
		return
	}
	if t.split == 0 {
		t.level--
		t.split = t.n0 << t.level
	}
	t.split--
	last := t.dir[len(t.dir)-1]
	t.dir = t.dir[:len(t.dir)-1]
	for n := last; n != nil; {
		next := n.next
		n.next = t.dir[t.split]
		t.dir[t.split] = n
		t.m.AddMove(1)
		n = next
	}
}

// Delete removes the entry identical to e. The directory contracts when
// the average chain length falls well below target (hysteresis at half),
// so a static population — the query-mix case — causes no reorganization.
func (t *Table[E]) Delete(e E) bool {
	t.m.AddHash(1)
	s := t.addr(t.hash(e))
	var prev *item[E]
	for n := t.dir[s]; n != nil; prev, n = n, n.next {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if t.same(n.e, e) {
			if prev == nil {
				t.dir[s] = n.next
			} else {
				prev.next = n.next
			}
			t.size--
			for len(t.dir) > t.n0 && t.avgChain() < float64(t.target)/2 {
				t.contractOne()
			}
			return true
		}
	}
	return false
}

// SearchKey returns an entry in bucket h satisfying match. Each data
// reference traverses a pointer — the overhead the paper observed once
// chains grow long.
func (t *Table[E]) SearchKey(h uint64, match func(E) bool) (E, bool) {
	for n := t.dir[t.addr(h)]; n != nil; n = n.next {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if match(n.e) {
			return n.e, true
		}
	}
	var zero E
	return zero, false
}

// SearchKeyAppend appends every entry in bucket h satisfying match to out:
// one node visit and one comparison per chained item.
func (t *Table[E]) SearchKeyAppend(h uint64, match func(E) bool, out []E) []E {
	for n := t.dir[t.addr(h)]; n != nil; n = n.next {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if match(n.e) {
			out = append(out, n.e)
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
	for _, head := range t.dir {
		for n := head; n != nil; n = n.next {
			buf = append(buf, n.e)
			if len(buf) == cap(buf) {
				if !fn(buf) {
					return
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// Stats reports the directory plus one slot and one next pointer per
// single-item node — 4 bytes of pointer overhead per data item under the
// paper model, as §3.2.3 notes.
func (t *Table[E]) Stats() index.Stats {
	s := index.Stats{Entries: t.size, DirSlots: len(t.dir)}
	for _, head := range t.dir {
		for n := head; n != nil; n = n.next {
			s.Nodes++
			s.EntrySlots++
			s.ChildPtrs++
		}
	}
	return s
}
