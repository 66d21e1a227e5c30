// Package exthash implements Extendible Hashing [FNP79] as studied in
// §3.2: a directory of 2^globalDepth bucket pointers that doubles when a
// full bucket cannot split locally. Search cost is flat and small; the
// risk is directory blowup — the paper observed that small node sizes made
// some buckets fill early, "causing the directory to double repeatedly and
// thus use large amounts of storage".
package exthash

import (
	"repro/internal/index"
	"repro/internal/meter"
)

// DefaultNodeSize is the default bucket capacity.
const DefaultNodeSize = 8

// maxGlobalDepth bounds directory doubling; a bucket whose entries all
// share maxGlobalDepth low hash bits (e.g. mass duplicates) grows past its
// nominal capacity instead of splitting forever.
const maxGlobalDepth = 22

// Table is an extendible hash table. The zero value is not usable; call
// New.
type Table[E any] struct {
	cfg      index.Config[E]
	hash     func(E) uint64
	eq       func(a, b E) bool
	same     func(a, b E) bool
	m        *meter.Counters
	dir      []*bucket[E]
	global   uint
	size     int
	nodeSize int
}

type bucket[E any] struct {
	items []E
	local uint
	// frozen marks a bucket that proved unsplittable (hash-identical
	// entries or directory at its depth cap); it grows past its nominal
	// capacity instead of retrying the split on every insert.
	frozen bool
}

// New creates an empty table with one bucket.
func New[E any](cfg index.Config[E]) *Table[E] {
	if cfg.Hash == nil || cfg.Eq == nil {
		panic("exthash: Config.Hash and Config.Eq are required")
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
		nodeSize: ns,
	}
	t.dir = []*bucket[E]{{items: make([]E, 0, ns)}}
	return t
}

// Len returns the number of entries.
func (t *Table[E]) Len() int { return t.size }

func (t *Table[E]) bucketFor(h uint64) *bucket[E] {
	return t.dir[h&((1<<t.global)-1)]
}

// Insert adds e; false when unique and a key-equal entry exists.
func (t *Table[E]) Insert(e E) bool {
	t.m.AddHash(1)
	h := t.hash(e)
	b := t.bucketFor(h)
	if t.cfg.Unique {
		for _, x := range b.items {
			t.m.AddCompare(1)
			if t.eq(x, e) {
				return false
			}
		}
	}
	for len(b.items) >= t.nodeSize && !b.frozen {
		if !t.splitOrGrow(b, h) {
			// Depth-capped or hash-identical: overflow in place, and stop
			// re-testing this bucket on every later insert.
			b.frozen = true
			break
		}
		b = t.bucketFor(h)
	}
	b.items = append(b.items, e)
	t.m.AddMove(1)
	t.size++
	return true
}

// splitOrGrow splits bucket b (doubling the directory if needed). It
// returns false when the directory is depth-capped, in which case the
// bucket simply grows.
func (t *Table[E]) splitOrGrow(b *bucket[E], h uint64) bool {
	// A bucket of hash-identical entries (mass duplicates) can never be
	// separated by more bits; let it grow rather than double the directory
	// to its depth cap.
	if len(b.items) > 0 {
		h0 := t.hash(b.items[0])
		allSame := true
		for _, x := range b.items[1:] {
			t.m.AddHash(1)
			if t.hash(x) != h0 {
				allSame = false
				break
			}
		}
		if allSame {
			return false
		}
	}
	if b.local == t.global {
		if t.global >= maxGlobalDepth {
			return false
		}
		// Double the directory; both halves alias the same buckets.
		t.m.AddAlloc(1)
		ndir := make([]*bucket[E], len(t.dir)*2)
		copy(ndir, t.dir)
		copy(ndir[len(t.dir):], t.dir)
		t.dir = ndir
		t.global++
	}
	// Split b on the bit below its new local depth.
	t.m.AddAlloc(1)
	bit := uint64(1) << b.local
	b.local++
	nb := &bucket[E]{local: b.local, items: make([]E, 0, t.nodeSize)}
	keep := b.items[:0]
	for _, x := range b.items {
		t.m.AddHash(1)
		t.m.AddMove(1)
		if t.hash(x)&bit != 0 {
			nb.items = append(nb.items, x)
		} else {
			keep = append(keep, x)
		}
	}
	b.items = keep
	// Redirect the directory aliases whose new bit is set: they are the
	// slots congruent to the bucket's canonical index with that bit on,
	// spaced 2*bit apart.
	base := (h & (bit - 1)) | bit
	for i := base; i < uint64(len(t.dir)); i += bit * 2 {
		t.dir[i] = nb
	}
	return true
}

// Delete removes the entry identical to e. Buckets are not merged on
// shrink (directory contraction is a known elaboration of [FNP79] that
// the study did not model).
func (t *Table[E]) Delete(e E) bool {
	t.m.AddHash(1)
	b := t.bucketFor(t.hash(e))
	for i, x := range b.items {
		t.m.AddCompare(1)
		if t.same(x, e) {
			b.items[i] = b.items[len(b.items)-1]
			b.items = b.items[:len(b.items)-1]
			t.m.AddMove(1)
			t.size--
			return true
		}
	}
	return false
}

// SearchKey returns an entry in bucket h satisfying match.
func (t *Table[E]) SearchKey(h uint64, match func(E) bool) (E, bool) {
	b := t.bucketFor(h)
	t.m.AddNode(1)
	for _, x := range b.items {
		t.m.AddCompare(1)
		if match(x) {
			return x, true
		}
	}
	var zero E
	return zero, false
}

// SearchKeyAppend appends every entry in bucket h satisfying match to out:
// one node visit for the bucket and one comparison per item.
func (t *Table[E]) SearchKeyAppend(h uint64, match func(E) bool, out []E) []E {
	b := t.bucketFor(h)
	t.m.AddNode(1)
	for _, x := range b.items {
		t.m.AddCompare(1)
		if match(x) {
			out = append(out, x)
		}
	}
	return out
}

// ScanBatches hands all entries to fn in blocks gathered into buf (a
// 256-entry block when buf has no capacity), in unspecified order, each
// entry exactly once even though several directory slots may alias one
// bucket. The block is reused between calls; fn must not retain it.
func (t *Table[E]) ScanBatches(buf []E, fn func(block []E) bool) {
	if cap(buf) == 0 {
		buf = make([]E, 0, 256)
	}
	buf = buf[:0]
	ok := true
	for i, b := range t.dir {
		// A bucket with local depth d is aliased by 2^(global-d) slots;
		// its canonical slot is the one equal to its low d bits.
		if i != int(uint64(i)&((1<<b.local)-1)) {
			continue
		}
		if buf, ok = index.Gather(buf, b.items, fn); !ok {
			return
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// Stats reports the directory plus per-bucket slots; aliased buckets are
// counted once.
func (t *Table[E]) Stats() index.Stats {
	s := index.Stats{Entries: t.size, DirSlots: len(t.dir)}
	for i, b := range t.dir {
		if i != int(uint64(i)&((1<<b.local)-1)) {
			continue
		}
		s.Nodes++
		s.EntrySlots += cap(b.items)
		s.ControlWords++
	}
	return s
}

// GlobalDepth exposes the directory depth for tests.
func (t *Table[E]) GlobalDepth() uint { return t.global }
