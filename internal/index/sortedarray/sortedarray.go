// Package sortedarray implements the array index [AHK85] of §3.2: a
// dynamically grown sorted array searched with pure binary search. It uses
// the minimum amount of storage and scans faster than any other structure,
// but every update moves half the array on average — the paper found its
// mixed-workload performance two orders of magnitude worse than the other
// indices, making it useful only as a read-only (or build-once) index.
package sortedarray

import (
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/sortutil"
)

// Array is a sorted array index. The zero value is not usable; call New.
type Array[E any] struct {
	cfg   index.Config[E]
	cmp   func(a, b E) int
	same  func(a, b E) bool
	m     *meter.Counters
	items []E
}

// New creates an empty array index. cfg.Cmp is required; NodeSize is
// ignored (the array is one contiguous node).
func New[E any](cfg index.Config[E]) *Array[E] {
	if cfg.Cmp == nil {
		panic("sortedarray: Config.Cmp is required")
	}
	return &Array[E]{
		cfg:   cfg,
		cmp:   cfg.Cmp,
		same:  cfg.SameOrEq(),
		m:     cfg.Meter,
		items: make([]E, 0, max(cfg.CapacityHint, 0)),
	}
}

// Build bulk-loads entries: append then sort, the cheap construction path
// the Sort Merge join uses (quicksort with the insertion-sort cutoff).
func Build[E any](cfg index.Config[E], entries []E) *Array[E] {
	a := New(cfg)
	a.items = append(a.items, entries...)
	a.m.AddMove(int64(len(entries)))
	sortutil.SortMetered(a.items, a.cmp, a.m)
	return a
}

// Len returns the number of entries.
func (a *Array[E]) Len() int { return len(a.items) }

// At returns entry i in sorted order: the merge join's direct positional
// access.
func (a *Array[E]) At(i int) E { return a.items[i] }

// Insert adds e, shifting the tail — O(n) data movement.
func (a *Array[E]) Insert(e E) bool {
	i := sortutil.Search(a.items, func(x E) int { return a.cmp(x, e) }, a.m)
	if a.cfg.Unique && i < len(a.items) && a.cmp(a.items[i], e) == 0 {
		a.m.AddCompare(1)
		return false
	}
	var zero E
	a.items = append(a.items, zero)
	copy(a.items[i+1:], a.items[i:])
	a.items[i] = e
	a.m.AddMove(int64(len(a.items) - i))
	return true
}

// Delete removes the entry identical to e — O(n) data movement.
func (a *Array[E]) Delete(e E) bool {
	i := sortutil.Search(a.items, func(x E) int { return a.cmp(x, e) }, a.m)
	for ; i < len(a.items); i++ {
		a.m.AddCompare(1)
		if a.cmp(a.items[i], e) != 0 {
			return false
		}
		if a.same(a.items[i], e) {
			copy(a.items[i:], a.items[i+1:])
			a.items = a.items[:len(a.items)-1]
			a.m.AddMove(int64(len(a.items) - i))
			return true
		}
	}
	return false
}

// Search returns an entry matching pos via pure binary search.
func (a *Array[E]) Search(pos index.Pos[E]) (E, bool) {
	i := sortutil.Search(a.items, pos, a.m)
	if i < len(a.items) && pos(a.items[i]) == 0 {
		a.m.AddCompare(1)
		return a.items[i], true
	}
	var zero E
	return zero, false
}

// SearchAllAppend appends every entry matching pos to out and returns the
// extended slice. Matches are contiguous in a sorted array, so this is one
// binary search plus one block append.
func (a *Array[E]) SearchAllAppend(pos index.Pos[E], out []E) []E {
	i := sortutil.Search(a.items, pos, a.m)
	j := i
	for j < len(a.items) && pos(a.items[j]) == 0 {
		j++
	}
	return append(out, a.items[i:j]...)
}

// Range visits entries between the keys described by lo and hi, ascending.
func (a *Array[E]) Range(lo, hi index.Pos[E], fn func(E) bool) {
	for i := sortutil.Search(a.items, lo, a.m); i < len(a.items); i++ {
		if hi(a.items[i]) > 0 {
			return
		}
		if !fn(a.items[i]) {
			return
		}
	}
}

// ScanBatches visits all entries in ascending order, handing them to fn
// in blocks — a contiguous sweep, the fastest scan of any index studied
// (the paper measured ~2/3 the T Tree's scan time). The array's storage
// is already one contiguous block, so this is zero-copy: buf is ignored and fn receives subslices of the array
// itself (up to 256 entries each). fn must not retain or mutate a block.
func (a *Array[E]) ScanBatches(buf []E, fn func(block []E) bool) {
	const block = 256
	items := a.items
	for len(items) > block {
		if !fn(items[:block:block]) {
			return
		}
		items = items[block:]
	}
	if len(items) > 0 {
		fn(items[:len(items):len(items)])
	}
}

// Stats reports the structure's shape: entries only, no pointers — the
// storage baseline every other factor is measured against.
func (a *Array[E]) Stats() index.Stats {
	return index.Stats{
		Entries:    len(a.items),
		EntrySlots: cap(a.items),
		Nodes:      1,
	}
}
