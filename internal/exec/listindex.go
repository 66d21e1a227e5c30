package exec

import (
	"repro/internal/index"
	"repro/internal/index/ttree"
	"repro/internal/meter"
	"repro/internal/storage"
)

// §2.3: "Unlike regular relations, a temporary list can be traversed
// directly; however, it is also possible to have an index on a temporary
// list." A list index is an ordered index over row numbers, keyed by one
// of the list's output columns, so a large intermediate result can feed an
// indexed lookup (or another join) without materializing a relation.

// ListIndex is a T Tree over the rows of a temporary list.
type ListIndex struct {
	list *storage.TempList
	col  int
	tree *ttree.Tree[int]
}

// BuildListIndex indexes the list on output column col.
func BuildListIndex(list *storage.TempList, col int, m *meter.Counters) *ListIndex {
	li := &ListIndex{list: list, col: col}
	li.tree = ttree.New(index.Config[int]{
		Cmp: func(a, b int) int {
			return storage.Compare(list.Value(a, col), list.Value(b, col))
		},
		Same:  func(a, b int) bool { return a == b },
		Meter: m,
	})
	for i := 0; i < list.Len(); i++ {
		li.tree.Insert(i)
	}
	return li
}

// Len returns the number of indexed rows.
func (li *ListIndex) Len() int { return li.tree.Len() }

func (li *ListIndex) pos(key storage.Value) index.Pos[int] {
	return func(row int) int {
		return storage.Compare(li.list.Value(row, li.col), key)
	}
}

// SearchAll visits every row whose indexed column equals key: the equal
// run comes back from the tree as one block.
func (li *ListIndex) SearchAll(key storage.Value, fn func(i int, row storage.Row) bool) {
	for _, r := range li.tree.SearchAllAppend(li.pos(key), nil) {
		if !fn(r, li.list.Row(r)) {
			return
		}
	}
}

// Range visits rows with lo <= column <= hi in key order; nil bounds are
// open.
func (li *ListIndex) Range(lo, hi *storage.Value, fn func(i int, row storage.Row) bool) {
	loPos := func(int) int { return 0 }
	if lo != nil {
		loPos = li.pos(*lo)
	}
	hiPos := func(int) int { return 0 }
	if hi != nil {
		hiPos = li.pos(*hi)
	}
	li.tree.Range(loPos, hiPos, func(r int) bool {
		return fn(r, li.list.Row(r))
	})
}

// Sorted materializes a new temporary list ordered by the indexed column
// — an ORDER BY over an intermediate result.
func (li *ListIndex) Sorted() *storage.TempList {
	rows := make([]int32, 0, li.tree.Len())
	li.tree.ScanBatches(nil, func(block []int) bool {
		for _, r := range block {
			rows = append(rows, int32(r))
		}
		return true
	})
	return li.list.Take(rows)
}
