// Package exec implements the MM-DBMS query operators of §3: selection
// through an index (hash lookup, tree lookup, range, or sequential scan
// through an unrelated index), the five studied join methods plus the
// precomputed pointer join, and duplicate-eliminating projection by Sort
// Scan or Hashing. Operators consume tuple sources block by block and
// produce temporary lists (§2.3) — tuple-pointer rows plus a result
// descriptor; data is never copied, only pointed to.
package exec

import "repro/internal/storage"

// Source yields tuples in blocks. Relations are always reached through an
// index (§2.1); temporary lists may be traversed directly. A tuple index
// is a Source as it stands: storage.TupleBatch is []*storage.Tuple, so
// the ScanBatches of index.Ordered and index.Hashed over tuples is this
// one.
type Source interface {
	// Len returns the number of tuples.
	Len() int
	// ScanBatches hands every tuple to fn in blocks until fn returns
	// false. Blocks are gathered into buf (a fresh block when buf has no
	// capacity) or are views of the source's own storage; fn must neither
	// retain nor mutate a block.
	ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool)
}

// ListColumn adapts one column of a temporary list into a Source: the
// paper's pipeline where a selection result feeds a join (§2.1 Query 2).
type ListColumn struct {
	List   *storage.TempList
	Column int // which source slot of each row to yield
}

// Len returns the number of rows.
func (s ListColumn) Len() int { return s.List.Len() }

// ScanBatches hands the column's tuples out in row order. Single-source
// lists hand their arena chunks out zero-copy; wider lists gather the
// column into buf.
func (s ListColumn) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	s.List.ScanColumnBatches(s.Column, buf, fn)
}

// Tuples materializes a source into a slice; builders (hash table, sort
// array) use it as their input pass. The source is drained block-wise and
// block-copied into the result.
func Tuples(s Source) []*storage.Tuple {
	out := make([]*storage.Tuple, 0, s.Len())
	buf := storage.GetBatch()
	s.ScanBatches(buf, func(block storage.TupleBatch) bool {
		out = append(out, block...)
		return true
	})
	storage.PutBatch(buf)
	return out
}

// SingleDescriptor builds the descriptor for a one-source result over the
// named relation, exposing every column of its schema — the descriptor
// every selection operator (serial or parallel) emits.
func SingleDescriptor(relName string, schema *storage.Schema) storage.Descriptor {
	d := storage.Descriptor{Sources: []string{relName}, Cols: make([]storage.ColRef, schema.Arity())}
	for i := range d.Cols {
		d.Cols[i] = storage.ColRef{Source: 0, Field: i, Name: schema.Field(i).Name}
	}
	return d
}

// PairDescriptor builds the descriptor for a two-source join result: its
// rows only, no output columns (a projection names them).
func PairDescriptor(outerName, innerName string) storage.Descriptor {
	return storage.Descriptor{Sources: []string{outerName, innerName}}
}
