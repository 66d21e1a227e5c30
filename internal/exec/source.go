// Package exec implements the MM-DBMS query operators of §3: selection
// through an index (hash lookup, tree lookup, range, or sequential scan
// through an unrelated index), the five studied join methods plus the
// precomputed pointer join, and duplicate-eliminating projection by Sort
// Scan or Hashing. Operators consume tuple sources and produce temporary
// lists (§2.3) — tuple-pointer rows plus a result descriptor; data is
// never copied, only pointed to.
package exec

import (
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// Source yields tuples. Relations are always reached through an index
// (§2.1); temporary lists may be traversed directly.
type Source interface {
	Len() int
	Scan(fn func(*storage.Tuple) bool)
}

// BatchSource is an optional capability of sources that can hand tuples
// out in blocks — the batch-at-a-time contract of storage.TupleBatch.
// fn must not retain the block; implementations may reuse buf between
// calls or hand out zero-copy views of their own storage.
type BatchSource interface {
	ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool)
}

// ScanBatches drains src block-wise: natively when src implements
// BatchSource, otherwise by gathering the per-tuple scan into buf and
// flushing each time it fills. All exec operators use this instead of
// Source.Scan on their hot paths.
func ScanBatches(src Source, buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	if bs, ok := src.(BatchSource); ok {
		bs.ScanBatches(buf, fn)
		return
	}
	if cap(buf) == 0 {
		buf = make([]*storage.Tuple, 0, storage.BatchSize)
	}
	buf = buf[:0]
	stop := false
	src.Scan(func(t *storage.Tuple) bool {
		buf = append(buf, t)
		if len(buf) == cap(buf) {
			if !fn(buf) {
				stop = true
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if !stop && len(buf) > 0 {
		fn(buf)
	}
}

// OrderedScan adapts an ordered tuple index into a Source; iteration is in
// key order.
type OrderedScan struct{ Index tupleindex.Ordered }

// Len returns the number of tuples.
func (s OrderedScan) Len() int { return s.Index.Len() }

// Scan visits tuples in ascending key order.
func (s OrderedScan) Scan(fn func(*storage.Tuple) bool) { s.Index.ScanAsc(fn) }

// ScanBatches implements BatchSource: blocks come node-wise from the
// index when it scans in batches natively (T Tree, sorted array).
func (s OrderedScan) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	tupleindex.ScanBatches(s.Index, buf, fn)
}

// HashedScan adapts a hash tuple index into a Source; iteration order is
// unspecified.
type HashedScan struct{ Index tupleindex.Hashed }

// Len returns the number of tuples.
func (s HashedScan) Len() int { return s.Index.Len() }

// Scan visits tuples in unspecified order.
func (s HashedScan) Scan(fn func(*storage.Tuple) bool) { s.Index.Scan(fn) }

// ScanBatches implements BatchSource.
func (s HashedScan) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	tupleindex.ScanHashedBatches(s.Index, buf, fn)
}

// ListColumn adapts one column of a temporary list into a Source: the
// paper's pipeline where a selection result feeds a join (§2.1 Query 2).
type ListColumn struct {
	List   *storage.TempList
	Column int // which source slot of each row to yield
}

// Len returns the number of rows.
func (s ListColumn) Len() int { return s.List.Len() }

// Scan visits the column's tuples in row order.
func (s ListColumn) Scan(fn func(*storage.Tuple) bool) {
	s.List.Scan(func(_ int, row storage.Row) bool { return fn(row[s.Column]) })
}

// ScanBatches implements BatchSource. Single-source lists hand their arena
// chunks out zero-copy; wider lists gather the column into buf.
func (s ListColumn) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	s.List.ScanColumnBatches(s.Column, buf, fn)
}

// Tuples materializes a source into a slice; builders (hash table, sort
// array) use it as their input pass. The source is drained block-wise and
// block-copied into the result.
func Tuples(s Source) []*storage.Tuple {
	out := make([]*storage.Tuple, 0, s.Len())
	buf := storage.GetBatch()
	ScanBatches(s, buf, func(block storage.TupleBatch) bool {
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

// PairDescriptor builds the descriptor for a two-source join result; cols
// name the output columns as (source, field, name) triples.
func PairDescriptor(outerName, innerName string, cols []storage.ColRef) storage.Descriptor {
	return storage.Descriptor{Sources: []string{outerName, innerName}, Cols: cols}
}
