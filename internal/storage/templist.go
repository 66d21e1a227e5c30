package storage

import (
	"fmt"
	"slices"
)

// ColRef names one output column of a temporary list: field Field of the
// Source-th tuple pointer in each row, or — when Source is Computed — the
// list's Field-th computed column.
type ColRef struct {
	Source int    // position within the row's tuple-pointer vector, or Computed
	Field  int    // field within that source tuple, or computed-vector ordinal
	Name   string // display name
}

// Computed is the Source of a column no source tuple holds: a value the
// query computed (a group key or an aggregate), kept in a vector the list
// owns and indexed by row. See TempList.AddComputed.
const Computed = -1

// Descriptor is a temporary list's result descriptor (§2.3): it identifies
// which fields of the source tuples are part of the result, taking the
// place of projection — no width reduction is ever done, tuples are only
// pointed to.
type Descriptor struct {
	Sources []string // names of the source relations, one per row slot
	Cols    []ColRef
}

// Validate checks internal consistency. A computed column's vector belongs
// to a list, so whether it exists is checked by the list (validFor).
func (d Descriptor) Validate() error {
	if len(d.Sources) == 0 {
		return fmt.Errorf("storage: descriptor needs at least one source")
	}
	for _, c := range d.Cols {
		if c.Source == Computed {
			continue
		}
		if c.Source < 0 || c.Source >= len(d.Sources) {
			return fmt.Errorf("storage: column %q references source %d of %d", c.Name, c.Source, len(d.Sources))
		}
	}
	return nil
}

// validFor is Validate for a list holding ncomp computed vectors.
func (d Descriptor) validFor(ncomp int) error {
	if err := d.Validate(); err != nil {
		return err
	}
	for _, c := range d.Cols {
		if c.Source == Computed && (c.Field < 0 || c.Field >= ncomp) {
			return fmt.Errorf("storage: computed column %q names vector %d of %d", c.Name, c.Field, ncomp)
		}
	}
	return nil
}

// Row is one entry of a temporary list: a vector of tuple pointers, one
// per source relation (a selection result has one, a two-way join result
// has two, and so on). Rows handed out by a TempList are views into its
// arena chunks: valid until the list is Released.
type Row []*Tuple

// ChunkRows is the number of rows per TempList arena chunk. It equals
// BatchSize so a single-source list's chunks double as scan blocks, and
// it is a power of two so row addressing is a shift and a mask.
const (
	ChunkRows  = BatchSize
	chunkShift = 8 // log2(ChunkRows)
	chunkMask  = ChunkRows - 1
)

// TempList is the MM-DBMS intermediate-result structure (§2.3): a list of
// tuple-pointer rows plus a result descriptor. Unlike relations, temporary
// lists may be traversed directly; they can also be indexed.
//
// Storage layout: rows live in chunked, arena-style segments — flat
// blocks of ChunkRows rows × arity tuple pointers, recycled through a
// sync.Pool. Appending never moves existing rows (no regrow-copy: a full
// chunk is simply followed by a fresh one), so row views stay valid
// across appends, and the single-row fast paths (AppendOne, AppendPair)
// write straight into the current chunk without allocating a Row header.
//
// One-row form: a single-source list hinted at one row (NewTempListHint
// with hint 1, the selection of a key a unique index holds at most once)
// is one allocation — header, chunk directory and row slot — and takes no
// pooled chunk, so a point lookup's result costs its caller no 2 KiB
// chunk that would never go back to the pool. It is an ordinary list:
// whoever may append to it may grow it past its row, which then moves to
// a pooled chunk as an exact-fit chunk's rows do (room), and Release pools
// only that chunk, never the slot.
//
// Computed columns: a value no source tuple holds (a group key copied out
// at aggregation time, an aggregate) lives in a vector the list owns, one
// value per row, named by a ColRef with Source Computed. A vector whose
// values are all Int, all Float or all Bool (NULLs aside) keeps only their
// 8-byte payloads, with a NULL bitmap once a NULL arrives; any other keeps
// whole Values (see vector). Every reader goes through the descriptor, so
// Value, RowValues and the column gathers read every kind of column alike.
// Such a list takes no appends: Take is the only way to build one list
// from another, and it carries the vectors with their rows, each in its
// own form.
//
// Concurrency contract: a TempList is single-writer. Parallel operators
// must not share one list across workers — each worker appends to a
// private list and the lists are combined with MergeListsRecycle after
// the workers join.
type TempList struct {
	desc   Descriptor
	arity  int
	chunks [][]*Tuple // all full chunks hold exactly ChunkRows rows; only the last may be partial
	n      int        // total rows
	// settled: the chunks are windows of one slab (see Settle), so none
	// of them may go to the pool.
	settled bool
	comp    []vector // computed column vectors, each n long; never pooled
}

// NewTempList creates an empty temporary list with the given descriptor.
func NewTempList(desc Descriptor) (*TempList, error) {
	if err := desc.validFor(0); err != nil {
		return nil, err
	}
	return &TempList{desc: desc, arity: len(desc.Sources)}, nil
}

// NewTempListHint creates an empty temporary list pre-sized for hint
// rows: the chunk directory is allocated once (appends never regrow it),
// and a hint below ChunkRows gets a single exact-fit chunk so small
// results — point lookups, LIMIT queries — do not pin a full pooled
// chunk. A single-source list hinted at one row is the one-row form (see
// TempList). Lists overrun their hint gracefully; it is a hint, not a cap.
func NewTempListHint(desc Descriptor, hint int) (*TempList, error) {
	if hint == 1 && len(desc.Sources) == 1 {
		if err := desc.validFor(0); err != nil {
			return nil, err
		}
		o := &oneRow{l: TempList{desc: desc, arity: 1}}
		o.dir[0] = o.slot[:0]
		o.l.chunks = o.dir[:]
		return &o.l, nil
	}
	l, err := NewTempList(desc)
	if err != nil {
		return nil, err
	}
	l.presize(hint)
	return l, nil
}

// oneRow is the one-row form of a single-source list: the header with its
// chunk directory and its one row's slot, allocated together.
type oneRow struct {
	l    TempList
	dir  [1][]*Tuple
	slot [1]*Tuple
}

// presize sizes an empty list's arena for hint rows (see NewTempListHint).
func (l *TempList) presize(hint int) {
	if hint > 0 {
		nchunks := (hint + ChunkRows - 1) / ChunkRows
		l.chunks = make([][]*Tuple, 0, nchunks)
		if hint < ChunkRows {
			l.chunks = append(l.chunks, make([]*Tuple, 0, hint*l.arity))
		}
	}
}

// MustTempList is NewTempList that panics on error; for tests and examples.
func MustTempList(desc Descriptor) *TempList {
	l, err := NewTempList(desc)
	if err != nil {
		panic(err)
	}
	return l
}

// MustTempListHint is NewTempListHint that panics on error.
func MustTempListHint(desc Descriptor, hint int) *TempList {
	l, err := NewTempListHint(desc, hint)
	if err != nil {
		panic(err)
	}
	return l
}

// MustTempListDir is MustTempList with the chunk directory sized once for
// hint rows. Unlike NewTempListHint it allocates no exact-fit chunk, so
// every chunk comes from the pool and can go back to it: the shape for a
// worker's private list, whose rows are merged away.
func MustTempListDir(desc Descriptor, hint int) *TempList {
	l := MustTempList(desc)
	if hint >= ChunkRows { // a smaller hint's directory is the first append's
		l.presize(hint)
	}
	return l
}

// Descriptor returns the result descriptor.
func (l *TempList) Descriptor() Descriptor { return l.desc }

// Len returns the number of rows.
func (l *TempList) Len() int { return l.n }

// Arity returns the number of source slots per row.
func (l *TempList) Arity() int { return l.arity }

// room returns the index of a chunk with space for at least one more row,
// growing the arena as needed. A filled exact-fit chunk (from a small
// CapacityHint) is migrated to a full pooled chunk so the layout stays
// uniform: every chunk but the last holds exactly ChunkRows rows.
func (l *TempList) room() int {
	last := len(l.chunks) - 1
	if last >= 0 {
		c := l.chunks[last]
		if len(c)+l.arity <= cap(c) {
			return last
		}
		if len(c) < ChunkRows*l.arity {
			full := append(getChunk(l.arity), c...)
			l.chunks[last] = full
			return last
		}
	}
	l.chunks = append(l.chunks, getChunk(l.arity))
	return last + 1
}

// mustAppend panics unless rows may be appended: a row appended to a list
// with computed columns would have no value in its vectors.
func (l *TempList) mustAppend() {
	if l.comp != nil {
		panic("storage: append to a TempList with computed columns (build it with Take)")
	}
}

// Append adds a row, copying its tuple pointers into the arena. The row
// must have one pointer per source; the caller keeps ownership of the
// slice (it is not retained, so stack-allocated rows never escape).
// Appending to a list with computed columns is a programming error and
// panics.
func (l *TempList) Append(row Row) {
	l.mustAppend()
	if len(row) != l.arity {
		panic(fmt.Sprintf("storage: row arity %d does not match %d sources", len(row), l.arity))
	}
	i := l.room()
	l.chunks[i] = append(l.chunks[i], row...)
	l.n++
}

// AppendOne is the zero-allocation single-source fast path: the selection
// emit `Append(Row{t})` without the Row header. Panics unless the list
// has exactly one source.
func (l *TempList) AppendOne(t *Tuple) {
	l.mustAppend()
	if l.arity != 1 {
		panic(fmt.Sprintf("storage: AppendOne on a list with %d sources", l.arity))
	}
	i := l.room()
	l.chunks[i] = append(l.chunks[i], t)
	l.n++
}

// AppendPair is the zero-allocation two-source fast path: the join emit
// `Append(Row{o, i})` without the Row header. Panics unless the list has
// exactly two sources.
func (l *TempList) AppendPair(o, i *Tuple) {
	l.mustAppend()
	if l.arity != 2 {
		panic(fmt.Sprintf("storage: AppendPair on a list with %d sources", l.arity))
	}
	c := l.room()
	l.chunks[c] = append(l.chunks[c], o, i)
	l.n++
}

// AppendBatch block-copies a batch of tuples into a single-source list —
// the emit path of batched selection. Panics unless the list has exactly
// one source.
func (l *TempList) AppendBatch(ts []*Tuple) {
	l.mustAppend()
	if l.arity != 1 {
		panic(fmt.Sprintf("storage: AppendBatch on a list with %d sources", l.arity))
	}
	l.appendFlat(ts)
}

// appendFlat copies a flat run of tuple pointers (a multiple of arity)
// into the arena, splitting across chunk boundaries with block copies.
func (l *TempList) appendFlat(src []*Tuple) {
	for len(src) > 0 {
		i := l.room()
		c := l.chunks[i]
		space := cap(c) - len(c)
		if space > len(src) {
			space = len(src)
		}
		space -= space % l.arity
		l.chunks[i] = append(c, src[:space]...)
		src = src[space:]
		l.n += space / l.arity
	}
}

// Take returns a new list of l's rows rows[0], rows[1], … in that order,
// under l's descriptor: the one way to reorder, cut or thin out a list
// (ORDER BY, LIMIT, duplicate elimination, a group's representative).
// Each row's tuple pointers are copied into fresh arena chunks and every
// computed vector is gathered by the same ordinals, in its own form, so a
// computed value always stays with its row and a scalar column moves 8
// bytes a value. l is unchanged and still owned by the caller.
func (l *TempList) Take(rows []int32) *TempList {
	out := &TempList{desc: l.desc, arity: l.arity, n: len(rows)}
	out.presize(len(rows))
	a := l.arity
	for _, r := range rows {
		i := int(r)
		off := (i & chunkMask) * a
		c := out.room()
		out.chunks[c] = append(out.chunks[c], l.chunks[i>>chunkShift][off:off+a]...)
	}
	if len(l.comp) > 0 {
		out.comp = takeVectors(l.comp, rows)
	}
	return out
}

// AddComputed gives the list one computed column per name, Len() rows
// each, and returns the ColRefs that read them, for the descriptor the
// list is next moved under (Redescribe). The columns' payloads are cut
// from one slab. Every row of every new column must be stored with
// SetComputed before the list is read. The list owns the columns from then
// on: Take gathers them, Redescribe carries them and Release drops them;
// they never come from or go to the chunk pool. Once a list has a computed
// column it takes no appends.
func (l *TempList) AddComputed(names ...string) []ColRef {
	n := l.n
	slab := make([]uint64, n*len(names))
	refs := make([]ColRef, len(names))
	l.comp = slices.Grow(l.comp, len(names))
	for k, name := range names {
		refs[k] = ColRef{Source: Computed, Field: len(l.comp), Name: name}
		l.comp = append(l.comp, vector{num: slab[k*n : (k+1)*n : (k+1)*n]})
	}
	return refs
}

// SetComputed stores v as row i's value of computed column f (a ColRef's
// Field, as AddComputed returned it).
func (l *TempList) SetComputed(f, i int, v Value) {
	l.comp[f].set(i, v)
}

// Row returns row i as a view into the arena (valid until Release).
func (l *TempList) Row(i int) Row {
	c := l.chunks[i>>chunkShift]
	off := (i & chunkMask) * l.arity
	return c[off : off+l.arity : off+l.arity]
}

// Settle readies the list to leave the engine as a query result: a list
// of more than one chunk has its rows copied into one slab of Len×Arity
// tuple pointers, cut into the same ChunkRows-row windows, so every reader
// addresses rows as before. The returned list takes over the descriptor
// and the computed vectors, its old chunks go back to the pool at once,
// and l is left empty. A result of n rows thus costs one allocation
// instead of one pooled chunk per ChunkRows rows that would never be
// returned. A list of one pooled chunk it does not fill gets an exact-fit
// copy of its rows in place of the chunk, which goes back to the pool: a
// 100-row range leaves in 800 bytes, not in a 2 KiB chunk. Any other list
// of at most one chunk is returned as it is. Release of a settled list
// pools nothing, so no later list is handed a window of the slab.
func (l *TempList) Settle() *TempList {
	if l.settled || len(l.chunks) == 0 {
		return l
	}
	if len(l.chunks) == 1 {
		if c := l.chunks[0]; len(c) < cap(c) && pooledChunk(c, l.arity) {
			l.chunks[0] = append(make([]*Tuple, 0, len(c)), c...)
			putChunk(c, l.arity)
		}
		return l
	}
	slab := make([]*Tuple, l.n*l.arity)
	off := 0
	for i, c := range l.chunks {
		end := off + copy(slab[off:], c)
		putChunk(c, l.arity)
		l.chunks[i] = slab[off:end:end]
		off = end
	}
	out := &TempList{desc: l.desc, arity: l.arity, chunks: l.chunks, n: l.n, settled: true, comp: l.comp}
	l.chunks, l.n, l.comp = nil, 0, nil
	return out
}

// Redescribe moves the list's rows under a new descriptor over the same
// sources — §2.3's projection, which only ever rewrites the descriptor.
// It is O(1) and consuming: the returned list takes over the chunk
// directory and the computed vectors, and l is left empty, so a later
// Release of l returns nothing to the pool. A descriptor that does not fit
// the list — another number of sources, a column of a source or a
// computed vector it lacks — is a programming error and panics.
func (l *TempList) Redescribe(desc Descriptor) *TempList {
	if err := desc.validFor(len(l.comp)); err != nil {
		panic(err)
	}
	if len(desc.Sources) != l.arity {
		panic(fmt.Sprintf("storage: redescribe to %d sources, list has %d", len(desc.Sources), l.arity))
	}
	out := &TempList{desc: desc, arity: l.arity, chunks: l.chunks, n: l.n, settled: l.settled, comp: l.comp}
	l.chunks, l.n, l.settled, l.comp = nil, 0, false, nil
	return out
}

// Release recycles the list's arena chunks back to the pool, drops its
// computed vectors (they are the collector's, never the pool's) and
// empties it; a settled list's slab, too, is left to the collector. The
// caller asserts that no row views (Row, Scan callbacks,
// ScanColumnBatches blocks) are outstanding — the pooled memory will be
// reused by other lists. Ownership rule: whoever holds the only reference
// to a list may move it (Redescribe), have its chunks adopted
// (MergeListsRecycle), settle it or release it; a list handed to a caller
// is never released.
func (l *TempList) Release() {
	if !l.settled {
		for _, c := range l.chunks {
			putChunk(c, l.arity)
		}
	}
	l.chunks, l.comp, l.n, l.settled = nil, nil, 0, false
}

// MergeListsRecycle combines per-worker partial results into one list
// with the given descriptor, in slice order, pre-sizing the arena once.
// Nil partials are skipped. The partials are private worker scratch: a
// full chunk that lands on a chunk boundary of the result is
// adopted — it changes owner instead of being copied and pooled; every
// other chunk is block-copied and goes back to the pool. Each partial is
// left empty. The parts must have no outstanding row views and no
// computed columns.
func MergeListsRecycle(desc Descriptor, parts []*TempList) (*TempList, error) {
	n := 0
	for _, p := range parts {
		if p != nil {
			n += p.n
		}
	}
	out, err := NewTempListHint(desc, n)
	if err != nil {
		return nil, err
	}
	full := ChunkRows * out.arity
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.arity != out.arity {
			panic(fmt.Sprintf("storage: merge arity %d does not match %d sources", p.arity, out.arity))
		}
		if p.comp != nil {
			panic("storage: merge of a TempList with computed columns")
		}
		for i, c := range p.chunks {
			if len(c) == full && out.n == len(out.chunks)*ChunkRows {
				out.chunks = append(out.chunks, c)
				out.n += ChunkRows
				p.chunks[i] = nil // adopted: Release below must not pool it
			} else {
				out.appendFlat(c)
			}
		}
		p.Release()
	}
	return out, nil
}

// Scan visits rows in order until fn returns false. The row passed to fn
// is a view into the arena; copy it (or its pointers) to retain it.
func (l *TempList) Scan(fn func(i int, row Row) bool) {
	i := 0
	a := l.arity
	for _, c := range l.chunks {
		for off := 0; off < len(c); off += a {
			if !fn(i, c[off:off+a:off+a]) {
				return
			}
			i++
		}
	}
}

// ScanColumnBatches visits one source column of every row in blocks — the
// scan behind exec.ListColumn. For single-source lists the arena chunks are handed out directly (zero
// copy); wider rows gather the column into buf (a pooled batch is used
// when buf has no capacity). Blocks are views; they are invalid after fn
// returns false or the scan ends.
func (l *TempList) ScanColumnBatches(col int, buf TupleBatch, fn func(block []*Tuple) bool) {
	if col < 0 || col >= l.arity {
		panic(fmt.Sprintf("storage: column %d out of %d sources", col, l.arity))
	}
	if l.arity == 1 {
		for _, c := range l.chunks {
			if len(c) == 0 {
				continue
			}
			if !fn(c) {
				return
			}
		}
		return
	}
	if cap(buf) == 0 {
		buf = GetBatch()
		defer PutBatch(buf)
	}
	buf = buf[:0]
	a := l.arity
	for _, c := range l.chunks {
		for off := col; off < len(c); off += a {
			buf = append(buf, c[off])
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

// Value extracts output column c of row i: by dereferencing the relevant
// tuple pointer, or from the column's vector when it is computed.
func (l *TempList) Value(i, c int) Value {
	col := l.desc.Cols[c]
	if col.Source == Computed {
		return l.comp[col.Field].at(i)
	}
	return l.Row(i)[col.Source].Field(col.Field)
}

// GatherColumn copies output column c of rows [lo, hi) into out, which
// must have length hi-lo. The chunk walk hoists the per-row chunk lookup
// out of the inner loop, so batched consumers (grouped aggregation, key
// encoding) pay one tuple dereference per value instead of a full row
// resolution per value.
func (l *TempList) GatherColumn(c, lo, hi int, out []Value) {
	col := l.desc.Cols[c]
	if col.Source == Computed {
		l.comp[col.Field].gather(lo, hi, out)
		return
	}
	src, f := col.Source, col.Field
	a := l.arity
	j := 0
	for i := lo; i < hi; {
		ch := l.chunks[i>>chunkShift]
		rows := len(ch)/a - (i & chunkMask)
		if rem := hi - i; rows > rem {
			rows = rem
		}
		off := (i&chunkMask)*a + src
		for r := 0; r < rows; r++ {
			out[j] = ch[off].Field(f)
			off += a
			j++
		}
		i += rows
	}
}

// GatherColumnRows copies output column c of the given rows into out,
// which must have length len(rows) — the scattered-row counterpart of
// GatherColumn for partitioned consumers.
func (l *TempList) GatherColumnRows(c int, rows []int32, out []Value) {
	col := l.desc.Cols[c]
	if col.Source == Computed {
		l.comp[col.Field].gatherRows(rows, out)
		return
	}
	src, f := col.Source, col.Field
	a := l.arity
	for j, r := range rows {
		i := int(r)
		out[j] = l.chunks[i>>chunkShift][(i&chunkMask)*a+src].Field(f)
	}
}

// RowValues materializes all output columns of row i. This is the only
// point at which data is copied out of the source tuples — the final
// delivery of a query result.
func (l *TempList) RowValues(i int) []Value {
	out := make([]Value, len(l.desc.Cols))
	row := l.Row(i)
	for c, col := range l.desc.Cols {
		if col.Source == Computed {
			out[c] = l.comp[col.Field].at(i)
			continue
		}
		out[c] = row[col.Source].Field(col.Field)
	}
	return out
}

// ColumnNames returns the output column names in order.
func (l *TempList) ColumnNames() []string {
	names := make([]string, len(l.desc.Cols))
	for i, c := range l.desc.Cols {
		names[i] = c.Name
	}
	return names
}
