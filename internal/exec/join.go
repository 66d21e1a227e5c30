package exec

import (
	"repro/internal/mem"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tupleindex"

	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
)

// JoinSpec configures a two-relation equijoin producing a temporary list
// of (outer, inner) tuple-pointer rows.
type JoinSpec struct {
	OuterName, InnerName   string
	OuterField, InnerField int // join columns; SelfField joins on tuple identity
	Meter                  *meter.Counters
	// Discard counts result rows without materializing them — for
	// benchmark sweeps whose cross-product outputs would not fit in
	// memory. RowsOut, when non-nil, receives the emitted row count — on
	// every completion path, including joins cut short by Limit.
	Discard bool
	RowsOut *int
	// Limit stops the join after emitting this many rows (0 = unlimited):
	// the early-exit path a LIMIT query takes. Every join method honors it
	// by unwinding its scans, and RowsOut still reports the rows actually
	// emitted.
	Limit int
	// Hint, when positive, is the expected result cardinality; the output
	// list is presized so no chunk growth happens while the join emits.
	Hint int
	// Prog, when non-nil, receives live rows-processed progress and
	// worker saturation from the parallel executor (the serial operators
	// in this package ignore it). Nil is the disabled state; every
	// Progress method tolerates it.
	Prog *obs.Progress
	// Sched is the query's admission handle on the shared morsel
	// scheduler (see SelectSpec.Sched). The serial operators ignore it.
	Sched *sched.Query
	// Mem is the query's memory reservation on the engine grant manager.
	// When non-nil, the radix join grants every partition's build table
	// before constructing it and degrades gracefully when a grant is
	// refused: build/probe role reversal on partition pairs whose
	// forecast build side turned out larger, recursive re-splitting of
	// partitions whose table would overflow the grant, and forced
	// overcommit (recorded) only when a partition cannot be split
	// smaller. Nil — the unbudgeted state — runs the exact pre-budget
	// code path.
	Mem *mem.Reservation
}

// emitter materializes (or merely counts) join result rows.
type emitter struct {
	spec JoinSpec
	list *storage.TempList
	n    int
}

func (s JoinSpec) newEmitter() *emitter {
	return &emitter{spec: s, list: s.newList()}
}

// emit records one result row and reports whether the join should keep
// going — false once the Limit is reached. Join loops must propagate a
// false return by unwinding their scans.
func (e *emitter) emit(o, i *storage.Tuple) bool {
	e.n++
	if !e.spec.Discard {
		e.list.AppendPair(o, i) // zero-alloc: no Row header on the hot path
	}
	return e.more()
}

// more reports whether the emitter still accepts rows.
func (e *emitter) more() bool {
	return e.spec.Limit <= 0 || e.n < e.spec.Limit
}

// done finalizes the result. It is the single exit point of every join
// method — early-exit paths (Limit, a Scan cut short) flow through it too,
// so RowsOut always reflects the rows actually emitted.
func (e *emitter) done() *storage.TempList {
	if e.spec.RowsOut != nil {
		*e.spec.RowsOut = e.n
	}
	return e.list
}

func (s JoinSpec) newList() *storage.TempList {
	if s.Hint > 0 {
		return storage.MustTempListHint(PairDescriptor(s.OuterName, s.InnerName), s.Hint)
	}
	return storage.MustTempList(PairDescriptor(s.OuterName, s.InnerName))
}

// Every equijoin here follows the SQL rule: a NULL key equals nothing,
// not even another NULL, so an outer tuple with a NULL key matches no
// inner tuple and a NULL inner key is never matched. storage.Equal, under
// which NULL equals NULL, is only ever asked about a non-NULL probe key.

// NestedLoopsJoin is the pure O(N²) join: each outer tuple scans the
// entire inner relation. §3.3.4: "unless one plans to generate full cross
// products on a regular basis, nested loops join should simply never be
// considered as a practical join method for a main memory DBMS."
func NestedLoopsJoin(outer, inner Source, spec JoinSpec) *storage.TempList {
	out := spec.newEmitter()
	// One inner-scan closure for the whole join, capturing the mutable
	// outer tuple and key.
	var o *storage.Tuple
	var ko storage.Value
	probe := func(block storage.TupleBatch) bool {
		for _, i := range block {
			spec.Meter.AddCompare(1)
			if storage.Equal(ko, tupleindex.KeyOf(i, spec.InnerField)) && !out.emit(o, i) {
				return false
			}
		}
		return true
	}
	obuf, ibuf := storage.GetBatch(), storage.GetBatch()
	outer.ScanBatches(obuf, func(block storage.TupleBatch) bool {
		for _, t := range block {
			if o, ko = t, tupleindex.KeyOf(t, spec.OuterField); !ko.IsNull() {
				inner.ScanBatches(ibuf, probe)
			}
			if !out.more() {
				return false
			}
		}
		return true
	})
	storage.PutBatch(ibuf)
	storage.PutBatch(obuf)
	return out.done()
}

// HashJoin builds a chained-bucket hash table on the inner join column —
// the build cost is always included, "because we feel that a hash table
// index is less likely to exist than a T Tree index" (§3.3.2) — then
// probes it with each outer tuple.
func HashJoin(outer, inner Source, spec JoinSpec) *storage.TempList {
	const ns = 4 // the chain node size of the table the join builds
	ht := tupleindex.NewChainHash(tupleindex.Options{
		Field:    spec.InnerField,
		NodeSize: ns,
		// Capacity is a hint in ENTRIES, not slots: chainhash sizes its
		// directory at Capacity/NodeSize slots so a table loaded to its
		// hint averages one full chain node per slot. Sized for exactly
		// the inner cardinality, the average chain length is ≈ 1 node and
		// the lookup cost is the paper's fixed k — "much smaller than
		// log2(|R2|) but larger than 2" (§3.3.4). (A previous revision
		// passed inner.Len()*NodeSize here, silently allocating NodeSize×
		// the intended directory and pushing k below the paper's model.)
		Capacity: max(inner.Len(), 1),
		Meter:    spec.Meter,
	})
	buf := storage.GetBatch()
	inner.ScanBatches(buf, func(block storage.TupleBatch) bool {
		spec.Meter.AddBatch(1)
		for _, t := range block {
			ht.Insert(t)
		}
		return true
	})
	storage.PutBatch(buf)
	return probeHash(outer, ht, spec)
}

// probeHash drains the outer source in blocks and, per outer tuple, pulls
// the whole bucket match set in one SearchKeyAppend call before emitting —
// the probe inner loop runs over two cache-resident blocks instead of
// bouncing through nested callbacks. §3.1 hash and comparison counts are
// identical to the tuple-at-a-time formulation.
func probeHash(outer Source, inner tupleindex.Hashed, spec JoinSpec) *storage.TempList {
	out := spec.newEmitter()
	buf := storage.GetBatch()
	matches := storage.GetBatch()
	// One match closure for the whole probe, capturing the mutable probe
	// key — a per-tuple closure literal would heap-allocate on every probe.
	var ko storage.Value
	fi := spec.InnerField
	match := func(i *storage.Tuple) bool {
		spec.Meter.AddCompare(1)
		return storage.Equal(tupleindex.KeyOf(i, fi), ko)
	}
	outer.ScanBatches(buf, func(block storage.TupleBatch) bool {
		spec.Meter.AddBatch(1)
		for _, o := range block {
			ko = tupleindex.KeyOf(o, spec.OuterField)
			spec.Meter.AddHash(1)
			if ko.IsNull() {
				continue
			}
			matches = inner.SearchKeyAppend(storage.Hash(ko), match, matches[:0])
			for _, i := range matches {
				if !out.emit(o, i) {
					return false
				}
			}
		}
		return true
	})
	storage.PutBatch(matches)
	storage.PutBatch(buf)
	return out.done()
}

// TreeJoin uses an existing ordered index (in the MM-DBMS, a T Tree) on
// the inner join column: each outer tuple searches the tree, then scans in
// both directions for duplicates. Building the tree for the join is never
// worthwhile — "a T Tree costs more to build and a hash table is faster
// for single value retrieval" (§3.3.2) — so no build variant exists.
func TreeJoin(outer Source, inner tupleindex.Ordered, spec JoinSpec) *storage.TempList {
	out := spec.newEmitter()
	buf := storage.GetBatch()
	matches := storage.GetBatch()
	// One position function for the whole probe (tupleindex.PosFor would
	// allocate a fresh closure per outer tuple).
	kp := tupleindex.GetKeyPos(storage.NullValue, spec.InnerField)
	defer tupleindex.PutKeyPos(kp)
	outer.ScanBatches(buf, func(block storage.TupleBatch) bool {
		spec.Meter.AddBatch(1)
		for _, o := range block {
			if kp.Key = tupleindex.KeyOf(o, spec.OuterField); kp.Key.IsNull() {
				continue
			}
			matches = inner.SearchAllAppend(kp.Pos, matches[:0])
			for _, i := range matches {
				if !out.emit(o, i) {
					return false
				}
			}
		}
		return true
	})
	storage.PutBatch(matches)
	storage.PutBatch(buf)
	return out.done()
}

// SortMergeJoin is the main-memory variant of [BlE77]: build array indices
// on both join columns (append + quicksort with the insertion-sort
// cutoff), then merge. The build cost is part of the method.
func SortMergeJoin(outer, inner Source, spec JoinSpec) *storage.TempList {
	ao := tupleindex.BuildArray(tupleindex.Options{Field: spec.OuterField, Meter: spec.Meter}, Tuples(outer))
	ai := tupleindex.BuildArray(tupleindex.Options{Field: spec.InnerField, Meter: spec.Meter}, Tuples(inner))
	return MergeJoinArrays(ao, ai, spec)
}

// MergeJoinArrays merges two existing sorted-array indices.
func MergeJoinArrays(outer, inner *sortedarray.Array[*storage.Tuple], spec JoinSpec) *storage.TempList {
	out := spec.newEmitter()
	a := &arrayCursor{arr: outer}
	b := &arrayCursor{arr: inner}
	mergeJoin(a, b, spec, out)
	return out.done()
}

// TreeMergeJoin merges two existing T Tree indices in key order. With both
// indices present this was the paper's best method in almost all cases;
// building them for the join is never worthwhile (§3.3.5).
func TreeMergeJoin(outer, inner *ttree.Tree[*storage.Tuple], spec JoinSpec) *storage.TempList {
	out := spec.newEmitter()
	ac := outer.First()
	bc := inner.First()
	mergeJoin(&treeCursor{c: ac}, &treeCursor{c: bc}, spec, out)
	return out.done()
}

// PrecomputedJoin follows the tuple-pointer foreign-key field (§2.1): the
// joining tuples are already paired, so result rows are extracted from the
// outer relation alone with no comparisons. Tuples with a null pointer
// have no match and produce no row.
func PrecomputedJoin(outer Source, refField int, spec JoinSpec) *storage.TempList {
	out := spec.newEmitter()
	buf := storage.GetBatch()
	outer.ScanBatches(buf, func(block storage.TupleBatch) bool {
		spec.Meter.AddBatch(1)
		for _, o := range block {
			v := o.Field(refField)
			if !v.IsNull() && !out.emit(o, v.Ref()) {
				return false
			}
		}
		return true
	})
	storage.PutBatch(buf)
	return out.done()
}

// joinCursor is the merge join's ordered iterator; clones mark the start
// of an equal group for rescanning.
type joinCursor interface {
	valid() bool
	tuple() *storage.Tuple
	next()
	clone() joinCursor
}

type arrayCursor struct {
	arr *sortedarray.Array[*storage.Tuple]
	i   int
}

func (c *arrayCursor) valid() bool           { return c.i < c.arr.Len() }
func (c *arrayCursor) tuple() *storage.Tuple { return c.arr.At(c.i) }
func (c *arrayCursor) next()                 { c.i++ }
func (c *arrayCursor) clone() joinCursor     { cp := *c; return &cp }

type treeCursor struct{ c ttree.Cursor[*storage.Tuple] }

func (c *treeCursor) valid() bool           { return c.c.Valid() }
func (c *treeCursor) tuple() *storage.Tuple { return c.c.Entry() }
func (c *treeCursor) next()                 { c.c.Next() }
func (c *treeCursor) clone() joinCursor     { cp := *c; return &cp }

// mergeJoin is the merge phase of [BlE77] with duplicate handling: on a
// key match it emits the cross product of the two equal groups by
// rescanning the inner group from a cloned cursor for every outer tuple in
// its group. NULL keys sort first and are stepped over on both sides.
func mergeJoin(a, b joinCursor, spec JoinSpec, out *emitter) {
	fo, fi := spec.OuterField, spec.InnerField
	for a.valid() && b.valid() && out.more() {
		ka := tupleindex.KeyOf(a.tuple(), fo)
		if ka.IsNull() {
			a.next()
			continue
		}
		v := tupleindex.KeyOf(b.tuple(), fi)
		if v.IsNull() {
			b.next()
			continue
		}
		spec.Meter.AddCompare(1)
		switch c := storage.Compare(ka, v); {
		case c < 0:
			a.next()
		case c > 0:
			b.next()
		default:
			// Cross product of the equal groups.
			for a.valid() && storage.Compare(tupleindex.KeyOf(a.tuple(), fo), v) == 0 {
				spec.Meter.AddCompare(1)
				o := a.tuple()
				bb := b.clone()
				for bb.valid() && storage.Compare(tupleindex.KeyOf(bb.tuple(), fi), v) == 0 {
					spec.Meter.AddCompare(1)
					if !out.emit(o, bb.tuple()) {
						return
					}
					bb.next()
				}
				a.next()
			}
			for b.valid() && storage.Compare(tupleindex.KeyOf(b.tuple(), fi), v) == 0 {
				spec.Meter.AddCompare(1)
				b.next()
			}
		}
	}
}
