package storage

import (
	"reflect"
	"testing"
)

// Settle tests: a list that leaves the engine as a query result is copied
// into one slab, reads exactly as before, and never lends a window of that
// slab to the chunk pool.

// settleList builds an n-row list over arity sources (slot k of row i
// points at srcs[k][i]) with the four computed columns of computedList —
// Int with NULLs, Str, Float with NaN and -0, Bool — described between two
// pointer columns, so every reader of every column form is exercised.
func settleList(t *testing.T, arity, n int) (*TempList, [][]*Tuple) {
	t.Helper()
	names := []string{"r", "s", "u", "v"}[:arity]
	srcs := make([][]*Tuple, arity)
	for k, name := range names {
		srcs[k] = batchTestRelation(t, name, n)
	}
	l := MustTempList(Descriptor{Sources: names})
	row := make(Row, arity)
	for i := 0; i < n; i++ {
		for k := range row {
			row[k] = srcs[k][i]
		}
		l.Append(row)
	}
	refs := l.AddComputed("neg", "name", "f", "b")
	for i := 0; i < n; i++ {
		want := computedWant(i)
		for k, c := range computedCols {
			l.SetComputed(refs[k].Field, i, want[c])
		}
	}
	cols := []ColRef{
		{Source: 0, Field: 0, Name: "val"}, refs[0], refs[1],
		{Source: arity - 1, Field: 0, Name: "val2"}, refs[2], refs[3],
	}
	return l.Redescribe(Descriptor{Sources: names, Cols: cols}), srcs
}

// checkSettled asserts s holds rows 0..n-1 of settleList in order: every
// tuple pointer of every row, and every column bit for bit through Value,
// RowValues and GatherColumn.
func checkSettled(t *testing.T, s *TempList, srcs [][]*Tuple, n int) {
	t.Helper()
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	checkForms(t, s)
	gathered := make([][]Value, len(s.Descriptor().Cols))
	for c := range gathered {
		gathered[c] = make([]Value, n)
		s.GatherColumn(c, 0, n, gathered[c])
	}
	for i := 0; i < n; i++ {
		row := s.Row(i)
		for k := range srcs {
			if row[k] != srcs[k][i] {
				t.Fatalf("row %d slot %d points at the wrong tuple", i, k)
			}
		}
		vals := s.RowValues(i)
		for c, w := range computedWant(i) {
			if v := s.Value(i, c); !identical(v, w) || !identical(vals[c], w) || !identical(gathered[c][i], w) {
				t.Fatalf("row %d col %d: Value %v, RowValues %v, GatherColumn %v; want %v", i, c, v, vals[c], gathered[c][i], w)
			}
		}
	}
}

// TestSettleKeepsRowsInOneSlab: at arity 1, 2 and 4, Settle copies a
// multi-chunk list into one slab of Len×Arity pointers cut into
// ChunkRows-row windows, in at most two allocations (the slab and the list
// header); the rows, their order and every computed value read as before,
// and the source is left empty. A one-chunk list and a frozen list are
// returned as they are.
func TestSettleKeepsRowsInOneSlab(t *testing.T) {
	n := 3*ChunkRows + 17
	for _, arity := range []int{1, 2, 4} {
		// AllocsPerRun settles lists[0] to warm up and measures lists[1].
		var lists [2]*TempList
		var srcs [2][][]*Tuple
		for i := range lists {
			lists[i], srcs[i] = settleList(t, arity, n)
		}
		var settled *TempList
		next := 0
		allocs := testing.AllocsPerRun(1, func() {
			settled = lists[next].Settle()
			next++
		})
		if allocs > 2 && !raceEnabled {
			t.Errorf("arity %d: Settle allocates %.0f times, ceiling 2", arity, allocs)
		}
		src := lists[1]
		if src.Len() != 0 || src.chunks != nil || src.comp != nil {
			t.Fatalf("arity %d: the settled source keeps %d rows", arity, src.Len())
		}
		if len(settled.chunks) != (n+ChunkRows-1)/ChunkRows {
			t.Fatalf("arity %d: %d windows for %d rows", arity, len(settled.chunks), n)
		}
		base := reflect.ValueOf(settled.chunks[0]).Pointer()
		for i, w := range settled.chunks {
			if got := reflect.ValueOf(w).Pointer() - base; got != uintptr(i*ChunkRows*arity)*reflect.TypeOf(w[0]).Size() {
				t.Fatalf("arity %d: window %d is not at its offset in one slab", arity, i)
			}
		}
		checkSettled(t, settled, srcs[1], n)
	}

	one, _ := settleList(t, 2, ChunkRows)
	if one.Settle() != one {
		t.Fatal("a one-chunk list was copied")
	}
}

// TestReleaseOfSettledListPoolsNothing: Release of a settled list returns
// none of its windows to the pool — scribbling over everything the pool
// hands out afterwards leaves the slab intact.
func TestReleaseOfSettledListPoolsNothing(t *testing.T) {
	n := 4*ChunkRows + 9
	tuples := batchTestRelation(t, "r", n)
	settle := func() (*TempList, [][]*Tuple) {
		l := MustTempList(singleDesc())
		l.AppendBatch(tuples)
		s := l.Settle()
		return s, append([][]*Tuple(nil), s.chunks...)
	}
	intact := func(how string, windows [][]*Tuple) {
		t.Helper()
		scribblePool(t, 4*len(windows))
		i := 0
		for _, w := range windows {
			for _, tp := range w {
				if tp != tuples[i] {
					t.Fatalf("%s: slab row %d was overwritten through the pool", how, i)
				}
				i++
			}
		}
	}

	s, windows := settle()
	s.Release()
	intact("Release", windows)
	// The emptied list is no longer settled: its new chunks are pooled ones.
	s.AppendBatch(tuples[:ChunkRows+1])
	checkOrder(t, s, tuples[:ChunkRows+1])
}
