package storage

import "testing"

// Arena-layout tests: chunk boundaries, view stability, capacity hints,
// recycling, and the zero-allocation append fast paths.

func batchTestRelation(t testing.TB, name string, n int) []*Tuple {
	t.Helper()
	sch := MustSchema(FieldDef{Name: "val", Type: Int})
	rel, err := NewRelation(name, sch, Config{}, NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Tuple, n)
	for i := 0; i < n; i++ {
		tp, err := rel.Insert([]Value{IntValue(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tp
	}
	return out
}

func singleDesc() Descriptor {
	return Descriptor{Sources: []string{"r"}, Cols: []ColRef{{Source: 0, Field: 0, Name: "val"}}}
}

func pairDesc() Descriptor {
	return Descriptor{Sources: []string{"a", "b"}}
}

func checkOrder(t *testing.T, l *TempList, want []*Tuple) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	for i, tp := range want {
		if got := l.Row(i)[0]; got != tp {
			t.Fatalf("Row(%d)[0] = %p, want %p", i, got, tp)
		}
	}
	i := 0
	l.Scan(func(j int, row Row) bool {
		if j != i {
			t.Fatalf("Scan index %d, want %d", j, i)
		}
		if row[0] != want[i] {
			t.Fatalf("Scan row %d mismatch", i)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("Scan visited %d rows, want %d", i, len(want))
	}
}

func TestTempListChunkBoundaries(t *testing.T) {
	n := 3*ChunkRows + 17 // several full chunks plus a partial tail
	tuples := batchTestRelation(t, "r", n)
	l := MustTempList(singleDesc())
	for i, tp := range tuples {
		if i%2 == 0 {
			l.AppendOne(tp)
		} else {
			l.Append(Row{tp})
		}
	}
	checkOrder(t, l, tuples)
}

func TestTempListRowViewsStableAcrossAppends(t *testing.T) {
	tuples := batchTestRelation(t, "r", 2*ChunkRows)
	l := MustTempList(singleDesc())
	l.AppendOne(tuples[0])
	early := l.Row(0)
	for _, tp := range tuples[1:] {
		l.AppendOne(tp) // crosses a chunk boundary; must not move row 0
	}
	if early[0] != tuples[0] {
		t.Fatal("row view invalidated by later appends")
	}
	if &early[0] != &l.Row(0)[0] {
		t.Fatal("row 0 moved: chunks must never reallocate")
	}
}

func TestTempListAppendBatchSplits(t *testing.T) {
	n := 2*ChunkRows + ChunkRows/2
	tuples := batchTestRelation(t, "r", n)
	l := MustTempList(singleDesc())
	// Odd split points so block copies straddle chunk boundaries.
	l.AppendBatch(tuples[:3])
	l.AppendBatch(tuples[3 : ChunkRows+5])
	l.AppendBatch(tuples[ChunkRows+5:])
	checkOrder(t, l, tuples)
}

func TestTempListAppendPair(t *testing.T) {
	n := ChunkRows + 9
	a := batchTestRelation(t, "a", n)
	b := batchTestRelation(t, "b", n)
	l := MustTempList(pairDesc())
	for i := 0; i < n; i++ {
		l.AppendPair(a[i], b[i])
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for i := 0; i < n; i++ {
		row := l.Row(i)
		if row[0] != a[i] || row[1] != b[i] {
			t.Fatalf("row %d = (%p,%p), want (%p,%p)", i, row[0], row[1], a[i], b[i])
		}
	}
}

func TestTempListHintExactFitAndOverrun(t *testing.T) {
	tuples := batchTestRelation(t, "r", 2*ChunkRows)
	l := MustTempListHint(singleDesc(), 10)
	for _, tp := range tuples { // 40x the hint: must grow gracefully
		l.AppendOne(tp)
	}
	checkOrder(t, l, tuples)

	big := MustTempListHint(singleDesc(), len(tuples))
	big.AppendBatch(tuples)
	checkOrder(t, big, tuples)
}

// TestOneRowList: a single-source list hinted at one row holds its row
// in one allocation and takes no pooled chunk, and settling it leaves it
// as it is; appended past its row, by one tuple or by a batch, it grows
// like any list, and once released it takes appends again.
func TestOneRowList(t *testing.T) {
	tuples := batchTestRelation(t, "r", 2*ChunkRows+5)
	desc := singleDesc()
	if n := testing.AllocsPerRun(100, func() {
		l := MustTempListHint(desc, 1)
		l.AppendOne(tuples[0])
		if l.Settle() != l || l.Len() != 1 || l.Row(0)[0] != tuples[0] {
			t.Fatal("one-row list lost its row")
		}
	}); n != 1 {
		t.Fatalf("a one-row list allocates %.0f times, want 1", n)
	}
	for _, batch := range []bool{false, true} {
		l := MustTempListHint(desc, 1)
		if batch {
			l.AppendOne(tuples[0])
			l.AppendBatch(tuples[1:])
		} else {
			for _, tp := range tuples {
				l.AppendOne(tp)
			}
		}
		checkOrder(t, l, tuples)
		l.Release()
		l.AppendBatch(tuples)
		checkOrder(t, l, tuples)
	}
}

// TestTempListResetReuse: a list Release empties takes appends again.
func TestTempListResetReuse(t *testing.T) {
	tuples := batchTestRelation(t, "r", ChunkRows+3)
	l := MustTempList(singleDesc())
	l.AppendBatch(tuples)
	l.Release()
	if l.Len() != 0 {
		t.Fatalf("Len after Release = %d", l.Len())
	}
	l.AppendBatch(tuples[:5])
	checkOrder(t, l, tuples[:5])
	l.Release()
	if l.Len() != 0 {
		t.Fatalf("Len after the second Release = %d", l.Len())
	}
}

func TestMergeListsRecycle(t *testing.T) {
	tuples := batchTestRelation(t, "r", 3*ChunkRows)
	parts := make([]*TempList, 4)
	bounds := []int{0, 100, ChunkRows + 1, 2 * ChunkRows, len(tuples)}
	for i := range parts {
		p := MustTempList(singleDesc())
		p.AppendBatch(tuples[bounds[i]:bounds[i+1]])
		parts[i] = p
	}
	parts = append(parts, nil) // nil partials are skipped
	out, err := MergeListsRecycle(singleDesc(), parts)
	if err != nil {
		t.Fatal(err)
	}
	checkOrder(t, out, tuples)
	for i, p := range parts[:4] {
		if p.Len() != 0 {
			t.Fatalf("part %d not emptied after recycle", i)
		}
	}
}

// TestMergeListsRecycleAdoptsAlignedChunks: a full chunk that lands on a
// chunk boundary of the result changes owner instead of being copied, and
// an adopted chunk is never also returned to the pool — scribbling over
// everything the pool hands out afterwards leaves the result intact.
func TestMergeListsRecycleAdoptsAlignedChunks(t *testing.T) {
	tuples := batchTestRelation(t, "r", 5*ChunkRows+40)
	bounds := []int{0, 2 * ChunkRows, 2*ChunkRows + 100, 4*ChunkRows + 100, len(tuples)}
	parts := make([]*TempList, len(bounds)-1)
	for i := range parts {
		parts[i] = MustTempList(singleDesc())
		parts[i].AppendBatch(tuples[bounds[i]:bounds[i+1]])
	}
	first, second, off := &parts[0].chunks[0][0], &parts[0].chunks[1][0], &parts[2].chunks[0][0]
	out, err := MergeListsRecycle(singleDesc(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if &out.chunks[0][0] != first || &out.chunks[1][0] != second {
		t.Fatal("the aligned full chunks of the first part were copied, not adopted")
	}
	if &out.chunks[2][0] == off {
		t.Fatal("a full chunk off the result's chunk boundary was adopted")
	}
	for i, p := range parts {
		if p.Len() != 0 || len(p.chunks) != 0 {
			t.Fatalf("part %d not emptied", i)
		}
	}
	scribblePool(t, 4*len(out.chunks))
	checkOrder(t, out, tuples)
}

// scribblePool draws n single-source chunks from the pool and overwrites
// them: a live list that shared one of them would lose its rows.
func scribblePool(t *testing.T, n int) {
	t.Helper()
	junk := batchTestRelation(t, "junk", 1)[0]
	for i := 0; i < n; i++ {
		c := getChunk(1)[:ChunkRows]
		for j := range c {
			c[j] = junk
		}
	}
}

// TestRedescribeMovesInConstantSpace: projection moves the chunk directory
// — the same few allocations at 1k and at 100k rows — and leaves the
// source empty, so releasing it afterwards returns nothing of the new
// list's to the pool. A descriptor over another number of sources panics.
func TestRedescribeMovesInConstantSpace(t *testing.T) {
	desc := Descriptor{Sources: []string{"r"}, Cols: []ColRef{{Source: 0, Field: 0, Name: "renamed"}}}
	var allocs [2]float64
	for i, n := range []int{1000, 100000} {
		tuples := batchTestRelation(t, "r", n)
		l := MustTempList(singleDesc())
		l.AppendBatch(tuples)
		allocs[i] = testing.AllocsPerRun(10, func() {
			l = l.Redescribe(desc)
		})
		moved := l.Redescribe(desc)
		if l.Len() != 0 || moved.Descriptor().Cols[0].Name != "renamed" {
			t.Fatalf("source keeps %d rows; moved list described as %+v", l.Len(), moved.Descriptor())
		}
		l.Release()
		scribblePool(t, 2*len(moved.chunks))
		checkOrder(t, moved, tuples)
	}
	if allocs[0] != allocs[1] || allocs[0] > 4 {
		t.Fatalf("Redescribe allocates %.0f times at 1k rows and %.0f at 100k", allocs[0], allocs[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("redescribing a two-source list over one source did not panic")
		}
	}()
	MustTempList(pairDesc()).Redescribe(desc)
}

func TestScanColumnBatches(t *testing.T) {
	n := 2*ChunkRows + 31
	a := batchTestRelation(t, "a", n)
	b := batchTestRelation(t, "b", n)

	single := MustTempList(singleDesc())
	single.AppendBatch(a)
	var got []*Tuple
	single.ScanColumnBatches(0, nil, func(block []*Tuple) bool {
		got = append(got, block...)
		return true
	})
	if len(got) != n {
		t.Fatalf("single-source scan yielded %d tuples, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != a[i] {
			t.Fatalf("single-source scan out of order at %d", i)
		}
	}

	pair := MustTempList(pairDesc())
	for i := 0; i < n; i++ {
		pair.AppendPair(a[i], b[i])
	}
	for col, want := range [][]*Tuple{a, b} {
		got = got[:0]
		pair.ScanColumnBatches(col, GetBatch(), func(block []*Tuple) bool {
			got = append(got, block...)
			return true
		})
		if len(got) != n {
			t.Fatalf("col %d scan yielded %d tuples", col, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("col %d scan out of order at %d", col, i)
			}
		}
	}
}

func TestAppendFastPathsZeroAlloc(t *testing.T) {
	a := batchTestRelation(t, "a", 4)
	b := batchTestRelation(t, "b", 4)

	// Within a hinted exact-fit chunk no append may allocate: no Row
	// header, no chunk growth.
	single := MustTempListHint(singleDesc(), 256)
	if allocs := testing.AllocsPerRun(64, func() { single.AppendOne(a[0]) }); allocs != 0 {
		t.Fatalf("AppendOne allocated %.1f objects per row", allocs)
	}
	viaRow := MustTempListHint(singleDesc(), 256)
	if allocs := testing.AllocsPerRun(64, func() { viaRow.Append(Row{a[0]}) }); allocs != 0 {
		t.Fatalf("Append(Row{t}) allocated %.1f objects per row (row header escaped)", allocs)
	}
	pair := MustTempListHint(pairDesc(), 256)
	if allocs := testing.AllocsPerRun(64, func() { pair.AppendPair(a[1], b[1]) }); allocs != 0 {
		t.Fatalf("AppendPair allocated %.1f objects per row", allocs)
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := GetBatch()
	if len(b) != 0 || cap(b) != BatchSize {
		t.Fatalf("GetBatch: len %d cap %d, want 0/%d", len(b), cap(b), BatchSize)
	}
	tuples := batchTestRelation(t, "r", 3)
	b = append(b, tuples...)
	PutBatch(b)
	// Undersized blocks must not poison the pool.
	PutBatch(make([]*Tuple, 0, 7))
	if c := GetBatch(); cap(c) != BatchSize {
		t.Fatalf("pool handed back a block with cap %d", cap(c))
	}
}

func TestAppendArityMismatchPanics(t *testing.T) {
	l := MustTempList(pairDesc())
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Append", func() { l.Append(Row{nil}) }},
		{"AppendOne", func() { l.AppendOne(nil) }},
		{"AppendBatch", func() { l.AppendBatch(nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: arity mismatch did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
