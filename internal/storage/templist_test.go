package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// buildFigure1 recreates the Employee/Department instance of Figure 1.
func buildFigure1(t *testing.T) (emp, dept *Relation, emps, depts map[string]*Tuple) {
	t.Helper()
	empRel, deptRel, _ := buildEmpDept(t)
	depts = map[string]*Tuple{}
	for _, d := range []struct {
		name string
		id   int64
	}{{"Toy", 459}, {"Shoe", 409}, {"Linen", 411}, {"Paint", 455}} {
		tp, err := deptRel.Insert([]Value{StringValue(d.name), IntValue(d.id)})
		if err != nil {
			t.Fatal(err)
		}
		depts[d.name] = tp
	}
	emps = map[string]*Tuple{}
	for _, e := range []struct {
		name string
		id   int64
		age  int64
		dept string
	}{
		{"Dave", 23, 24, "Toy"},
		{"Suzan", 12, 27, "Toy"},
		{"Yaman", 44, 54, "Linen"},
		{"Jane", 43, 47, "Linen"},
		{"Cindy", 22, 22, "Shoe"},
	} {
		tp, err := empRel.Insert([]Value{
			StringValue(e.name), IntValue(e.id), IntValue(e.age), RefValue(depts[e.dept]),
		})
		if err != nil {
			t.Fatal(err)
		}
		emps[e.name] = tp
	}
	return empRel, deptRel, emps, depts
}

func TestFigure1ResultList(t *testing.T) {
	_, _, emps, depts := buildFigure1(t)
	// Result descriptor of Figure 1: Emp Name, Emp Age, Dept Name.
	desc := Descriptor{
		Sources: []string{"emp", "dept"},
		Cols: []ColRef{
			{Source: 0, Field: 0, Name: "Emp.Name"},
			{Source: 0, Field: 2, Name: "Emp.Age"},
			{Source: 1, Field: 0, Name: "Dept.Name"},
		},
	}
	result := MustTempList(desc)
	for _, name := range []string{"Dave", "Suzan", "Yaman", "Jane", "Cindy"} {
		e := emps[name]
		result.Append(Row{e, e.Field(3).Ref()})
	}
	if result.Len() != 5 {
		t.Fatalf("len = %d", result.Len())
	}
	vals := result.RowValues(0)
	if vals[0].Str() != "Dave" || vals[1].Int() != 24 || vals[2].Str() != "Toy" {
		t.Fatalf("row 0 = %v", vals)
	}
	if got := result.Value(4, 2); got.Str() != "Shoe" {
		t.Fatalf("Cindy's dept = %v", got)
	}
	names := result.ColumnNames()
	if len(names) != 3 || names[2] != "Dept.Name" {
		t.Fatalf("columns = %v", names)
	}
	if result.Descriptor().ColIndex("Emp.Age") != 1 {
		t.Fatal("ColIndex wrong")
	}
	if result.Descriptor().ColIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
	_ = depts
}

func TestTempListScanStops(t *testing.T) {
	_, _, emps, _ := buildFigure1(t)
	l := MustTempList(Descriptor{Sources: []string{"emp"}, Cols: []ColRef{{Source: 0, Field: 0, Name: "n"}}})
	for _, e := range emps {
		l.Append(Row{e})
	}
	n := 0
	l.Scan(func(i int, row Row) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("scan visited %d rows", n)
	}
}

func TestTempListNoWidthReduction(t *testing.T) {
	// §2.3: "no width reduction is ever done" — the temp list stores
	// pointers; updating the base tuple is visible through the list.
	emp, _, emps, _ := buildFigure1(t)
	l := MustTempList(Descriptor{Sources: []string{"emp"}, Cols: []ColRef{{Source: 0, Field: 2, Name: "age"}}})
	l.Append(Row{emps["Dave"]})
	if err := emp.Update(emps["Dave"], 2, IntValue(66)); err != nil {
		t.Fatal(err)
	}
	if got := l.Value(0, 0).Int(); got != 66 {
		t.Fatalf("temp list copied data: age = %d, want 66", got)
	}
}

func TestDescriptorValidation(t *testing.T) {
	if _, err := NewTempList(Descriptor{}); err == nil {
		t.Error("empty descriptor accepted")
	}
	bad := Descriptor{Sources: []string{"a"}, Cols: []ColRef{{Source: 1, Field: 0, Name: "x"}}}
	if _, err := NewTempList(bad); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestAppendArityPanics(t *testing.T) {
	l := MustTempList(Descriptor{Sources: []string{"a", "b"}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong row arity")
		}
	}()
	l.Append(Row{nil})
}

// TestRowsSnapshotUnderAppend is the regression for the aliasing bug:
// Rows() on a growing list must hand out a snapshot, not the live backing
// slice — a later Append may reallocate and leave the caller reading the
// abandoned array.
func TestRowsSnapshotUnderAppend(t *testing.T) {
	_, _, emps, _ := buildFigure1(t)
	l := MustTempList(Descriptor{Sources: []string{"emp"}})
	l.Append(Row{emps["Dave"]})
	view := l.Rows()
	for i := 0; i < 64; i++ { // force reallocation
		l.Append(Row{emps["Suzan"]})
	}
	if len(view) != 1 || view[0][0] != emps["Dave"] {
		t.Fatalf("pre-append view disturbed: %v", view)
	}
	if l.Len() != 65 {
		t.Fatalf("list length %d", l.Len())
	}
}

func TestFreezeSealsList(t *testing.T) {
	_, _, emps, _ := buildFigure1(t)
	l := MustTempList(Descriptor{Sources: []string{"emp"}})
	l.Append(Row{emps["Dave"]})
	if l.Frozen() {
		t.Fatal("fresh list reports frozen")
	}
	if got := l.Freeze().Freeze(); got != l || !l.Frozen() { // idempotent, chains
		t.Fatal("Freeze not idempotent or did not return the list")
	}
	if len(l.Rows()) != 1 {
		t.Fatal("frozen Rows wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Append to frozen list did not panic")
			}
		}()
		l.Append(Row{emps["Suzan"]})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Absorb into frozen list did not panic")
			}
		}()
		other := MustTempList(Descriptor{Sources: []string{"emp"}})
		l.Absorb(other)
	}()
}

func TestMergeLists(t *testing.T) {
	_, _, emps, _ := buildFigure1(t)
	desc := Descriptor{Sources: []string{"emp"}}
	a := MustTempList(desc)
	a.Append(Row{emps["Dave"]})
	a.Append(Row{emps["Suzan"]})
	b := MustTempList(desc)
	b.Append(Row{emps["Jane"]})
	merged, err := MergeLists(desc, []*TempList{a, nil, b, MustTempList(desc)})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 {
		t.Fatalf("merged %d rows, want 3", merged.Len())
	}
	// Slice order preserved.
	if merged.Row(0)[0] != emps["Dave"] || merged.Row(2)[0] != emps["Jane"] {
		t.Fatal("merge order broken")
	}
	// Arity mismatch panics via Absorb.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("arity mismatch absorbed silently")
			}
		}()
		wide := MustTempList(Descriptor{Sources: []string{"emp", "dept"}})
		merged.Absorb(wide)
	}()
}

// computedList builds a single-source list over n tuples (val = i) with
// two computed columns, described as [val, neg, name, val again]: neg is
// -i, name is "s<i>".
func computedList(t *testing.T, n int) (*TempList, []*Tuple) {
	t.Helper()
	tuples := batchTestRelation(t, "r", n)
	l := MustTempList(singleDesc())
	l.AppendBatch(tuples)
	neg := make([]Value, n)
	names := make([]Value, n)
	for i := range neg {
		neg[i] = IntValue(int64(-i))
		names[i] = StringValue(fmt.Sprintf("s%d", i))
	}
	cols := []ColRef{
		{Source: 0, Field: 0, Name: "val"},
		l.AddComputed("neg", neg),
		l.AddComputed("name", names),
		{Source: 0, Field: 0, Name: "val2"},
	}
	out, err := l.Redescribe(Descriptor{Sources: []string{"r"}, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	return out, tuples
}

// checkComputed asserts row i of l is the computedList row of source
// ordinal want[i], through every reader: Value, RowValues, GatherColumn
// and GatherColumnRows, and that its tuple pointer is that row's.
func checkComputed(t *testing.T, l *TempList, tuples []*Tuple, want []int) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	expect := func(src int) []Value {
		return []Value{IntValue(int64(src)), IntValue(int64(-src)), StringValue(fmt.Sprintf("s%d", src)), IntValue(int64(src))}
	}
	gathered := make([][]Value, 4)
	scattered := make([][]Value, 4)
	all := make([]int32, len(want))
	for i := range all {
		all[i] = int32(i)
	}
	for c := range gathered {
		gathered[c] = make([]Value, len(want))
		l.GatherColumn(c, 0, len(want), gathered[c])
		scattered[c] = make([]Value, len(want))
		l.GatherColumnRows(c, all, scattered[c])
	}
	for i, src := range want {
		if l.Row(i)[0] != tuples[src] {
			t.Fatalf("row %d points at the wrong tuple", i)
		}
		row := l.RowValues(i)
		for c, w := range expect(src) {
			if !Equal(l.Value(i, c), w) || !Equal(row[c], w) || !Equal(gathered[c][i], w) || !Equal(scattered[c][i], w) {
				t.Fatalf("row %d col %d: Value %v, RowValues %v, GatherColumn %v, GatherColumnRows %v; want %v",
					i, c, l.Value(i, c), row[c], gathered[c][i], scattered[c][i], w)
			}
		}
	}
}

// TestComputedColumnsReadAlike: on a descriptor mixing pointer and
// computed columns, every reader returns the same values, across chunk
// boundaries and from a mid-list GatherColumn window.
func TestComputedColumnsReadAlike(t *testing.T) {
	n := 2*ChunkRows + 17
	l, tuples := computedList(t, n)
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	checkComputed(t, l, tuples, want)
	lo, hi := ChunkRows-3, 2*ChunkRows+5
	window := make([]Value, hi-lo)
	l.GatherColumn(1, lo, hi, window)
	for j, v := range window {
		if v.Int() != int64(-(lo + j)) {
			t.Fatalf("GatherColumn window [%d,%d) at %d: %v", lo, hi, j, v)
		}
	}
	// A computed column needs its vector: a fresh list has none, and a
	// redescribe may not name one the list lacks.
	if _, err := NewTempList(Descriptor{Sources: []string{"r"}, Cols: []ColRef{{Source: Computed, Field: 0}}}); err == nil {
		t.Fatal("a new list accepted a computed column it has no vector for")
	}
	for _, f := range []int{2, -1} {
		if _, err := l.Redescribe(Descriptor{Sources: []string{"r"}, Cols: []ColRef{{Source: Computed, Field: f}}}); err == nil {
			t.Fatalf("redescribe accepted computed vector %d of 2", f)
		}
	}
}

// TestTakeKeepsComputedAligned: Take reorders, cuts and empties a list,
// and each computed value follows its row.
func TestTakeKeepsComputedAligned(t *testing.T) {
	n := 3*ChunkRows + 40
	l, tuples := computedList(t, n)
	perm := rand.New(rand.NewSource(9)).Perm(n)
	prefix := make([]int, ChunkRows+1)
	for i := range prefix {
		prefix[i] = i
	}
	for name, want := range map[string][]int{"permutation": perm, "prefix": prefix, "empty": nil} {
		rows := make([]int32, len(want))
		for i, r := range want {
			rows[i] = int32(r)
		}
		got := l.Take(rows)
		checkComputed(t, got, tuples, want)
		// Twice removed: Take of a Take gathers from the gathered vectors.
		back := make([]int32, len(want))
		for i := range back {
			back[i] = int32(len(want) - 1 - i)
		}
		rev := make([]int, len(want))
		for i := range rev {
			rev[i] = want[len(want)-1-i]
		}
		checkComputed(t, got.Take(back), tuples, rev)
		if name == "empty" && got.Len() != 0 {
			t.Fatalf("empty Take has %d rows", got.Len())
		}
	}
	// The source is untouched.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	checkComputed(t, l, tuples, all)
}

// TestRedescribeMovesComputedInConstantSpace: the computed vectors move
// with the chunk directory — the same allocations at 1k and at 100k rows,
// the very same backing arrays — and the source keeps none of them.
func TestRedescribeMovesComputedInConstantSpace(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{1000, 100000} {
		l, _ := computedList(t, n)
		desc := l.Descriptor()
		first := &l.comp[0][0]
		allocs[i] = testing.AllocsPerRun(10, func() {
			moved, err := l.Redescribe(desc)
			if err != nil {
				t.Fatal(err)
			}
			l = moved
		})
		moved, err := l.Redescribe(desc)
		if err != nil {
			t.Fatal(err)
		}
		if l.comp != nil || &moved.comp[0][0] != first || moved.Value(n-1, 1).Int() != int64(1-n) {
			t.Fatal("redescribe copied the computed vectors or left them behind")
		}
	}
	if allocs[0] != allocs[1] || allocs[0] > 4 {
		t.Fatalf("Redescribe allocates %.0f times at 1k rows and %.0f at 100k", allocs[0], allocs[1])
	}
}

// TestReleaseDropsComputed: Release returns the row chunks to the pool and
// only drops the computed vectors — they are never cleared for reuse, and
// every chunk the pool hands out afterwards is an empty pointer block.
func TestReleaseDropsComputed(t *testing.T) {
	l, _ := computedList(t, 2*ChunkRows)
	vec := l.comp[0]
	l.Release()
	if l.comp != nil || l.Len() != 0 {
		t.Fatal("Release kept the computed vectors")
	}
	for i, v := range vec {
		if v.Int() != int64(-i) {
			t.Fatalf("Release touched computed value %d: %v", i, v)
		}
	}
	for i := 0; i < 8; i++ {
		c := getChunk(1)
		if len(c) != 0 || cap(c) != ChunkRows {
			t.Fatalf("pool handed out a %d/%d chunk", len(c), cap(c))
		}
		for j, tp := range c[:cap(c)] {
			if tp != nil {
				t.Fatalf("pooled chunk slot %d holds %p", j, tp)
			}
		}
	}
}

// TestComputedListRejectsAppends: rows can reach a list with computed
// columns only through Take; every append and merge path panics.
func TestComputedListRejectsAppends(t *testing.T) {
	l, tuples := computedList(t, 10)
	plain := func() *TempList {
		p := MustTempList(singleDesc())
		p.AppendOne(tuples[0])
		return p
	}
	for name, fn := range map[string]func(){
		"Append":            func() { l.Append(Row{tuples[0]}) },
		"AppendOne":         func() { l.AppendOne(tuples[0]) },
		"AppendBatch":       func() { l.AppendBatch(tuples[:2]) },
		"Absorb into":       func() { l.Absorb(plain()) },
		"Absorb of":         func() { plain().Absorb(l) },
		"MergeLists":        func() { _, _ = MergeLists(singleDesc(), []*TempList{plain(), l}) },
		"MergeListsRecycle": func() { _, _ = MergeListsRecycle(singleDesc(), []*TempList{plain(), l}) },
		"AddComputed short": func() { plain().AddComputed("x", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if l.Len() != 10 {
		t.Fatalf("a rejected append changed the list: %d rows", l.Len())
	}
}

// TestParallelAppendMerge is the -race exercise of the per-worker append
// contract: each worker appends to a private list, lists are merged after
// the workers join, and concurrent reads of a frozen list are safe.
func TestParallelAppendMerge(t *testing.T) {
	emp, _, emps, _ := buildFigure1(t)
	_ = emp
	tp := emps["Dave"]
	desc := Descriptor{Sources: []string{"emp"}}
	const workers, perWorker = 8, 500
	parts := make([]*TempList, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			l := MustTempList(desc)
			for i := 0; i < perWorker; i++ {
				l.Append(Row{tp})
			}
			parts[w] = l
		}(w)
	}
	wg.Wait()
	merged, err := MergeLists(desc, parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != workers*perWorker {
		t.Fatalf("merged %d rows, want %d", merged.Len(), workers*perWorker)
	}
	// Concurrent readers over the frozen result.
	merged.Freeze()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			n := 0
			for _, row := range merged.Rows() {
				if row[0] == tp {
					n++
				}
			}
			if n != workers*perWorker {
				t.Errorf("reader saw %d rows", n)
			}
		}()
	}
	wg.Wait()
}
