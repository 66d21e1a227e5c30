package storage

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

func TestMergeLists(t *testing.T) {
	_, _, emps, _ := buildFigure1(t)
	desc := Descriptor{Sources: []string{"emp"}}
	a := MustTempList(desc)
	a.Append(Row{emps["Dave"]})
	a.Append(Row{emps["Suzan"]})
	b := MustTempList(desc)
	b.Append(Row{emps["Jane"]})
	merged, err := MergeListsRecycle(desc, []*TempList{a, nil, b, MustTempList(desc)})
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
	// Arity mismatch panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("arity mismatch merged silently")
			}
		}()
		wide := MustTempList(Descriptor{Sources: []string{"emp", "dept"}})
		_, _ = MergeListsRecycle(desc, []*TempList{wide})
	}()
}

// nanPayload is a quiet NaN with a payload, which a computed column must
// hand back bit for bit.
var nanPayload = math.Float64frombits(0x7ff8_0000_dead_beef)

// computedWant is the computedList row of source ordinal src, described as
// [val, neg, name, val again, f, b]: neg is -src, NULL when src%5 == 0 (so
// row 0 stores a NULL before any Int); name is "s<src>", which keeps its
// vector general; f cycles through NaN with a payload, -0, +Inf and -Inf
// before plain halves; b is src%3 == 0.
func computedWant(src int) []Value {
	neg := IntValue(int64(-src))
	if src%5 == 0 {
		neg = NullValue
	}
	f := float64(src) / 2
	switch src % 7 {
	case 0:
		f = nanPayload
	case 1:
		f = math.Copysign(0, -1)
	case 2:
		f = math.Inf(1)
	case 3:
		f = math.Inf(-1)
	}
	return []Value{IntValue(int64(src)), neg, StringValue(fmt.Sprintf("s%d", src)), IntValue(int64(src)), FloatValue(f), BoolValue(src%3 == 0)}
}

// computedCols are the output columns of computedList that are computed,
// and computedForms the form each of their vectors must have: a scalar
// type, or Str for the general form.
var (
	computedCols  = []int{1, 2, 4, 5}
	computedForms = []Type{Int, Str, Float, Bool}
)

// computedList builds a single-source list over n tuples (val = i) with
// four computed columns, described and valued as computedWant says.
func computedList(t *testing.T, n int) (*TempList, []*Tuple) {
	t.Helper()
	tuples := batchTestRelation(t, "r", n)
	l := MustTempList(singleDesc())
	l.AppendBatch(tuples)
	refs := l.AddComputed("neg", "name", "f", "b")
	for i := 0; i < n; i++ {
		want := computedWant(i)
		for k, c := range computedCols {
			l.SetComputed(refs[k].Field, i, want[c])
		}
	}
	cols := []ColRef{
		{Source: 0, Field: 0, Name: "val"}, refs[0], refs[1],
		{Source: 0, Field: 0, Name: "val2"}, refs[2], refs[3],
	}
	return l.Redescribe(Descriptor{Sources: []string{"r"}, Cols: cols}), tuples
}

// identical reports whether a and b are the same value bit for bit: the
// same type, and the same payload (Float64bits for a float, so NaN
// payloads and -0 count).
func identical(a, b Value) bool {
	if a.typ != b.typ {
		return false
	}
	if a.typ == Str {
		return a.str() == b.str()
	}
	return a.num == b.num && a.ptr == b.ptr
}

// checkForms asserts each computed vector of l has its computedForms form.
func checkForms(t *testing.T, l *TempList) {
	t.Helper()
	for k, want := range computedForms {
		v := &l.comp[k]
		if general := v.vals != nil; general != (want == Str) || !general && v.typ != want {
			t.Fatalf("computed vector %d: general=%v type %s, want %s", k, general, v.typ, want)
		}
	}
}

// checkComputed asserts row i of l is the computedList row of source
// ordinal want[i], through every reader: Value, RowValues, GatherColumn
// and GatherColumnRows, bit for bit; that its tuple pointer is that row's;
// and that every computed vector has its form.
func checkComputed(t *testing.T, l *TempList, tuples []*Tuple, want []int) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	checkForms(t, l)
	ncol := len(l.Descriptor().Cols)
	gathered := make([][]Value, ncol)
	scattered := make([][]Value, ncol)
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
		for c, w := range computedWant(src) {
			if v := l.Value(i, c); !identical(v, w) || !identical(row[c], w) || !identical(gathered[c][i], w) || !identical(scattered[c][i], w) {
				t.Fatalf("row %d col %d: Value %v, RowValues %v, GatherColumn %v, GatherColumnRows %v; want %v",
					i, c, v, row[c], gathered[c][i], scattered[c][i], w)
			}
		}
	}
}

// TestComputedColumnsReadAlike: on a descriptor mixing pointer and
// computed columns of every form, every reader returns the same values,
// across chunk boundaries and from a mid-list GatherColumn window.
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
	for _, c := range computedCols {
		l.GatherColumn(c, lo, hi, window)
		for j, v := range window {
			if w := computedWant(lo + j)[c]; !identical(v, w) {
				t.Fatalf("col %d GatherColumn window [%d,%d) at %d: %v, want %v", c, lo, hi, j, v, w)
			}
		}
	}
	// A computed column needs its vector: a fresh list has none, and a
	// redescribe may not name one the list lacks.
	if _, err := NewTempList(Descriptor{Sources: []string{"r"}, Cols: []ColRef{{Source: Computed, Field: 0}}}); err == nil {
		t.Fatal("a new list accepted a computed column it has no vector for")
	}
	for _, f := range []int{4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("redescribe accepted computed vector %d of 4", f)
				}
			}()
			l.Redescribe(Descriptor{Sources: []string{"r"}, Cols: []ColRef{{Source: Computed, Field: f}}})
		}()
	}
}

// TestComputedVectorForms: a vector's form follows the values stored in
// it, whatever order they arrive in — NULLs before the first scalar, a
// scalar type that changes, a string after scalars, and NULLs only — and
// every value reads back bit for bit.
func TestComputedVectorForms(t *testing.T) {
	for name, c := range map[string]struct {
		vals    []Value
		general bool
	}{
		"null then int":    {[]Value{NullValue, NullValue, IntValue(-3), NullValue, IntValue(1 << 62)}, false},
		"int then float":   {[]Value{IntValue(1), NullValue, FloatValue(1)}, true},
		"bool then string": {[]Value{BoolValue(true), NullValue, StringValue("x")}, true},
		"string first":     {[]Value{StringValue(""), NullValue, StringValue("y")}, true},
		"nulls only":       {[]Value{NullValue, NullValue}, false},
		"floats, no nulls": {[]Value{FloatValue(nanPayload), FloatValue(math.Copysign(0, -1)), FloatValue(math.Inf(-1))}, false},
		"overwritten null": {[]Value{NullValue, BoolValue(false)}, false},
	} {
		tuples := batchTestRelation(t, "r", len(c.vals))
		l := MustTempList(singleDesc())
		l.AppendBatch(tuples)
		f := l.AddComputed("c")[0].Field
		for i, v := range c.vals {
			l.SetComputed(f, i, v)
		}
		if name == "overwritten null" {
			l.SetComputed(f, 0, BoolValue(true)) // clears row 0's NULL bit
			c.vals[0] = BoolValue(true)
		}
		if general := l.comp[f].vals != nil; general != c.general {
			t.Fatalf("%s: general = %v, want %v", name, general, c.general)
		}
		back := l.Take([]int32{int32(len(c.vals) - 1), 0})
		if (back.comp[f].vals != nil) != c.general {
			t.Fatalf("%s: Take changed the vector's form", name)
		}
		for i, w := range c.vals {
			if v := l.comp[f].at(i); !identical(v, w) {
				t.Fatalf("%s: row %d reads %v, want %v", name, i, v, w)
			}
		}
		if !identical(back.comp[f].at(0), c.vals[len(c.vals)-1]) || !identical(back.comp[f].at(1), c.vals[0]) {
			t.Fatalf("%s: Take moved the values", name)
		}
	}
}

// TestComputedIntColumnBytes: an Int computed column of 100k rows costs
// its 8-byte payloads, not a 24-byte Value a row.
func TestComputedIntColumnBytes(t *testing.T) {
	const n = 100000
	tuples := batchTestRelation(t, "r", n)
	l := MustTempList(singleDesc())
	l.AppendBatch(tuples)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := l.AddComputed("c")[0].Field
	for i := 0; i < n; i++ {
		l.SetComputed(f, i, IntValue(int64(i)))
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Int computed column: %.2f B a row", perRow)
	if perRow > 8.2 {
		t.Errorf("an Int computed column costs %.2f B a row, ceiling 8.2", perRow)
	}
	if l.Value(n-1, 0).Int() != n-1 {
		t.Fatal("the column lost its last value")
	}
}

// TestTakeKeepsComputedAligned: Take reorders, cuts and empties a list,
// and each computed value follows its row in a vector of the same form.
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
// the very same backing arrays of either form — and the source keeps none
// of them.
func TestRedescribeMovesComputedInConstantSpace(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{1000, 100000} {
		l, _ := computedList(t, n)
		desc := l.Descriptor()
		num, vals := &l.comp[0].num[0], &l.comp[1].vals[0]
		allocs[i] = testing.AllocsPerRun(10, func() {
			l = l.Redescribe(desc)
		})
		moved := l.Redescribe(desc)
		if l.comp != nil || &moved.comp[0].num[0] != num || &moved.comp[1].vals[0] != vals {
			t.Fatal("redescribe copied the computed vectors or left them behind")
		}
		for c, w := range computedWant(n - 1) {
			if !identical(moved.Value(n-1, c), w) {
				t.Fatalf("after redescribe, col %d of the last row reads %v, want %v", c, moved.Value(n-1, c), w)
			}
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
	n := 2 * ChunkRows
	l, _ := computedList(t, n)
	vecs := append([]vector(nil), l.comp...)
	l.Release()
	if l.comp != nil || l.Len() != 0 {
		t.Fatal("Release kept the computed vectors")
	}
	for k, c := range computedCols {
		for i := 0; i < n; i++ {
			if v, w := vecs[k].at(i), computedWant(i)[c]; !identical(v, w) {
				t.Fatalf("Release touched computed vector %d at %d: %v, want %v", k, i, v, w)
			}
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
// columns only through Take; every append and merge path panics, and so
// does a computed value stored past the last row or into a frozen list.
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
		"MergeListsRecycle": func() { _, _ = MergeListsRecycle(singleDesc(), []*TempList{plain(), l}) },
		"SetComputed past the end": func() {
			p := plain()
			p.SetComputed(p.AddComputed("x")[0].Field, 1, IntValue(1))
		},
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
// the workers join, and concurrent reads of the merged list are safe.
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
	merged, err := MergeListsRecycle(desc, parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != workers*perWorker {
		t.Fatalf("merged %d rows, want %d", merged.Len(), workers*perWorker)
	}
	// Concurrent readers over the merged result.
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < merged.Len(); i++ {
				if merged.Row(i)[0] == tp {
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
