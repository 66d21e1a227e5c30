package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
	"repro/internal/meter"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/workload"
)

func newMeter() *meter.Counters { return &meter.Counters{} }

func withMeter(s JoinSpec, m *meter.Counters) JoinSpec {
	s.Meter = m
	return s
}

// buildRelation creates a relation with schema (val int, seq int) holding
// the given join-column values.
func buildRelation(t testing.TB, ids *storage.IDGen, name string, values []int64) *storage.Relation {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "seq", Type: storage.Int},
	)
	rel, err := storage.NewRelation(name, schema, storage.Config{}, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if _, err := rel.Insert([]storage.Value{storage.IntValue(v), storage.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// arrayOn builds the relation's scan index (the paper: "an array index was
// used to scan the relations in our tests").
func arrayOn(rel *storage.Relation, field int) *sortedarray.Array[*storage.Tuple] {
	var tuples []*storage.Tuple
	rel.ScanPhysical(func(tp *storage.Tuple) bool { tuples = append(tuples, tp); return true })
	return tupleindex.BuildArray(tupleindex.Options{Field: field}, tuples)
}

// ttreeOn builds a T Tree index on the field.
func ttreeOn(rel *storage.Relation, field int) *ttree.Tree[*storage.Tuple] {
	tt := tupleindex.NewTTree(tupleindex.Options{Field: field})
	rel.ScanPhysical(func(tp *storage.Tuple) bool { tt.Insert(tp); return true })
	return tt
}

// joinResultSet canonicalizes a join result for comparison: a multiset of
// (outer val, outer seq, inner val, inner seq).
func joinResultSet(t testing.TB, l *storage.TempList) map[[4]int64]int {
	t.Helper()
	out := map[[4]int64]int{}
	l.Scan(func(_ int, row storage.Row) bool {
		k := [4]int64{
			row[0].Field(0).Int(), row[0].Field(1).Int(),
			row[1].Field(0).Int(), row[1].Field(1).Int(),
		}
		out[k]++
		return true
	})
	return out
}

// referenceJoin computes the expected multiset with a plain nested map.
func referenceJoin(outerVals, innerVals []int64) int {
	byVal := map[int64]int{}
	for _, v := range innerVals {
		byVal[v]++
	}
	n := 0
	for _, v := range outerVals {
		n += byVal[v]
	}
	return n
}

func sameResults(a, b map[[4]int64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestAllJoinMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name       string
		n1, n2     int
		dup1, dup2 float64
		sigma      float64
		semijoin   float64
	}{
		{"keys-equal-size", 400, 400, 0, 0, workload.NearUniform, 100},
		{"keys-small-inner", 400, 40, 0, 0, workload.NearUniform, 100},
		{"keys-small-outer", 40, 400, 0, 0, workload.NearUniform, 100},
		{"dups-uniform", 300, 300, 50, 50, workload.NearUniform, 100},
		{"dups-skewed", 200, 200, 60, 60, workload.Skewed, 100},
		{"low-selectivity", 300, 300, 50, 50, workload.NearUniform, 10},
		{"zero-selectivity", 100, 100, 0, 0, workload.NearUniform, 0},
		{"tiny", 1, 1, 0, 0, workload.NearUniform, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			col1, err := workload.Build(workload.Spec{Cardinality: c.n1, DuplicatePct: c.dup1, Sigma: c.sigma}, rng)
			if err != nil {
				t.Fatal(err)
			}
			col2, err := workload.BuildDerived(workload.Spec{Cardinality: c.n2, DuplicatePct: c.dup2, Sigma: c.sigma}, col1, c.semijoin, rng)
			if err != nil {
				t.Fatal(err)
			}
			ids := storage.NewIDGen()
			r1 := buildRelation(t, ids, "r1", col1.Values)
			r2 := buildRelation(t, ids, "r2", col2.Values)
			spec := JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}

			s1, s2 := arrayOn(r1, 0), arrayOn(r2, 0)
			t1, t2 := ttreeOn(r1, 0), ttreeOn(r2, 0)

			results := map[string]*storage.TempList{
				"nested":    NestedLoopsJoin(s1, s2, spec),
				"hash":      HashJoin(s1, s2, spec),
				"tree":      TreeJoin(s1, t2, spec),
				"sortmerge": SortMergeJoin(s1, s2, spec),
				"treemerge": TreeMergeJoin(t1, t2, spec),
			}
			wantCount := referenceJoin(col1.Values, col2.Values)
			var ref map[[4]int64]int
			for name, l := range results {
				if l.Len() != wantCount {
					t.Errorf("%s: %d rows, want %d", name, l.Len(), wantCount)
					continue
				}
				set := joinResultSet(t, l)
				if ref == nil {
					ref = set
					continue
				}
				if !sameResults(ref, set) {
					t.Errorf("%s: result multiset differs", name)
				}
			}
		})
	}
}

// project moves a join result under the given output columns, as a
// query's projection does.
func project(l *storage.TempList, cols ...storage.ColRef) *storage.TempList {
	return l.Redescribe(storage.Descriptor{Sources: l.Descriptor().Sources, Cols: cols})
}

func TestJoinOutputDescriptor(t *testing.T) {
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", []int64{1, 2})
	r2 := buildRelation(t, ids, "r2", []int64{2, 3})
	spec := JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	l := project(HashJoin(arrayOn(r1, 0), arrayOn(r2, 0), spec),
		storage.ColRef{Source: 0, Field: 1, Name: "r1.seq"},
		storage.ColRef{Source: 1, Field: 1, Name: "r2.seq"})
	if l.Len() != 1 {
		t.Fatalf("rows=%d", l.Len())
	}
	vals := l.RowValues(0)
	if vals[0].Int() != 1 || vals[1].Int() != 0 {
		t.Fatalf("row = %v", vals)
	}
}

func TestSelectionAccessPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	col, err := workload.Build(workload.Spec{Cardinality: 2000, DuplicatePct: 40, Sigma: workload.Moderate}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ids := storage.NewIDGen()
	rel := buildRelation(t, ids, "r", col.Values)
	spec := SelectSpec{RelName: "r", Schema: rel.Schema()}

	tt := ttreeOn(rel, 0)
	mh := tupleindex.NewMLH(tupleindex.Options{Field: 0})
	rel.ScanPhysical(func(tp *storage.Tuple) bool { mh.Insert(tp); return true })
	arr := arrayOn(rel, 0)

	keys := append([]int64{}, col.Distinct[0], col.Distinct[len(col.Distinct)/2], -1 /* absent */)
	for _, k := range keys {
		key := storage.IntValue(k)
		byTree := SelectEqTree(tt, 0, key, spec)
		byHash := SelectEqHash(mh, 0, key, spec)
		byScan := SelectScan(arr, func(tp *storage.Tuple) bool {
			return storage.Equal(tp.Field(0), key)
		}, spec)
		want := 0
		for _, v := range col.Values {
			if v == k {
				want++
			}
		}
		if byTree.Len() != want || byHash.Len() != want || byScan.Len() != want {
			t.Fatalf("key %d: tree=%d hash=%d scan=%d want=%d", k, byTree.Len(), byHash.Len(), byScan.Len(), want)
		}
	}
}

func TestSelectRange(t *testing.T) {
	ids := storage.NewIDGen()
	var vals []int64
	for i := int64(0); i < 100; i++ {
		vals = append(vals, i)
	}
	rel := buildRelation(t, ids, "r", vals)
	tt := ttreeOn(rel, 0)
	spec := SelectSpec{RelName: "r", Schema: rel.Schema()}
	lo, hi := storage.IntValue(10), storage.IntValue(19)
	l := SelectRange(tt, 0, &lo, &hi, spec)
	if l.Len() != 10 {
		t.Fatalf("rows=%d", l.Len())
	}
	// Ordered output.
	prev := int64(-1)
	l.Scan(func(_ int, row storage.Row) bool {
		v := row[0].Field(0).Int()
		if v < 10 || v > 19 || v <= prev {
			t.Fatalf("bad range value %d after %d", v, prev)
		}
		prev = v
		return true
	})
	// Open bounds.
	if l := SelectRange(tt, 0, nil, &hi, spec); l.Len() != 20 {
		t.Fatalf("open-lo rows=%d", l.Len())
	}
	if l := SelectRange(tt, 0, &lo, nil, spec); l.Len() != 90 {
		t.Fatalf("open-hi rows=%d", l.Len())
	}
	if l := SelectRange(tt, 0, nil, nil, spec); l.Len() != 100 {
		t.Fatalf("open-open rows=%d", l.Len())
	}
}

func TestPrecomputedAndPointerJoin(t *testing.T) {
	// The Employee/Department queries of §2.1.
	ids := storage.NewIDGen()
	deptSchema := storage.MustSchema(
		storage.FieldDef{Name: "name", Type: storage.Str},
		storage.FieldDef{Name: "id", Type: storage.Int},
	)
	empSchema := storage.MustSchema(
		storage.FieldDef{Name: "name", Type: storage.Str},
		storage.FieldDef{Name: "age", Type: storage.Int},
		storage.FieldDef{Name: "dept", Type: storage.Ref, ForeignKey: "dept"},
	)
	dept, _ := storage.NewRelation("dept", deptSchema, storage.Config{}, ids)
	emp, _ := storage.NewRelation("emp", empSchema, storage.Config{}, ids)
	toy, _ := dept.Insert([]storage.Value{storage.StringValue("Toy"), storage.IntValue(459)})
	shoe, _ := dept.Insert([]storage.Value{storage.StringValue("Shoe"), storage.IntValue(409)})
	linen, _ := dept.Insert([]storage.Value{storage.StringValue("Linen"), storage.IntValue(411)})
	for _, e := range []struct {
		name string
		age  int64
		dep  *storage.Tuple
	}{
		{"Dave", 66, toy}, {"Suzan", 27, toy}, {"Yaman", 70, linen}, {"Jane", 47, shoe}, {"Cindy", 22, nil},
	} {
		if _, err := emp.Insert([]storage.Value{
			storage.StringValue(e.name), storage.IntValue(e.age), storage.RefValue(e.dep),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Query 1: employees over 65 with their department names, via the
	// precomputed join (selection then pointer dereference).
	empAge := ttreeOn(emp, 1)
	spec := SelectSpec{RelName: "emp", Schema: empSchema}
	lo := storage.IntValue(66)
	over65 := SelectRange(empAge, 1, &lo, nil, spec)
	q1 := project(PrecomputedJoin(ListColumn{List: over65, Column: 0}, 2, JoinSpec{OuterName: "emp", InnerName: "dept"}),
		storage.ColRef{Source: 0, Field: 0, Name: "Emp.Name"},
		storage.ColRef{Source: 0, Field: 1, Name: "Emp.Age"},
		storage.ColRef{Source: 1, Field: 0, Name: "Dept.Name"})
	if q1.Len() != 2 {
		t.Fatalf("Query 1 rows = %d", q1.Len())
	}
	got := map[string]string{}
	for i := 0; i < q1.Len(); i++ {
		vals := q1.RowValues(i)
		got[vals[0].Str()] = vals[2].Str()
	}
	if got["Dave"] != "Toy" || got["Yaman"] != "Linen" {
		t.Fatalf("Query 1 = %v", got)
	}

	// Query 2: employees in the Toy or Shoe departments — select on dept,
	// then join comparing tuple pointers rather than data (§2.1).
	deptName := ttreeOn(dept, 0)
	dspec := SelectSpec{RelName: "dept", Schema: deptSchema}
	toyShoe := storage.MustTempList(storage.Descriptor{Sources: []string{"dept"}})
	for _, name := range []string{"Toy", "Shoe"} {
		l := SelectEqTree(deptName, 0, storage.StringValue(name), dspec)
		l.Scan(func(_ int, row storage.Row) bool { toyShoe.Append(row); return true })
	}
	empScan := arrayOn(emp, 1)
	q2 := project(HashJoin(ListColumn{List: toyShoe, Column: 0}, empScan, JoinSpec{
		OuterName: "dept", InnerName: "emp",
		OuterField: tupleindex.SelfField, InnerField: 2,
	}), storage.ColRef{Source: 1, Field: 0, Name: "Emp.Name"})
	if q2.Len() != 3 {
		t.Fatalf("Query 2 rows = %d", q2.Len())
	}
	names := map[string]bool{}
	for i := 0; i < q2.Len(); i++ {
		names[q2.RowValues(i)[0].Str()] = true
	}
	for _, want := range []string{"Dave", "Suzan", "Jane"} {
		if !names[want] {
			t.Fatalf("Query 2 missing %s: %v", want, names)
		}
	}
	if names["Cindy"] || names["Yaman"] {
		t.Fatalf("Query 2 has extras: %v", names)
	}
}

func TestPrecomputedEquivalentToValueJoin(t *testing.T) {
	// Precomputed join must produce the same pairs as a value join on the
	// underlying foreign key.
	rng := rand.New(rand.NewSource(17))
	ids := storage.NewIDGen()
	inner := buildRelation(t, ids, "inner", workload.UniquePool(200, rng, nil))
	var innerTuples []*storage.Tuple
	inner.ScanPhysical(func(tp *storage.Tuple) bool { innerTuples = append(innerTuples, tp); return true })

	outerSchema := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "ref", Type: storage.Ref, ForeignKey: "inner"},
	)
	outer, _ := storage.NewRelation("outer", outerSchema, storage.Config{}, ids)
	for i := 0; i < 500; i++ {
		target := innerTuples[rng.Intn(len(innerTuples))]
		outer.Insert([]storage.Value{target.Field(0), storage.RefValue(target)})
	}
	spec := JoinSpec{OuterName: "outer", InnerName: "inner"}
	pre := PrecomputedJoin(arrayOn(outer, 0), 1, spec)
	val := HashJoin(arrayOn(outer, 0), arrayOn(inner, 0), JoinSpec{
		OuterName: "outer", InnerName: "inner", OuterField: 0, InnerField: 0,
	})
	if pre.Len() != 500 || val.Len() != 500 {
		t.Fatalf("pre=%d val=%d", pre.Len(), val.Len())
	}
	canon := func(l *storage.TempList) map[[2]uint64]int {
		m := map[[2]uint64]int{}
		l.Scan(func(_ int, row storage.Row) bool {
			m[[2]uint64{row[0].ID(), row[1].ID()}]++
			return true
		})
		return m
	}
	a, b := canon(pre), canon(val)
	if len(a) != len(b) {
		t.Fatal("pair sets differ")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("pair %v count %d vs %d", k, v, b[k])
		}
	}
}

func TestProjectionMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dupPct := range []float64{0, 30, 60, 90, 100} {
		col, err := workload.Build(workload.Spec{Cardinality: 1000, DuplicatePct: dupPct, Sigma: workload.Skewed}, rng)
		if err != nil {
			t.Fatal(err)
		}
		ids := storage.NewIDGen()
		rel := buildRelation(t, ids, "r", col.Values)
		// Project onto the val column only (duplicates collapse).
		list := storage.MustTempList(storage.Descriptor{
			Sources: []string{"r"},
			Cols:    []storage.ColRef{{Source: 0, Field: 0, Name: "val"}},
		})
		rel.ScanPhysical(func(tp *storage.Tuple) bool {
			list.Append(storage.Row{tp})
			return true
		})
		byHash := ProjectHash(list, nil)
		bySort := ProjectSortScan(list, nil)
		want := len(col.Distinct)
		if byHash.Len() != want {
			t.Fatalf("dup=%v: hash kept %d rows, want %d", dupPct, byHash.Len(), want)
		}
		if bySort.Len() != want {
			t.Fatalf("dup=%v: sortscan kept %d rows, want %d", dupPct, bySort.Len(), want)
		}
		vals := func(l *storage.TempList) map[int64]bool {
			m := map[int64]bool{}
			for i := 0; i < l.Len(); i++ {
				m[l.Value(i, 0).Int()] = true
			}
			return m
		}
		a, b := vals(byHash), vals(bySort)
		for v := range a {
			if !b[v] {
				t.Fatalf("dup=%v: value sets differ", dupPct)
			}
		}
	}
}

func TestProjectMultiColumn(t *testing.T) {
	// Two-column projection: rows duplicate only when both columns match.
	ids := storage.NewIDGen()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "a", Type: storage.Int},
		storage.FieldDef{Name: "b", Type: storage.Str},
	)
	rel, _ := storage.NewRelation("r", schema, storage.Config{}, ids)
	rows := [][2]any{{1, "x"}, {1, "x"}, {1, "y"}, {2, "x"}, {2, "x"}, {1, "x"}}
	for _, r := range rows {
		rel.Insert([]storage.Value{storage.IntValue(int64(r[0].(int))), storage.StringValue(r[1].(string))})
	}
	list := storage.MustTempList(storage.Descriptor{
		Sources: []string{"r"},
		Cols: []storage.ColRef{
			{Source: 0, Field: 0, Name: "a"},
			{Source: 0, Field: 1, Name: "b"},
		},
	})
	rel.ScanPhysical(func(tp *storage.Tuple) bool { list.Append(storage.Row{tp}); return true })
	if got := ProjectHash(list, nil).Len(); got != 3 {
		t.Fatalf("hash kept %d, want 3", got)
	}
	if got := ProjectSortScan(list, nil).Len(); got != 3 {
		t.Fatalf("sortscan kept %d, want 3", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	ids := storage.NewIDGen()
	empty := buildRelation(t, ids, "e", nil)
	full := buildRelation(t, ids, "f", []int64{1, 2, 3})
	spec := JoinSpec{OuterName: "e", InnerName: "f", OuterField: 0, InnerField: 0}
	es, fs := arrayOn(empty, 0), arrayOn(full, 0)
	et, ft := ttreeOn(empty, 0), ttreeOn(full, 0)
	for name, l := range map[string]*storage.TempList{
		"nested-empty-outer": NestedLoopsJoin(es, fs, spec),
		"nested-empty-inner": NestedLoopsJoin(fs, es, spec),
		"hash-empty-outer":   HashJoin(es, fs, spec),
		"hash-empty-inner":   HashJoin(fs, es, spec),
		"tree-empty-outer":   TreeJoin(es, ft, spec),
		"tree-empty-inner":   TreeJoin(fs, et, spec),
		"sortmerge-empty":    SortMergeJoin(es, es, spec),
		"treemerge-empty":    TreeMergeJoin(et, ft, spec),
	} {
		if l.Len() != 0 {
			t.Errorf("%s: %d rows", name, l.Len())
		}
	}
	// Empty projection.
	list := storage.MustTempList(storage.Descriptor{Sources: []string{"e"}})
	if ProjectHash(list, nil).Len() != 0 || ProjectSortScan(list, nil).Len() != 0 {
		t.Error("projection of empty list not empty")
	}
}

func TestJoinMeterCountsWork(t *testing.T) {
	// Sanity: nested loops does ~|R1|·|R2| comparisons; hash join does far
	// fewer. This is the paper's validation methodology (§3.1).
	rng := rand.New(rand.NewSource(23))
	col, _ := workload.Build(workload.Spec{Cardinality: 200, DuplicatePct: 0}, rng)
	ids := storage.NewIDGen()
	r := buildRelation(t, ids, "r", col.Values)
	s := arrayOn(r, 0)
	specN := JoinSpec{OuterName: "r", InnerName: "r", OuterField: 0, InnerField: 0}
	nm := newMeter()
	NestedLoopsJoin(s, s, withMeter(specN, nm))
	hm := newMeter()
	HashJoin(s, s, withMeter(specN, hm))
	if nm.Comparisons < 200*200 {
		t.Fatalf("nested loops did %d comparisons, want >= 40000", nm.Comparisons)
	}
	if hm.Comparisons > nm.Comparisons/10 {
		t.Fatalf("hash join %d comparisons vs nested %d — not cheaper", hm.Comparisons, nm.Comparisons)
	}
}

func TestListColumnSource(t *testing.T) {
	ids := storage.NewIDGen()
	rel := buildRelation(t, ids, "r", []int64{5, 6, 7})
	list := storage.MustTempList(storage.Descriptor{Sources: []string{"r"}})
	rel.ScanPhysical(func(tp *storage.Tuple) bool { list.Append(storage.Row{tp}); return true })
	src := ListColumn{List: list, Column: 0}
	if src.Len() != 3 {
		t.Fatalf("Len=%d", src.Len())
	}
	calls := 0
	src.ScanBatches(nil, func(block storage.TupleBatch) bool {
		calls++
		if len(block) != 3 {
			t.Fatalf("block of %d tuples, want all 3", len(block))
		}
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d blocks", calls)
	}
}

func ExampleNestedLoopsJoin() {
	ids := storage.NewIDGen()
	schema := storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})
	r1, _ := storage.NewRelation("r1", schema, storage.Config{}, ids)
	r2, _ := storage.NewRelation("r2", schema, storage.Config{}, ids)
	for _, v := range []int64{1, 2} {
		r1.Insert([]storage.Value{storage.IntValue(v)})
	}
	for _, v := range []int64{2, 3} {
		r2.Insert([]storage.Value{storage.IntValue(v)})
	}
	var t1, t2 []*storage.Tuple
	r1.ScanPhysical(func(tp *storage.Tuple) bool { t1 = append(t1, tp); return true })
	r2.ScanPhysical(func(tp *storage.Tuple) bool { t2 = append(t2, tp); return true })
	a1 := tupleindex.BuildArray(tupleindex.Options{Field: 0}, t1)
	a2 := tupleindex.BuildArray(tupleindex.Options{Field: 0}, t2)
	res := NestedLoopsJoin(a1, a2, JoinSpec{
		OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0,
	})
	fmt.Println(res.Len())
	// Output: 1
}

func TestDiscardCountsWithoutMaterializing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	col, _ := workload.Build(workload.Spec{Cardinality: 500, DuplicatePct: 90, Sigma: workload.Skewed}, rng)
	ids := storage.NewIDGen()
	r := buildRelation(t, ids, "r", col.Values)
	s := arrayOn(r, 0)
	var rows int
	spec := JoinSpec{OuterName: "r", InnerName: "r", OuterField: 0, InnerField: 0, Discard: true, RowsOut: &rows}
	l := HashJoin(s, s, spec)
	if l.Len() != 0 {
		t.Fatalf("discarded join materialized %d rows", l.Len())
	}
	want := 0
	counts := map[int64]int{}
	for _, v := range col.Values {
		counts[v]++
	}
	for _, c := range counts {
		want += c * c
	}
	if rows != want {
		t.Fatalf("RowsOut=%d, want %d", rows, want)
	}
	// Same count from every method.
	tts := ttreeOn(r, 0)
	for name, got := range map[string]func() int{
		"sortmerge": func() int { var n int; sp := spec; sp.RowsOut = &n; SortMergeJoin(s, s, sp); return n },
		"treemerge": func() int {
			var n int
			sp := spec
			sp.RowsOut = &n
			TreeMergeJoin(tts, tts, sp)
			return n
		},
		"tree":   func() int { var n int; sp := spec; sp.RowsOut = &n; TreeJoin(s, tts, sp); return n },
		"nested": func() int { var n int; sp := spec; sp.RowsOut = &n; NestedLoopsJoin(s, s, sp); return n },
	} {
		if n := got(); n != want {
			t.Fatalf("%s: RowsOut=%d, want %d", name, n, want)
		}
	}
}
