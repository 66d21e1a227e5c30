package agg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/meter"
	"repro/internal/plan"
	"repro/internal/storage"
)

// buildList materializes rows into a relation and wraps every tuple in a
// single-source temp list, the shape the operator consumes.
func buildList(t testing.TB, fields []storage.FieldDef, rows [][]storage.Value) *storage.TempList {
	t.Helper()
	rel, err := storage.NewRelation("r", storage.MustSchema(fields...), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]storage.ColRef, len(fields))
	for i, f := range fields {
		cols[i] = storage.ColRef{Source: 0, Field: i, Name: f.Name}
	}
	list := storage.MustTempListHint(storage.Descriptor{Sources: []string{"r"}, Cols: cols}, len(rows))
	for _, row := range rows {
		tp, err := rel.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		list.AppendOne(tp)
	}
	return list
}

// deptSal builds the test workload: (dept string, sal int) with the given
// rows; a nil sal pointer inserts NULL.
func deptSal(t testing.TB, rows []struct {
	dept string
	sal  *int64
}) *storage.TempList {
	t.Helper()
	fields := []storage.FieldDef{
		{Name: "dept", Type: storage.Str},
		{Name: "sal", Type: storage.Int},
	}
	vals := make([][]storage.Value, len(rows))
	for i, r := range rows {
		sal := storage.NullValue
		if r.sal != nil {
			sal = storage.IntValue(*r.sal)
		}
		vals[i] = []storage.Value{storage.StringValue(r.dept), sal}
	}
	return buildList(t, fields, vals)
}

func iptr(v int64) *int64 { return &v }

// canonical flattens a Result into key → finalized aggregate strings, so
// group order (which legitimately differs across methods) drops out.
func canonical(list *storage.TempList, groupCols []int, specs []agg.Spec, res agg.Result) map[string][]string {
	out := make(map[string][]string, res.Groups())
	for g := 0; g < res.Groups(); g++ {
		rep := int(res.Reps[g])
		key := ""
		for _, c := range groupCols {
			key += fmt.Sprintf("%v|", list.Value(rep, c))
		}
		finals := make([]string, len(specs))
		for s := range specs {
			finals[s] = fmt.Sprint(agg.Final(specs[s].Kind, res.Cells[g*len(specs)+s]))
		}
		out[key] = finals
	}
	return out
}

func sameCanonical(t *testing.T, name string, want, got map[string][]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d groups, want %d\n got=%v\nwant=%v", name, len(got), len(want), got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: group %q missing", name, k)
		}
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("%s: group %q = %v, want %v", name, k, g, w)
		}
	}
}

var allSpecs = []agg.Spec{
	{Kind: agg.Count, Col: -1, Name: "COUNT(*)"},
	{Kind: agg.Count, Col: 1, Name: "COUNT(sal)"},
	{Kind: agg.Sum, Col: 1, Name: "SUM(sal)"},
	{Kind: agg.Min, Col: 1, Name: "MIN(sal)"},
	{Kind: agg.Max, Col: 1, Name: "MAX(sal)"},
	{Kind: agg.Avg, Col: 1, Name: "AVG(sal)"},
}

// TestNullSkipping pins SQL's null semantics: every function skips NULL
// inputs including COUNT(col); COUNT(*) counts rows regardless; a group
// whose inputs were all NULL yields NULL for SUM/MIN/MAX/AVG and 0 for
// COUNT(col).
func TestNullSkipping(t *testing.T) {
	list := deptSal(t, []struct {
		dept string
		sal  *int64
	}{
		{"toy", iptr(10)}, {"toy", nil}, {"toy", iptr(30)},
		{"shoe", nil}, {"shoe", nil},
		{"linen", iptr(7)},
	})
	m := &meter.Counters{}
	g := agg.Get()
	defer agg.Put(g)
	res := g.Run(list, []int{0}, allSpecs, nil, m)
	got := canonical(list, []int{0}, allSpecs, res)
	want := map[string][]string{
		"toy|":   {"3", "2", "40", "10", "30", "20"},
		"shoe|":  {"2", "0", "NULL", "NULL", "NULL", "NULL"},
		"linen|": {"1", "1", "7", "7", "7", "7"},
	}
	sameCanonical(t, "null-skipping", want, got)
	if m.Groups != 3 {
		t.Fatalf("Groups=%d, want 3", m.Groups)
	}
	if m.AggProbes == 0 || m.HashCalls == 0 {
		t.Fatalf("probe/hash counters not metered: %+v", m)
	}
}

// TestMethodsAgree runs the same random workload through the flat table,
// the radix-partitioned plan, partial+merge, and the naive map baseline;
// all four must produce the identical group → finals mapping.
func TestMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	rows := make([]struct {
		dept string
		sal  *int64
	}, n)
	for i := range rows {
		rows[i].dept = fmt.Sprintf("d%03d", rng.Intn(257))
		if rng.Intn(10) != 0 { // ~10% NULL
			rows[i].sal = iptr(int64(rng.Intn(100000) - 50000))
		}
	}
	list := deptSal(t, rows)
	gcols := []int{0}

	m := &meter.Counters{}
	g := agg.Get()
	flat := canonical(list, gcols, allSpecs, g.Run(list, gcols, allSpecs, nil, m))

	// Force the partitioned plan regardless of input size.
	method, bits := plan.ChooseAggMethod(n, plan.AggConfig{MinRows: 1})
	if method != plan.AggRadixPartitioned || len(bits) == 0 {
		t.Fatalf("chooser with MinRows=1 did not force partitioning: %v %v", method, bits)
	}
	g2 := agg.Get()
	part := canonical(list, gcols, allSpecs, g2.Run(list, gcols, allSpecs, bits, m))

	// Partial aggregation over thirds, merged in three hash partitions and
	// concatenated.
	var partials []agg.Result
	var workers []*agg.Grouper
	for i := 0; i < 3; i++ {
		wg := agg.Get()
		workers = append(workers, wg)
		partials = append(partials, wg.RunRange(list, n*i/3, n*(i+1)/3, gcols, allSpecs, m))
	}
	g3 := agg.Get()
	parts := []agg.Result{g3.MergePartition(partials, 0, 3, len(gcols), allSpecs, m)}
	for p := 1; p < 3; p++ {
		mg := agg.Get()
		workers = append(workers, mg)
		parts = append(parts, mg.MergePartition(partials, p, 3, len(gcols), allSpecs, m))
	}
	merged := canonical(list, gcols, allSpecs, g3.Concat(parts, len(allSpecs)))

	naive := canonical(list, gcols, allSpecs, agg.NaiveMapAgg(list, gcols, allSpecs, m))

	sameCanonical(t, "flat vs naive", naive, flat)
	sameCanonical(t, "partitioned vs naive", naive, part)
	sameCanonical(t, "merged vs naive", naive, merged)

	for _, wg := range workers {
		agg.Put(wg)
	}
	agg.Put(g)
	agg.Put(g2)
	agg.Put(g3)
}

// TestEmptyInput: zero rows yield zero groups on every path.
func TestEmptyInput(t *testing.T) {
	list := deptSal(t, nil)
	m := &meter.Counters{}
	g := agg.Get()
	defer agg.Put(g)
	if got := g.Run(list, []int{0}, allSpecs, nil, m).Groups(); got != 0 {
		t.Fatalf("flat over empty: %d groups", got)
	}
	if got := g.MergePartition(nil, 0, 2, 1, allSpecs, m).Groups(); got != 0 {
		t.Fatalf("merge of no partials: %d groups", got)
	}
	if got := g.Concat([]agg.Result{g.RunRange(list, 0, 0, []int{0}, allSpecs, m), {}}, len(allSpecs)).Groups(); got != 0 {
		t.Fatalf("concat of empty partitions: %d groups", got)
	}
}

// TestMultiColumnKeys groups on (dept, sal) pairs — composite keys must
// not conflate (a,b) with (b,a) or equal-hash rows with different keys.
func TestMultiColumnKeys(t *testing.T) {
	list := deptSal(t, []struct {
		dept string
		sal  *int64
	}{
		{"a", iptr(1)}, {"a", iptr(1)}, {"a", iptr(2)},
		{"b", iptr(1)}, {"b", iptr(2)}, {"b", iptr(2)},
	})
	specs := []agg.Spec{{Kind: agg.Count, Col: -1, Name: "COUNT(*)"}}
	m := &meter.Counters{}
	g := agg.Get()
	defer agg.Put(g)
	res := g.Run(list, []int{0, 1}, specs, nil, m)
	if res.Groups() != 4 {
		t.Fatalf("groups=%d, want 4", res.Groups())
	}
	got := canonical(list, []int{0, 1}, specs, res)
	want := map[string][]string{
		"a|1|": {"2"}, "a|2|": {"1"}, "b|1|": {"1"}, "b|2|": {"2"},
	}
	sameCanonical(t, "composite keys", want, got)
}

// TestWarmGrouperZeroAlloc: a warmed grouper aggregates with zero heap
// allocations — the pooled-scratch contract the query hot path relies on.
func TestWarmGrouperZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]struct {
		dept string
		sal  *int64
	}, 2048)
	for i := range rows {
		rows[i].dept = fmt.Sprintf("d%02d", rng.Intn(64))
		rows[i].sal = iptr(int64(rng.Intn(1000)))
	}
	list := deptSal(t, rows)
	m := &meter.Counters{}
	g := agg.Get()
	defer agg.Put(g)
	for _, c := range []struct {
		name  string
		keys  []int
		specs []agg.Spec
	}{
		{"grouped", []int{0}, allSpecs},
		// DISTINCT's run: no spec, every column a key.
		{"keys-only", []int{0, 1}, nil},
	} {
		run := func() { g.Run(list, c.keys, c.specs, nil, m) }
		run() // warm the scratch
		if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
			t.Fatalf("%s: warm grouper allocates %.0f times per run, want 0", c.name, allocs)
		}
	}
}

// A grouper holds one Cell per (group, aggregate) pair, so high-NDV
// aggregation memory is cells × this size; 24 of it is a storage.Value.
func TestCellSize(t *testing.T) {
	if got := reflect.TypeOf(agg.Cell{}).Size(); got > 56 {
		t.Errorf("Sizeof(agg.Cell) = %d, want at most 56", got)
	}
}
