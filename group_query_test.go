package mmdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// aggDB builds an emp table (id, dept string, sal int) with nDept
// departments and ~10% NULL salaries, returning the db and the raw rows
// for reference computations.
func aggDB(t testing.TB, n, nDept int, seed int64) (*Database, []struct {
	dept string
	sal  *int64
}) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := db.CreateTable("emp", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "dept", Type: TypeString},
		{Name: "sal", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]struct {
		dept string
		sal  *int64
	}, n)
	tx := db.Begin()
	for i := range rows {
		rows[i].dept = fmt.Sprintf("d%03d", rng.Intn(nDept))
		sal := Null
		if rng.Intn(10) != 0 {
			v := int64(rng.Intn(90000) + 10000)
			rows[i].sal = &v
			sal = Int(v)
		}
		if err := tx.Insert(emp, Int(int64(i)), Str(rows[i].dept), sal); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, rows
}

// refAgg computes the reference per-dept aggregates from the raw rows.
type refRow struct {
	count, countSal, sum int64
	min, max             int64
	hasSal               bool
}

func refAgg(rows []struct {
	dept string
	sal  *int64
}) map[string]*refRow {
	ref := map[string]*refRow{}
	for _, r := range rows {
		a := ref[r.dept]
		if a == nil {
			a = &refRow{}
			ref[r.dept] = a
		}
		a.count++
		if r.sal != nil {
			v := *r.sal
			if !a.hasSal || v < a.min {
				a.min = v
			}
			if !a.hasSal || v > a.max {
				a.max = v
			}
			a.hasSal = true
			a.countSal++
			a.sum += v
		}
	}
	return ref
}

// TestGroupByAggEndToEnd: fluent GROUP BY + every aggregate against a
// reference computed from the raw inserts, including null skipping.
func TestGroupByAggEndToEnd(t *testing.T) {
	db, rows := aggDB(t, 5000, 37, 41)
	ref := refAgg(rows)
	res, err := db.Query("emp").
		GroupBy("dept").
		Agg(AggCount, "").Agg(AggCount, "sal").Agg(AggSum, "sal").
		Agg(AggMin, "sal").Agg(AggMax, "sal").Agg(AggAvg, "sal").
		Run()
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"dept", "COUNT(*)", "COUNT(sal)", "SUM(sal)", "MIN(sal)", "MAX(sal)", "AVG(sal)"}
	if fmt.Sprint(res.Columns()) != fmt.Sprint(wantCols) {
		t.Fatalf("columns %v, want %v", res.Columns(), wantCols)
	}
	if res.Len() != len(ref) {
		t.Fatalf("groups=%d, want %d", res.Len(), len(ref))
	}
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		a := ref[row[0].Str()]
		if a == nil {
			t.Fatalf("unexpected group %q", row[0].Str())
		}
		if row[1].Int() != a.count || row[2].Int() != a.countSal {
			t.Fatalf("%s counts: %v/%v, want %d/%d", row[0].Str(), row[1], row[2], a.count, a.countSal)
		}
		if a.countSal == 0 {
			for c := 3; c <= 6; c++ {
				if !row[c].IsNull() {
					t.Fatalf("%s col %d: %v, want NULL (all inputs null)", row[0].Str(), c, row[c])
				}
			}
			continue
		}
		if row[3].Int() != a.sum || row[4].Int() != a.min || row[5].Int() != a.max {
			t.Fatalf("%s sum/min/max: %v/%v/%v, want %d/%d/%d",
				row[0].Str(), row[3], row[4], row[5], a.sum, a.min, a.max)
		}
		wantAvg := float64(a.sum) / float64(a.countSal)
		if got := row[6].Float(); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
			t.Fatalf("%s avg: %v, want %v", row[0].Str(), got, wantAvg)
		}
	}
}

// TestGlobalAggregation: Agg without GroupBy collapses the input to one
// row — including over an empty selection (COUNT 0, NULL sum).
func TestGlobalAggregation(t *testing.T) {
	db, rows := aggDB(t, 500, 7, 43)
	var wantSum, wantCount int64
	for _, r := range rows {
		if r.sal != nil {
			wantSum += *r.sal
			wantCount++
		}
	}
	res, err := db.Query("emp").Agg(AggCount, "*").Agg(AggSum, "sal").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0].Int() != int64(len(rows)) || res.Row(0)[1].Int() != wantSum {
		t.Fatalf("global agg: %d rows, %v", res.Len(), res.Row(0))
	}
	_ = wantCount
	// Empty selection still produces the single global row.
	res, err = db.Query("emp").Where("sal", Gt, Int(1<<40)).Agg(AggCount, "*").Agg(AggMax, "sal").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0].Int() != 0 || !res.Row(0)[1].IsNull() {
		t.Fatalf("global agg over empty: %d rows, %v", res.Len(), res.Row(0))
	}
	// ...except under LIMIT 0, which empties every path.
	res, err = db.Query("emp").Agg(AggCount, "*").Limit(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("LIMIT 0 over global agg: %d rows", res.Len())
	}
}

// TestOrderByVsReference: fluent ORDER BY (DESC and mixed directions,
// name/ordinal/qualified resolution) against a naive sort of the same
// result set.
func TestOrderByVsReference(t *testing.T) {
	db, _ := aggDB(t, 900, 23, 47)
	for _, tc := range []struct {
		name  string
		build func() *Query
		cmp   func(a, b []Value) int
	}{
		{"sal desc", func() *Query { return db.Query("emp").OrderBy("sal", true) },
			func(a, b []Value) int { return -compareValues(a[2], b[2]) }},
		{"dept asc, sal desc", func() *Query { return db.Query("emp").OrderBy("dept", false).OrderBy("sal", true) },
			func(a, b []Value) int {
				if c := compareValues(a[1], b[1]); c != 0 {
					return c
				}
				return -compareValues(a[2], b[2])
			}},
		{"ordinal 3 asc", func() *Query { return db.Query("emp").OrderBy("3", false) },
			func(a, b []Value) int { return compareValues(a[2], b[2]) }},
		{"qualified emp.sal asc", func() *Query { return db.Query("emp").OrderBy("emp.sal", false) },
			func(a, b []Value) int { return compareValues(a[2], b[2]) }},
	} {
		res, err := tc.build().Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 1; i < res.Len(); i++ {
			if tc.cmp(res.Row(i-1), res.Row(i)) > 0 {
				t.Fatalf("%s: rows %d,%d out of order: %v then %v",
					tc.name, i-1, i, res.Row(i-1), res.Row(i))
			}
		}
		if res.Len() != 900 {
			t.Fatalf("%s: %d rows, want 900", tc.name, res.Len())
		}
	}
}

// compareValues orders two result values of the same column.
func compareValues(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	switch a.Type() {
	case TypeString:
		return strings.Compare(a.Str(), b.Str())
	case TypeFloat:
		switch {
		case a.Float() < b.Float():
			return -1
		case a.Float() > b.Float():
			return 1
		}
		return 0
	default:
		switch {
		case a.Int() < b.Int():
			return -1
		case a.Int() > b.Int():
			return 1
		}
		return 0
	}
}

// TestOrderByLimitIsSortPrefix: ORDER BY + LIMIT k returns exactly the
// first k rows of the unlimited ordered result, across the heap/sort
// crossover.
func TestOrderByLimitIsSortPrefix(t *testing.T) {
	db, _ := aggDB(t, 2000, 113, 53)
	full, err := db.Query("emp").OrderBy("sal", true).OrderBy("id", false).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, 500, 1999, 2000, 5000} {
		res, err := db.Query("emp").OrderBy("sal", true).OrderBy("id", false).Limit(k).Run()
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if want > full.Len() {
			want = full.Len()
		}
		if res.Len() != want {
			t.Fatalf("k=%d: %d rows, want %d", k, res.Len(), want)
		}
		for i := 0; i < want; i++ {
			if res.Row(i)[0].Int() != full.Row(i)[0].Int() {
				t.Fatalf("k=%d row %d: id %d, want %d", k, i, res.Row(i)[0].Int(), full.Row(i)[0].Int())
			}
		}
	}
}

// TestOrderByErrors: the resolution failure modes are reported, not
// silently mis-sorted.
func TestOrderByErrors(t *testing.T) {
	db, _ := aggDB(t, 50, 5, 59)
	for _, tc := range []struct {
		col  string
		want string
	}{
		{"0", "out of range"},
		{"9", "out of range"},
		{"nope", "not an output column"},
	} {
		_, err := db.Query("emp").OrderBy(tc.col, false).Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("OrderBy(%q): err=%v, want %q", tc.col, err, tc.want)
		}
	}
}

// TestGroupOrderTraceAndDecisions is the acceptance query: GROUP BY +
// ORDER BY ordinal DESC + LIMIT through SQL, with the operator trace
// carrying the group/order nodes, their §3.1-style counters, and the
// decision-audit lines.
func TestGroupOrderTraceAndDecisions(t *testing.T) {
	db, rows := aggDB(t, 4000, 257, 61)
	r, err := db.Exec(`EXPLAIN ANALYZE SELECT dept, COUNT(*), AVG(sal) FROM emp GROUP BY dept ORDER BY 2 DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"group", "agg: GroupsOut=", "AggTableProbes=",
		"order", "topk: HeapPushes=",
		"decision agg method:", "decision top-k method: bounded-heap top-k",
	} {
		if !strings.Contains(r.Plan(), want) {
			t.Fatalf("trace missing %q:\n%s", want, r.Plan())
		}
	}
	// And the executed result: 10 groups, counts non-increasing, values
	// matching the reference.
	r, err = db.Exec(`SELECT dept, COUNT(*), AVG(sal) FROM emp GROUP BY dept ORDER BY 2 DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Len() != 10 {
		t.Fatalf("rows=%d, want 10", r.Result.Len())
	}
	ref := refAgg(rows)
	counts := make([]int64, 0, len(ref))
	for _, a := range ref {
		counts = append(counts, a.count)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	for i := 0; i < 10; i++ {
		row := r.Result.Row(i)
		if row[1].Int() != counts[i] {
			t.Fatalf("rank %d: COUNT(*)=%d, want %d", i, row[1].Int(), counts[i])
		}
		a := ref[row[0].Str()]
		if a == nil || a.count != row[1].Int() {
			t.Fatalf("rank %d: group %q count %d inconsistent with reference", i, row[0].Str(), row[1].Int())
		}
	}
}

// TestSQLGroupShapeErrors: malformed grouped select lists are rejected
// with a pointed message.
func TestSQLGroupShapeErrors(t *testing.T) {
	db, _ := aggDB(t, 50, 5, 67)
	for _, tc := range []struct{ sql, want string }{
		{`SELECT sal, COUNT(*) FROM emp GROUP BY dept`, "must match GROUP BY"},
		{`SELECT COUNT(*), dept FROM emp GROUP BY dept`, "after an aggregate"},
		{`SELECT dept, COUNT(*) FROM emp`, "non-aggregate column"},
		{`SELECT sal FROM emp GROUP BY dept`, "must match GROUP BY"},
		{`SELECT SUM(nope) FROM emp`, "cannot resolve column"},
	} {
		_, err := db.Exec(tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err=%v, want %q", tc.sql, err, tc.want)
		}
	}
}

// TestGroupByWithoutAggSQL degenerates to one row per distinct group.
func TestGroupByWithoutAggSQL(t *testing.T) {
	db, rows := aggDB(t, 300, 11, 71)
	ref := refAgg(rows)
	r, err := db.Exec(`SELECT dept FROM emp GROUP BY dept ORDER BY dept`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Len() != len(ref) {
		t.Fatalf("%d groups, want %d", r.Result.Len(), len(ref))
	}
	for i := 1; i < r.Result.Len(); i++ {
		if r.Result.Row(i - 1)[0].Str() >= r.Result.Row(i)[0].Str() {
			t.Fatalf("group output not ordered at %d", i)
		}
	}
}
