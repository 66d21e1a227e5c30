package mmdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// rangeDB builds two tables over the same rows: ranged(k pk, id, v, f,
// s) with a T Tree on each of id, f and s, and seq(k pk, id, v, f, s)
// without them — the same WHERE runs through the folded index interval on
// the first and through a sequential scan on the second. id is k/2 (so
// every key is duplicated) and NULL on every tenth row; f and s are id as
// a FLOAT and as a four-digit STRING, NULL where it is.
func rangeDB(t *testing.T, rows int) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ranged", "seq"} {
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (k INT, id INT, v INT, f FLOAT, s STRING, PRIMARY KEY k USING ttree)", name))
		tbl, _ := db.Table(name)
		tx := db.Begin()
		for k := 0; k < rows; k++ {
			id, f, s := Int(int64(k/2)), Float(float64(k/2)), Str(fmt.Sprintf("%04d", k/2))
			if k%10 == 9 {
				id, f, s = Null, Null, Null
			}
			if err := tx.Insert(tbl, Int(int64(k)), id, Int(int64(k%7)), f, s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"id", "f", "s"} {
		db.MustExec("CREATE INDEX ON ranged (" + col + ") USING ttree")
	}
	return db
}

// keysOf runs a SELECT k … and returns the sorted keys.
func keysOf(t *testing.T, db *Database, sql string) []int64 {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	keys := make([]int64, r.Result.Len())
	for i := range keys {
		keys[i] = r.Result.Row(i)[0].Int()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func hasLine(plan, line string) bool {
	for _, l := range strings.Split(plan, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

// selectNode runs sql through EXPLAIN ANALYZE and returns the
// selection's trace node.
func selectNode(t *testing.T, db *Database, sql string) *TraceNode {
	t.Helper()
	r, err := db.Exec("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.trace.Root.Children {
		if n.Op == "select" {
			return n
		}
	}
	t.Fatal("trace has no select node")
	return nil
}

// TestFoldedRangeMatchesSequentialScan: every shape of range predicate
// returns through the folded interval what a sequential scan returns, the
// index is probed with the intersection of all bounds, and Explain plans
// what Run executes.
func TestFoldedRangeMatchesSequentialScan(t *testing.T) {
	const rows = 400 // ids 0..199, each twice, minus the NULL rows
	db := rangeDB(t, rows)
	// fetched models the inclusive interval the index is probed with.
	fetched := func(lo, hi int64) int {
		n := 0
		for k := 0; k < rows; k++ {
			if id := int64(k / 2); k%10 != 9 && id >= lo && id <= hi {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		where    string
		interval string // as the plan renders it
		rowsIn   int    // tuples the index hands to the residual filter; -1 = unchecked
	}{
		// A strict bound on an Int column folds as the inclusive one next
		// to it, so the index fetches only qualifying keys.
		{"id >= 20 AND id < 30", "[20, 29]", fetched(20, 29)},
		{"id > 20 AND id <= 30", "[21, 30]", fetched(21, 30)},
		{"id < 30 AND id >= 20", "[20, 29]", fetched(20, 29)},
		{"id > 5 AND id > 9", "[10, +inf)", fetched(10, 1<<40)},
		{"id > 5 AND id > 9 AND id < 50 AND id <= 12", "[10, 12]", fetched(10, 12)},
		{"id >= 9 AND id < 3", "(empty interval)", 0},
		{"id >= 7 AND id <= 7", "[7, 7]", fetched(7, 7)},
		{"id > 7 AND id < 9", "[8, 8]", fetched(8, 8)},
		{"id > 7 AND id < 8", "(empty interval)", 0},
		{"id > 7 AND id < 7", "(empty interval)", 0},
		{"id >= 190", "[190, +inf)", fetched(190, 1<<40)},
		{"id < 4", "(-inf, 3]", -1},  // NULL keys sort below every bound
		{"id <= 4", "(-inf, 4]", -1}, // inclusive, but only a lower bound keeps the NULL keys out
		{"id >= 20 AND id <= 30", "[20, 30]", fetched(20, 30)},
		{"id >= 20 AND id < 30 AND v = 3", "[20, 29] + 1 residual filter(s)", fetched(20, 29)},
		{"id >= 20 AND v != 3 AND id < 30", "[20, 29] + 1 residual filter(s)", fetched(20, 29)},
		{"id >= 20 AND id < 30 AND id != 25", "[20, 29] + 1 residual filter(s)", fetched(20, 29)},
		{"id > NULL", "(empty interval)", 0},
		{"id >= 20 AND id < NULL", "(empty interval)", 0},
		{"id >= 500", "[500, +inf)", 0},
	} {
		got := keysOf(t, db, "SELECT k FROM ranged WHERE "+tc.where)
		want := keysOf(t, db, "SELECT k FROM seq WHERE "+tc.where)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("WHERE %s: index path returned %d rows %v, sequential scan %d rows %v",
				tc.where, len(got), got, len(want), want)
		}
		wantPath := `tree range scan on "id" ` + tc.interval
		run, err := db.Exec("SELECT k FROM ranged WHERE " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		if !hasLine(run.Plan(), "access ranged: "+wantPath) {
			t.Errorf("WHERE %s: executed plan lacks %q:\n%s", tc.where, wantPath, run.Plan())
		}
		planned, err := db.Exec("EXPLAIN SELECT k FROM ranged WHERE " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		if !hasLine(planned.Plan(), "access ranged: "+wantPath) {
			t.Errorf("WHERE %s: EXPLAIN lacks %q:\n%s", tc.where, wantPath, planned.Plan())
		}
		if seqPlan, _ := db.Exec("SELECT k FROM seq WHERE " + tc.where); !strings.Contains(seqPlan.Plan(), "sequential scan") {
			t.Errorf("WHERE %s: the reference did not scan sequentially:\n%s", tc.where, seqPlan.Plan())
		}
		if tc.rowsIn >= 0 {
			if n := selectNode(t, db, "SELECT k FROM ranged WHERE "+tc.where); n.RowsIn != tc.rowsIn || n.RowsOut != len(want) {
				t.Errorf("WHERE %s: select fetched %d rows and kept %d, want %d and %d",
					tc.where, n.RowsIn, n.RowsOut, tc.rowsIn, len(want))
			}
		}
	}
}

// TestExactAccessPathIsFinal: when the probe guarantees every predicate —
// an Eq lookup on a non-NULL key, a range with a lower bound whose bounds
// are inclusive or strict on an Int column — the selection returns the
// access-path list itself; a strict Float or Str bound, or an extra
// conjunct, still goes through the residual filter, which copies the list.
// Either way the rows are the sequential scan's.
func TestExactAccessPathIsFinal(t *testing.T) {
	db := rangeDB(t, 400)
	for _, where := range []string{"id = 7", "id = NULL", "id = 7 AND v = 0", "id = 7 AND id = 8", "k = 14", "k = NULL"} {
		got := keysOf(t, db, "SELECT k FROM ranged WHERE "+where)
		want := keysOf(t, db, "SELECT k FROM seq WHERE "+where)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("WHERE %s: index path returned %v, sequential scan %v", where, got, want)
		}
	}
	allocs := func(q func() *Query) float64 {
		return testing.AllocsPerRun(50, func() {
			if res, err := q().Run(); err != nil || res.Len() != 20 {
				t.Fatalf("range returned %d rows, %v", res.Len(), err)
			}
		})
	}
	rng := func(col string, lo, hi Value, op Op) func() *Query {
		return func() *Query { return db.Query("ranged").Where(col, Ge, lo).Where(col, op, hi).Select("k") }
	}
	exact := allocs(rng("id", Int(20), Int(30), Le))
	if strict := allocs(rng("id", Int(20), Int(31), Lt)); strict != exact {
		t.Errorf("the inclusive Int range allocates %.0f times, the strict one %.0f: the strict bound is not exact", exact, strict)
	}
	for what, q := range map[string]func() *Query{
		"strict Float bound": rng("f", Float(20), Float(31), Lt),
		"strict Str bound":   rng("s", Str("0020"), Str("0031"), Lt),
		"extra conjunct": func() *Query {
			return db.Query("ranged").Where("id", Ge, Int(20)).Where("id", Le, Int(30)).Where("v", Ge, Int(0)).Select("k")
		},
	} {
		if n := allocs(q); n <= exact {
			t.Errorf("the %s allocates %.0f times, the exact Int range %.0f: its list was not copied", what, n, exact)
		}
	}
}

// TestFoldedRangeLeavesMistypedBoundToResidual: a bound whose type is not
// the column's cannot be ordered against the keys, and no row satisfies
// it, so bind empties the selection: the plan shows the empty interval,
// which nothing is left to filter.
func TestFoldedRangeLeavesMistypedBoundToResidual(t *testing.T) {
	db := rangeDB(t, 20)
	for where, want := range map[string]string{
		"id > 'x'":            `tree range scan on "id" (empty interval)`,
		"id > 'x' AND id < 7": `tree range scan on "id" (empty interval)`,
	} {
		planned, err := db.Exec("EXPLAIN SELECT k FROM ranged WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		if !hasLine(planned.Plan(), "access ranged: "+want) {
			t.Errorf("WHERE %s: EXPLAIN lacks %q:\n%s", where, want, planned.Plan())
		}
	}
}

// TestFoldedRangeLimitPushdown: a LIMIT pushed into a range selection
// stops the residual filter early, over the interval and not over the
// half-relation a one-sided probe used to fetch.
func TestFoldedRangeLimitPushdown(t *testing.T) {
	db := rangeDB(t, 400)
	q := db.Query("ranged").Where("id", Ge, Int(20)).Where("id", Lt, Int(30)).Select("k").Limit(3)
	res, tr, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", res.Len())
	}
	for i := 0; i < res.Len(); i++ {
		if id := res.Row(i)[0].Int() / 2; id < 20 || id >= 30 {
			t.Errorf("row %d: k=%d is outside the range", i, res.Row(i)[0].Int())
		}
	}
	sel := tr.Root.Children[0]
	// ids 20..29 are k=40..59: 20 rows, of which k=49 and k=59 carry NULL.
	if sel.RowsIn != 18 {
		t.Errorf("select fetched %d rows, want 18", sel.RowsIn)
	}
	if !strings.Contains(sel.AccessPath, `tree range scan on "id" [20, 29] (early exit at LIMIT 3)`) {
		t.Errorf("access path = %q", sel.AccessPath)
	}
}

// TestFoldedRangeDrivesUpdateAndDelete: UPDATE and DELETE select their
// victims through the same folded interval and change exactly the rows a
// sequential scan finds.
func TestFoldedRangeDrivesUpdateAndDelete(t *testing.T) {
	db := rangeDB(t, 400)
	contents := func(table string) string {
		r, err := db.Exec("SELECT k, id, v FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, r.Result.Len())
		for i := range rows {
			rows[i] = fmt.Sprint(r.Result.Row(i))
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	for _, stmt := range []string{
		"UPDATE %s SET v = 100 WHERE id >= 20 AND id < 30",
		"UPDATE %s SET v = 101 WHERE id > 5 AND id > 9 AND id <= 12",
		"UPDATE %s SET v = 102 WHERE id >= 9 AND id < 3",
		"DELETE FROM %s WHERE id > 40 AND id <= 60 AND v != 100",
		"DELETE FROM %s WHERE id >= 150",
		"DELETE FROM %s WHERE id < NULL",
	} {
		a, err := db.Exec(fmt.Sprintf(stmt, "ranged"))
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		b, err := db.Exec(fmt.Sprintf(stmt, "seq"))
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if a.RowsAffected != b.RowsAffected {
			t.Errorf("%s: %d rows through the index, %d through the scan", stmt, a.RowsAffected, b.RowsAffected)
		}
		if contents("ranged") != contents("seq") {
			t.Fatalf("%s: tables diverged", stmt)
		}
	}
}

// diffRows is the differential tables' size: past snapshotMinRows and
// two scan workers' worth, so the reference scan runs parallel, and on
// the snapshot, at Parallelism 4.
const diffRows = 5000

// diffDB builds ranged and seq as rangeDB does, over columns that cover
// what a folded interval must get right: i INT with NULLs, duplicates and
// MinInt64, MinInt64+1, MaxInt64-1, MaxInt64; f FLOAT with NULL, NaN, ±0
// and ±Inf; s STRING with NULL and keys that share an 8-byte prefix; e
// INT with every non-NULL key equal; v INT unindexed. ranged has a T Tree
// on each of i, f, s and e.
func diffDB(t *testing.T, par int) *Database {
	t.Helper()
	db, err := Open(Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1)}
	for _, name := range []string{"ranged", "seq"} {
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (k INT, i INT, f FLOAT, s STRING, e INT, v INT, PRIMARY KEY k USING ttree)", name))
		tbl, _ := db.Table(name)
		tx := db.Begin()
		for k := 0; k < diffRows; k++ {
			i, f, s, e := Int(int64(k/2-1000)), Float(float64(k%200)/4-20), Str(fmt.Sprintf("key%04d", k%500)), Int(7)
			if k < len(extremes) {
				i = Int(extremes[k])
			}
			if k%8 < len(floats) {
				f = Float(floats[k%8])
			}
			if k%3 == 0 {
				s = Str(fmt.Sprintf("abcdefgh%03d", k%100))
			}
			if k%10 == 9 {
				i = Null
			}
			if k%11 == 10 {
				f = Null
			}
			if k%12 == 11 {
				s = Null
			}
			if k%13 == 12 {
				e = Null
			}
			if err := tx.Insert(tbl, Int(int64(k)), i, f, s, e, Int(int64(k%7))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"i", "f", "s", "e"} {
		db.MustExec("CREATE INDEX ON ranged (" + col + ") USING ttree")
	}
	return db
}

// diffPred is one WHERE predicate of the range differential.
type diffPred struct {
	col string
	op  Op
	val Value
}

func (p diffPred) String() string { return fmt.Sprintf("%s %s %s", p.col, p.op, p.val) }

// sqlText renders the conjunction as a WHERE clause, or reports false
// when SQL has no literal for a value (NaN, ±Inf).
func sqlText(preds []diffPred) (string, bool) {
	terms := make([]string, len(preds))
	for i, p := range preds {
		var lit string
		switch p.val.Type() {
		case TypeInt:
			lit = strconv.FormatInt(p.val.Int(), 10)
		case TypeFloat:
			x := p.val.Float()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return "", false
			}
			if lit = strconv.FormatFloat(x, 'f', -1, 64); !strings.Contains(lit, ".") {
				lit += ".0" // a FLOAT literal; "-0" would lex as an INT
			}
		default:
			lit = "'" + p.val.Str() + "'"
		}
		terms[i] = fmt.Sprintf("%s %s %s", p.col, p.op, lit)
	}
	return strings.Join(terms, " AND "), true
}

// TestRangePathDifferential: the folded index range returns the rows a
// sequential scan returns, at Parallelism 1 and 4, for strict and
// inclusive Int bounds (the interval ends, one past them, and lo == hi),
// Float bounds over NaN and ±0 and Str bounds (which keep the residual
// filter), NULL keys and all-equal keys — run as fluent queries, and as
// Exec statements that hit the statement cache.
func TestRangePathDifferential(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	p := func(col string, op Op, v Value) diffPred { return diffPred{col, op, v} }
	cases := [][]diffPred{
		{p("i", Lt, Int(minI))},
		{p("i", Le, Int(minI))},
		{p("i", Gt, Int(minI))},
		{p("i", Ge, Int(minI)), p("i", Lt, Int(minI+2))},
		{p("i", Ge, Int(minI)), p("i", Lt, Int(minI))},
		{p("i", Gt, Int(maxI))},
		{p("i", Ge, Int(maxI))},
		{p("i", Le, Int(maxI))},
		{p("i", Lt, Int(maxI))},
		{p("i", Gt, Int(maxI-2)), p("i", Le, Int(maxI))},
		{p("i", Gt, Int(maxI)), p("i", Le, Int(maxI))},
		{p("i", Ge, Int(20)), p("i", Lt, Int(30))},
		{p("i", Gt, Int(20)), p("i", Le, Int(30))},
		{p("i", Gt, Int(5)), p("i", Gt, Int(9)), p("i", Lt, Int(50)), p("i", Le, Int(12))},
		{p("i", Ge, Int(7)), p("i", Le, Int(7))},
		{p("i", Gt, Int(6)), p("i", Lt, Int(8))},
		{p("i", Gt, Int(7)), p("i", Lt, Int(8))},
		{p("i", Lt, Int(-990))},
		{p("i", Ge, Int(20)), p("i", Lt, Int(30)), p("v", Eq, Int(3))},
		{p("f", Gt, Float(0))},
		{p("f", Ge, Float(negZero))},
		{p("f", Gt, Float(negZero)), p("f", Lt, Float(1.5))},
		{p("f", Le, Float(negZero))},
		{p("f", Lt, Float(0))},
		{p("f", Ge, Float(-0.5)), p("f", Le, Float(0))},
		{p("f", Ge, Float(nan))},
		{p("f", Gt, Float(2)), p("f", Lt, Float(nan))},
		{p("f", Gt, Float(math.Inf(1)))},
		{p("f", Lt, Float(math.Inf(-1)))},
		{p("s", Gt, Str("abcdefgh050"))},
		{p("s", Ge, Str("key0010")), p("s", Lt, Str("key0020"))},
		{p("s", Lt, Str("abcdefgh"))},
		{p("s", Gt, Str("abcdefgh099")), p("s", Le, Str("key"))},
		{p("e", Gt, Int(7))},
		{p("e", Ge, Int(7))},
		{p("e", Lt, Int(7))},
		{p("e", Le, Int(7))},
		{p("e", Gt, Int(6)), p("e", Lt, Int(8))},
	}
	keys := func(res *Result) []int64 {
		out := make([]int64, res.Len())
		for i := range out {
			out[i] = res.Row(i)[0].Int()
		}
		slices.Sort(out)
		return out
	}
	for _, par := range []int{1, 4} {
		db := diffDB(t, par)
		for _, preds := range cases {
			run := func(table string) *Result {
				q := db.Query(table).Select("k")
				for _, p := range preds {
					q = q.Where(p.col, p.op, p.val)
				}
				res, err := q.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			name := fmt.Sprint(preds)
			ranged, seq := run("ranged"), run("seq")
			if !strings.Contains(ranged.Plan(), `tree range scan on "`+preds[0].col+`"`) || !strings.Contains(seq.Plan(), "scan") {
				t.Fatalf("%s: not the paths under test:\n%s\n%s", name, ranged.Plan(), seq.Plan())
			}
			want := keys(seq)
			if got := keys(ranged); !slices.Equal(got, want) {
				t.Errorf("Parallelism %d, %s: the index range returned %d rows, the scan %d", par, name, len(got), len(want))
			}
			where, ok := sqlText(preds)
			if !ok {
				continue
			}
			sql := "SELECT k FROM ranged WHERE " + where
			db.MustExec(sql)
			if !cached(t, db, sql) {
				t.Fatalf("%s is not cached", sql)
			}
			if got := keys(db.MustExec(sql).Result); !slices.Equal(got, want) {
				t.Errorf("Parallelism %d, %s: the statement hit returned %d rows, the scan %d", par, sql, len(got), len(want))
			}
		}
	}
}
