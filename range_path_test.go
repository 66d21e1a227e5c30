package mmdb

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// rangeDB builds two tables over the same rows: ranged(k pk, id, v) with
// a T Tree on id, and seq(k pk, id, v) without one — the same WHERE runs
// through the folded index interval on the first and through a
// sequential scan plus the residual filter on the second. id is k/2 (so
// every key is duplicated) and NULL on every tenth row.
func rangeDB(t *testing.T, rows int) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ranged", "seq"} {
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (k INT, id INT, v INT, PRIMARY KEY k USING ttree)", name))
		tbl, _ := db.Table(name)
		tx := db.Begin()
		for k := 0; k < rows; k++ {
			id := Int(int64(k / 2))
			if k%10 == 9 {
				id = Null
			}
			if err := tx.Insert(tbl, Int(int64(k)), id, Int(int64(k%7))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("CREATE INDEX ON ranged (id) USING ttree")
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

// selectNode runs the fluent form of the WHERE through Analyze and
// returns the selection's trace node.
func selectNode(t *testing.T, q *Query) *TraceNode {
	t.Helper()
	_, tr, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Root.Children {
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
		{"id >= 20 AND id < 30", "[20, 30]", fetched(20, 30)},
		{"id > 20 AND id <= 30", "[20, 30]", fetched(20, 30)},
		{"id < 30 AND id >= 20", "[20, 30]", fetched(20, 30)},
		{"id > 5 AND id > 9", "[9, +inf)", fetched(9, 1<<40)},
		{"id > 5 AND id > 9 AND id < 50 AND id <= 12", "[9, 12]", fetched(9, 12)},
		{"id >= 9 AND id < 3", "(empty interval)", 0},
		{"id >= 7 AND id <= 7", "[7, 7]", fetched(7, 7)},
		{"id > 7 AND id < 7", "[7, 7]", fetched(7, 7)},
		{"id >= 190", "[190, +inf)", fetched(190, 1<<40)},
		{"id < 4", "(-inf, 4]", -1},  // NULL keys sort below every bound
		{"id <= 4", "(-inf, 4]", -1}, // inclusive, but only a lower bound keeps the NULL keys out
		{"id >= 20 AND id <= 30", "[20, 30]", fetched(20, 30)},
		{"id >= 20 AND id < 30 AND v = 3", "[20, 30] + 1 residual filter(s)", fetched(20, 30)},
		{"id >= 20 AND v != 3 AND id < 30", "[20, 30] + 1 residual filter(s)", fetched(20, 30)},
		{"id >= 20 AND id < 30 AND id != 25", "[20, 30] + 1 residual filter(s)", fetched(20, 30)},
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
			q := builtQuery(t, db, "SELECT k FROM ranged WHERE "+tc.where)
			if n := selectNode(t, q); n.RowsIn != tc.rowsIn || n.RowsOut != len(want) {
				t.Errorf("WHERE %s: select fetched %d rows and kept %d, want %d and %d",
					tc.where, n.RowsIn, n.RowsOut, tc.rowsIn, len(want))
			}
		}
	}
}

// TestExactAccessPathIsFinal: when the probe guarantees every predicate —
// an Eq lookup on a non-NULL key, an inclusive range with a lower bound —
// the selection returns the access-path list itself; a strict bound, an
// extra conjunct or a NULL key still go through the residual filter. Either
// way the rows are the sequential scan's.
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
	exact := allocs(func() *Query { return db.Query("ranged").Where("id", Ge, Int(20)).Where("id", Le, Int(30)).Select("k") })
	strict := allocs(func() *Query { return db.Query("ranged").Where("id", Ge, Int(20)).Where("id", Lt, Int(31)).Select("k") })
	if exact >= strict {
		t.Errorf("the inclusive range allocates %.0f times, the strict one %.0f: its list was copied", exact, strict)
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
	// ids 20..30 inclusive are k=40..61: 22 rows, of which k=49 and k=59
	// carry NULL.
	if sel.RowsIn != 20 {
		t.Errorf("select fetched %d rows, want 20", sel.RowsIn)
	}
	if !strings.Contains(sel.AccessPath, `tree range scan on "id" [20, 30] (early exit at LIMIT 3)`) {
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
