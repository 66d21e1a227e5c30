package mmdb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// pointRows is the size of pointDB's tables: every value of g and the one
// value of a select more than storage.ChunkRows rows.
const pointRows = 1200

// pointDB opens a database at the given parallelism with one table per
// index kind, p_<kind>(id, f, s, g, a), every index of that kind: the
// primary key on id, unique indices on f and s, and non-unique ones on g
// and a. f holds NaN, -0, ±Inf and a NULL beside distinct halves; s holds
// "" and a NULL beside distinct strings; g takes three values (and NULL),
// each on ≈400 rows; a is 7 on every row.
func pointDB(t *testing.T, workers int) (*Database, []string) {
	t.Helper()
	db, err := Open(Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	for _, kind := range []string{"ttree", "btree", "avl", "array", "chained", "mlh", "linear", "extendible"} {
		name := "p_" + kind
		tables = append(tables, name)
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (id INT, f FLOAT, s STRING, g INT, a INT, PRIMARY KEY id USING %s)", name, kind))
		tbl, _ := db.Table(name)
		tx := db.Begin()
		for i := 0; i < pointRows; i++ {
			f, s, g := Float(float64(i)/2), Str(fmt.Sprintf("s%04d", i)), Int(int64(i%3))
			switch i {
			case 0:
				f = Float(math.NaN())
			case 1:
				f = Float(math.Copysign(0, -1))
			case 2:
				f = Float(math.Inf(1))
			case 3:
				f = Float(math.Inf(-1))
			case 4:
				s = Str("")
			case 5: // a unique index holds one NULL key at most
				f, s = Null, Null
			}
			if i%101 == 9 {
				g = Null
			}
			if err := tx.Insert(tbl, Int(int64(i)), f, s, g, Int(7)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"f", "s"} {
			db.MustExec(fmt.Sprintf("CREATE UNIQUE INDEX ON %s (%s) USING %s", name, col, kind))
		}
		for _, col := range []string{"g", "a"} {
			db.MustExec(fmt.Sprintf("CREATE INDEX ON %s (%s) USING %s", name, col, kind))
		}
	}
	return db, tables
}

// scanIDs is the reference: the ids of the table's rows on which column
// = v holds, found by a full scan and SQL's rule: the column's value is
// not NULL, v is of its type, and the two compare equal.
func scanIDs(t *testing.T, db *Database, table, column string, v Value) []int64 {
	t.Helper()
	tbl, _ := db.Table(table)
	f := tbl.ColumnIndex(column)
	all, err := db.Query(table).Run()
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{}
	for i := 0; i < all.Len(); i++ {
		tp := all.Tuples(i)[0]
		if c := tp.Field(f); !c.IsNull() && c.Type() == v.Type() && storage.Compare(c, v) == 0 {
			ids = append(ids, tp.Field(0).Int())
		}
	}
	slices.Sort(ids)
	return ids
}

// idsOf returns a result's first column, sorted.
func idsOf(r *Result) []int64 {
	ids := make([]int64, r.Len())
	for i := range ids {
		ids[i] = r.Row(i)[0].Int()
	}
	slices.Sort(ids)
	return ids
}

// TestPointSelectionMatchesScan: an equality selection through every
// index kind — a unique key's one-row list, a miss's empty one, and a
// non-unique key's lists of more than storage.ChunkRows rows — returns
// the rows a full scan and filter finds, at one worker and at four, over
// NULL, NaN, ±0, ±Inf, all-equal and string keys, through the fluent API
// and through Exec, whose second run of a statement is a hit of the
// statement cache.
func TestPointSelectionMatchesScan(t *testing.T) {
	if pointRows/3 <= storage.ChunkRows {
		t.Fatalf("g's values select %d rows, no more than a chunk", pointRows/3)
	}
	cases := []struct {
		column string
		v      Value
		want   int // rows; -1 = more than a chunk
	}{
		{"id", Int(0), 1}, {"id", Int(599), 1}, {"id", Int(pointRows - 1), 1},
		{"id", Int(pointRows), 0}, {"id", Int(-1), 0}, {"id", Null, 0}, {"id", Str("0"), 0},
		{"f", Float(math.NaN()), 1}, {"f", Float(math.Copysign(0, -1)), 1}, {"f", Float(0), 1},
		{"f", Float(math.Inf(1)), 1}, {"f", Float(math.Inf(-1)), 1}, {"f", Float(10), 1},
		{"f", Float(0.25), 0}, {"f", Null, 0}, {"f", Int(10), 0},
		{"s", Str(""), 1}, {"s", Str("s0100"), 1}, {"s", Str("s9999"), 0}, {"s", Null, 0},
		{"g", Int(0), -1}, {"g", Int(1), -1}, {"g", Int(2), -1}, {"g", Int(3), 0}, {"g", Null, 0},
		{"a", Int(7), pointRows}, {"a", Int(8), 0},
	}
	sqls := []struct {
		column, lit string
		v           Value
		want        int
	}{
		{"id", "599", Int(599), 1}, {"id", "1200", Int(1200), 0}, {"s", "'s0100'", Str("s0100"), 1},
		{"s", "''", Str(""), 1}, {"s", "'x'", Str("x"), 0}, {"f", "10.0", Float(10), 1}, {"f", "0.25", Float(0.25), 0},
		{"g", "1", Int(1), -1}, {"g", "3", Int(3), 0}, {"a", "7", Int(7), pointRows},
	}
	check := func(what string, got, want []int64, rows int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d rows %v, the scan finds %d %v", what, len(got), head(got), len(want), head(want))
		}
		if rows >= 0 && len(got) != rows || rows < 0 && len(got) <= storage.ChunkRows {
			t.Errorf("%s: %d rows, want %d", what, len(got), rows)
		}
	}
	for _, workers := range []int{1, 4} {
		db, tables := pointDB(t, workers)
		for _, table := range tables {
			for _, c := range cases {
				what := fmt.Sprintf("workers %d: %s.%s = %s", workers, table, c.column, c.v)
				r, err := db.Query(table).Where(c.column, Eq, c.v).Select("id").Run()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				check(what, idsOf(r), scanIDs(t, db, table, c.column, c.v), c.want)
				// A key of the column's type is looked up in its index.
				tbl, _ := db.Table(table)
				if !c.v.IsNull() && c.v.Type() == tbl.Schema()[tbl.ColumnIndex(c.column)].Type && !strings.Contains(r.Plan(), "lookup on") {
					t.Errorf("%s: not an index lookup:\n%s", what, r.Plan())
				}
			}
			for _, c := range sqls {
				stmt := fmt.Sprintf("SELECT id FROM %s WHERE %s = %s", table, c.column, c.lit)
				want := scanIDs(t, db, table, c.column, c.v)
				for _, run := range []string{"miss", "hit"} {
					r, err := db.Exec(stmt)
					if err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
					check(fmt.Sprintf("workers %d: %s (%s)", workers, stmt, run), idsOf(r.Result), want, c.want)
				}
			}
		}
		db.Close()
	}
}

// head is the first few ids of a list, for a failure message.
func head(ids []int64) []int64 {
	return ids[:min(len(ids), 5)]
}

// TestPointResultSurvivesLaterStatements: a point SELECT's Result, whose
// one row lives in the list's own slot, and a range SELECT's, whose rows
// live in a pooled chunk the result keeps, read back the same rows after
// a thousand further statements — point and range SELECTs, INSERTs and
// DELETEs — whose lists take chunks from the pool and give them back.
func TestPointResultSurvivesLaterStatements(t *testing.T) {
	db := protoDB(t, 10_000, 0)
	type kept struct {
		r    *ExecResult
		rows [][]Value
		tps  []*Tuple
	}
	keep := func(stmt string) kept {
		k := kept{r: db.MustExec(stmt)}
		for i := 0; i < k.r.Result.Len(); i++ {
			k.rows = append(k.rows, k.r.Result.Row(i))
			k.tps = append(k.tps, k.r.Result.Tuples(i)[0])
		}
		return k
	}
	var results []kept
	for j := 0; j < 20; j++ {
		results = append(results, keep(fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", j*7)))
	}
	results = append(results, keep("SELECT id, v FROM fact WHERE id >= 200 AND id < 300"))
	for i := 0; i < 1000; i++ {
		var stmt string
		switch i % 5 {
		case 0, 1:
			stmt = fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", 5000+i)
		case 2:
			stmt = fmt.Sprintf("SELECT id, v FROM fact WHERE id >= %d AND id < %d", 3000+i, 3100+i)
		case 3:
			stmt = fmt.Sprintf("INSERT INTO fact VALUES (%d, 1, %d)", 20_000+i, -i)
		default:
			stmt = fmt.Sprintf("DELETE FROM fact WHERE id = %d", 6000+i)
		}
		db.MustExec(stmt)
	}
	for j, k := range results {
		res := k.r.Result
		if res.Len() != len(k.rows) || k.r.RowsAffected != len(k.rows) {
			t.Fatalf("result %d: %d rows, had %d", j, res.Len(), len(k.rows))
		}
		for i, want := range k.rows {
			if got := res.Row(i); fmt.Sprint(got) != fmt.Sprint(want) || res.Tuples(i)[0] != k.tps[i] {
				t.Fatalf("result %d row %d reads %v (tuple %p), had %v (tuple %p)", j, i, got, res.Tuples(i)[0], want, k.tps[i])
			}
		}
	}
}
