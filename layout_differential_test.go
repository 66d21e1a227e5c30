package mmdb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// Layout differential: a table whose columns are all Int, Float or Bool
// stores its rows as 8-byte cells, and its twin — the same columns and
// rows plus one Str column nobody sets — stores them as Values. Every
// query below returns the same rows, bit for bit, from both, at
// Parallelism 1 and 4: filters, GROUP BY, ORDER BY, top-k, DISTINCT and
// two-way joins over NULL, NaN (two payloads), ±0, ±Inf, the extreme
// integers, both booleans and an all-equal column.

// ldInts and ldFloats are the key values the rows cycle through.
var (
	ldInts = []Value{
		Null, Int(math.MinInt64), Int(math.MaxInt64), Int(-1), Int(0), Int(1), Int(42),
	}
	ldFloats = []Value{
		Null, Float(math.NaN()), Float(math.Float64frombits(0x7ff8dead00000001)),
		Float(math.Float64frombits(0xfff0000000000001)), Float(0), Float(math.Copysign(0, -1)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(1.5), Float(-2.5), Float(math.SmallestNonzeroFloat64),
	}
	ldBools = []Value{Null, Bool(true), Bool(false)}
)

// ldOpen loads t(id, i, f, b, c), four workers' worth of morsels, and a
// small u(id, k, g) into a fresh database; with pad, each table gains a
// trailing Str column left NULL, so its rows are stored as Values instead
// of cells.
func ldOpen(tb testing.TB, pad bool) *Database {
	tb.Helper()
	db, err := Open(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tables := []struct {
		name   string
		rows   int
		fields []Field
		row    func(r int) []Value
	}{
		{"t", 12000, []Field{{Name: "id", Type: TypeInt}, {Name: "i", Type: TypeInt}, {Name: "f", Type: TypeFloat}, {Name: "b", Type: TypeBool}, {Name: "c", Type: TypeInt}},
			func(r int) []Value {
				i := ldInts[r%len(ldInts)]
				if r%5 == 4 {
					i = Int(int64(r % 50))
				}
				return []Value{Int(int64(r)), i, ldFloats[r%len(ldFloats)], ldBools[r%len(ldBools)], Int(7)}
			}},
		{"u", 35, []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "g", Type: TypeFloat}},
			func(r int) []Value {
				return []Value{Int(int64(r)), ldInts[r%len(ldInts)], ldFloats[(r/3)%len(ldFloats)]}
			}},
	}
	for _, tab := range tables {
		fields := tab.fields
		if pad {
			fields = append(slices.Clone(fields), Field{Name: "pad", Type: TypeString})
		}
		tbl, err := db.CreateTable(tab.name, fields, "id", TTree)
		if err != nil {
			tb.Fatal(err)
		}
		for lo := 0; lo < tab.rows; lo += 1000 {
			tx := db.Begin()
			for r := lo; r < min(lo+1000, tab.rows); r++ {
				vals := tab.row(r)
				if pad {
					vals = append(vals, Null)
				}
				if err := tx.Insert(tbl, vals...); err != nil {
					tb.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// ldTable returns the stats of one of db's tables.
func ldTable(t *testing.T, db *Database, name string) TableStat {
	t.Helper()
	for _, ts := range db.Stats().Tables {
		if ts.Name == name {
			return ts
		}
	}
	t.Fatalf("no table %s in Stats", name)
	return TableStat{}
}

// ldText renders a value with its exact bits: a NaN's payload and the
// sign of a zero show.
func ldText(v Value) string {
	if v.Type() == TypeFloat {
		return fmt.Sprintf("float:%016x", math.Float64bits(v.Float()))
	}
	return v.Type().String() + ":" + v.String()
}

// ldRows renders a result's rows, sorted unless ordered.
func ldRows(res *Result, ordered bool) []string {
	out := make([]string, res.Len())
	for i := range out {
		cells := res.Row(i)
		parts := make([]string, len(cells))
		for c, v := range cells {
			parts[c] = ldText(v)
		}
		out[i] = strings.Join(parts, " ")
	}
	if !ordered {
		slices.Sort(out)
	}
	return out
}

func TestLayoutDifferential(t *testing.T) {
	cells, values := ldOpen(t, false), ldOpen(t, true)
	for _, tab := range []string{"t", "u"} {
		c, v := ldTable(t, cells, tab), ldTable(t, values, tab)
		if c.BytesPerRow()+48 > v.BytesPerRow() {
			t.Fatalf("table %s: %.0f B a row in cells, %.0f in Values: the two are not stored differently", tab, c.BytesPerRow(), v.BytesPerRow())
		}
	}
	queries := []struct {
		name    string
		ordered bool
		q       func(db *Database) *Query
	}{
		{"filter f > 0", false, func(db *Database) *Query {
			return db.Query("t").Where("f", Gt, Float(0)).Select("id", "i", "f", "b")
		}},
		{"filter i <= 0", false, func(db *Database) *Query {
			return db.Query("t").Where("i", Le, Int(0)).Select("id", "i", "f", "b", "c")
		}},
		{"filter b = true", false, func(db *Database) *Query {
			return db.Query("t").Where("b", Eq, Bool(true)).Select("id", "f")
		}},
		{"filter f = -0", false, func(db *Database) *Query {
			return db.Query("t").Where("f", Eq, Float(math.Copysign(0, -1))).Select("id", "f")
		}},
		{"group by f", false, func(db *Database) *Query {
			return db.Query("t").GroupBy("f").Agg(AggCount, "*").Agg(AggMin, "i").Agg(AggMax, "i").Agg(AggSum, "c")
		}},
		{"group by i", false, func(db *Database) *Query {
			return db.Query("t").GroupBy("i").Agg(AggCount, "*").Agg(AggMin, "f").Agg(AggMax, "f")
		}},
		{"group by b, c", false, func(db *Database) *Query {
			return db.Query("t").GroupBy("b", "c").Agg(AggCount, "*").Agg(AggSum, "i")
		}},
		{"order by f, id", true, func(db *Database) *Query {
			return db.Query("t").Select("id", "f", "i").OrderBy("f", false).OrderBy("id", false)
		}},
		{"order by i desc, b, id", true, func(db *Database) *Query {
			return db.Query("t").Select("id", "i", "b").OrderBy("i", true).OrderBy("b", false).OrderBy("id", false)
		}},
		{"order by c, id desc", true, func(db *Database) *Query {
			return db.Query("t").Select("id", "c").OrderBy("c", false).OrderBy("id", true)
		}},
		{"top 25 by f desc", true, func(db *Database) *Query {
			return db.Query("t").Select("id", "f").OrderBy("f", true).OrderBy("id", false).Limit(25)
		}},
		{"top 10 by i", true, func(db *Database) *Query {
			return db.Query("t").Select("id", "i").OrderBy("i", false).OrderBy("id", false).Limit(10)
		}},
		{"distinct f", false, func(db *Database) *Query { return db.Query("t").Select("f").Distinct() }},
		{"distinct i, b", false, func(db *Database) *Query { return db.Query("t").Select("i", "b").Distinct() }},
		{"distinct c", false, func(db *Database) *Query { return db.Query("t").Select("c").Distinct() }},
		{"join on i", false, func(db *Database) *Query {
			return db.Query("t").Join("u", "i", "k").Select("t.id", "u.id", "t.f", "u.g")
		}},
		{"join on f", false, func(db *Database) *Query {
			return db.Query("t").Join("u", "f", "g").Select("t.id", "u.id", "t.i", "u.k")
		}},
	}
	for _, p := range []int{1, 4} {
		for _, qc := range queries {
			t.Run(fmt.Sprintf("%s/parallel=%d", qc.name, p), func(t *testing.T) {
				var got [2][]string
				for k, db := range []*Database{cells, values} {
					res, err := qc.q(db).Parallel(p).Run()
					if err != nil {
						t.Fatal(err)
					}
					got[k] = ldRows(res, qc.ordered)
				}
				if len(got[0]) == 0 {
					t.Fatal("the query returned no rows")
				}
				if !slices.Equal(got[0], got[1]) {
					i := 0
					for i < min(len(got[0]), len(got[1])) && got[0][i] == got[1][i] {
						i++
					}
					t.Fatalf("cells give %d rows, Values %d; first difference at row %d", len(got[0]), len(got[1]), i)
				}
			})
		}
	}
}
