package mmdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
)

// GROUP BY differential: every grouped query of a seeded generator, under
// every knob that changes how grouped output is built, read, reordered or
// cut, must return what a naive map-plus-sort.Slice evaluator computes
// from the inserted rows — as a multiset, and as a sequence under ORDER BY.

// gdRow is one generated fact row, kept for the reference evaluator.
type gdRow struct {
	id, d      int64
	k, s, v, x Value
}

// gdData is a generated data set: fact(id, k, s, v, x, d) with x a float
// and d a join key into dim(id, g, name).
type gdData struct {
	name string
	fact []gdRow
	dim  [][]Value // id, g, name
}

// gdGenerate builds the data sets: uniform, all-equal and high-NDV keys,
// NULL keys, all-NULL aggregate columns, and empty input. The non-empty
// ones exceed snapshotMinRows, so snapshots-on databases snapshot-scan.
// x holds multiples of 0.5 in [-10, 10], so every float SUM and AVG is
// exact in any order of addition.
func gdGenerate(seed int64) []gdData {
	rng := rand.New(rand.NewSource(seed))
	dim := make([][]Value, 30)
	for i := range dim {
		g := Int(int64(i % 4))
		if i%7 == 0 {
			g = Null
		}
		dim[i] = []Value{Int(int64(i)), g, Str(fmt.Sprintf("n%d", i%9))}
	}
	orNull := func(pct int, v Value) Value {
		if rng.Intn(100) < pct {
			return Null
		}
		return v
	}
	gen := func(name string, n int, row func(i int) (k, s, v, x Value)) gdData {
		d := gdData{name: name, dim: dim, fact: make([]gdRow, n)}
		for i := range d.fact {
			k, s, v, x := row(i)
			d.fact[i] = gdRow{id: int64(i), d: int64(rng.Intn(len(dim) + 5)), k: k, s: s, v: v, x: x}
		}
		return d
	}
	val := func() Value { return orNull(10, Int(int64(rng.Intn(1000)-500))) }
	fval := func() Value { return orNull(10, Float(float64(rng.Intn(41)-20)/2)) }
	return []gdData{
		gen("uniform", 5000, func(int) (Value, Value, Value, Value) {
			return orNull(5, Int(int64(rng.Intn(40)))), Str(fmt.Sprintf("s%02d", rng.Intn(25))), val(), fval()
		}),
		gen("all-equal", 4500, func(int) (Value, Value, Value, Value) {
			return Int(7), Str("same"), val(), fval()
		}),
		gen("high-ndv", 5000, func(i int) (Value, Value, Value, Value) {
			return Int(int64(rng.Intn(1 << 20))), Str(fmt.Sprintf("u%d", i)), val(), fval()
		}),
		gen("null-keys", 4200, func(int) (Value, Value, Value, Value) {
			return orNull(50, Int(int64(rng.Intn(6)))), orNull(30, Str(fmt.Sprintf("s%d", rng.Intn(4)))), val(), fval()
		}),
		gen("all-null-agg", 4100, func(int) (Value, Value, Value, Value) {
			return Int(int64(rng.Intn(12))), Str(fmt.Sprintf("s%d", rng.Intn(5))), Null, Null
		}),
		gen("empty", 0, nil),
	}
}

// gdOpen loads a data set into a database with the given options.
func gdOpen(t *testing.T, opts Options, d gdData) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fact, err := db.CreateTable("fact", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "s", Type: TypeString},
		{Name: "v", Type: TypeInt}, {Name: "x", Type: TypeFloat}, {Name: "d", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := db.CreateTable("dim", []Field{
		{Name: "id", Type: TypeInt}, {Name: "g", Type: TypeInt}, {Name: "name", Type: TypeString},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for _, r := range d.fact {
		if err := tx.Insert(fact, Int(r.id), r.k, r.s, r.v, r.x, Int(r.d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range d.dim {
		if err := tx.Insert(dim, r...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// gdAgg is one aggregate of a generated query.
type gdAgg struct {
	fn  AggFunc
	col string // "" = COUNT(*)
}

// gdQuery is one generated grouped query.
type gdQuery struct {
	name     string
	join     bool // fact JOIN dim ON fact.d = dim.id
	keys     []string
	aggs     []gdAgg
	order    []qorder
	limit    int // -1: none
	distinct bool
	cols     []string // expected output column names
}

func (g gdQuery) build(db *Database) *Query {
	q := db.Query("fact")
	if g.join {
		q = q.Join("dim", "fact.d", "id")
	}
	if len(g.keys) > 0 {
		q = q.GroupBy(g.keys...)
	}
	for _, a := range g.aggs {
		q = q.Agg(a.fn, a.col)
	}
	for _, o := range g.order {
		q = q.OrderBy(o.col, o.desc)
	}
	if g.distinct {
		q = q.Distinct()
	}
	return q.Limit(g.limit)
}

// gdQueries is the query generator's fixed menu: GROUP BY over one table
// and over a join, on int, string and float keys; every aggregate, over an
// int and a float column; ORDER BY a key, an aggregate and an ordinal,
// ascending and descending; LIMIT 0, top-k and unordered cuts; Distinct
// over group output; a repeated aggregate whose output name is made
// unique.
func gdQueries() []gdQuery {
	all := []gdAgg{{AggCount, ""}, {AggCount, "v"}, {AggSum, "v"}, {AggAvg, "v"}, {AggMin, "v"}, {AggMax, "v"},
		{AggSum, "x"}, {AggAvg, "x"}, {AggMin, "x"}, {AggMax, "x"}}
	allCols := []string{"COUNT(*)", "COUNT(v)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(v)", "SUM(x)", "AVG(x)", "MIN(x)", "MAX(x)"}
	cs := []gdAgg{{AggCount, ""}, {AggSum, "v"}}
	return []gdQuery{
		{name: "by k, every aggregate", keys: []string{"k"}, aggs: all, limit: -1, cols: append([]string{"k"}, allCols...)},
		{name: "by s", keys: []string{"s"}, aggs: []gdAgg{{AggCount, ""}, {AggSum, "v"}, {AggMax, "k"}}, limit: -1,
			cols: []string{"s", "COUNT(*)", "SUM(v)", "MAX(k)"}},
		{name: "by k, s", keys: []string{"k", "s"}, aggs: []gdAgg{{AggCount, ""}}, limit: -1, cols: []string{"k", "s", "COUNT(*)"}},
		{name: "global", aggs: all[:1:1], limit: -1, cols: allCols[:1]},
		{name: "global, every aggregate", aggs: all, limit: -1, cols: allCols},
		{name: "join by dim.g", join: true, keys: []string{"dim.g"},
			aggs: []gdAgg{{AggCount, ""}, {AggSum, "fact.v"}, {AggMax, "dim.name"}}, limit: -1,
			cols: []string{"dim.g", "COUNT(*)", "SUM(fact.v)", "MAX(dim.name)"}},
		{name: "join by dim.name, fact.k ordered", join: true, keys: []string{"dim.name", "fact.k"},
			aggs: []gdAgg{{AggAvg, "fact.v"}}, order: []qorder{{col: "dim.name"}, {col: "AVG(fact.v)", desc: true}}, limit: -1,
			cols: []string{"dim.name", "fact.k", "AVG(fact.v)"}},
		{name: "order by key asc", keys: []string{"k"}, aggs: cs, order: []qorder{{col: "k"}}, limit: -1,
			cols: []string{"k", "COUNT(*)", "SUM(v)"}},
		{name: "order by key desc", keys: []string{"s"}, aggs: cs, order: []qorder{{col: "s", desc: true}}, limit: -1,
			cols: []string{"s", "COUNT(*)", "SUM(v)"}},
		{name: "top-5 by aggregate desc", keys: []string{"k"}, aggs: cs, order: []qorder{{col: "COUNT(*)", desc: true}}, limit: 5,
			cols: []string{"k", "COUNT(*)", "SUM(v)"}},
		{name: "top-3 by ordinal, key desc", keys: []string{"s"}, aggs: cs, order: []qorder{{col: "2"}, {col: "s", desc: true}}, limit: 3,
			cols: []string{"s", "COUNT(*)", "SUM(v)"}},
		{name: "full sort by aggregate asc", keys: []string{"k"}, aggs: []gdAgg{{AggSum, "v"}}, order: []qorder{{col: "SUM(v)"}}, limit: -1,
			cols: []string{"k", "SUM(v)"}},
		{name: "top-4 by float aggregate desc", keys: []string{"k"}, aggs: []gdAgg{{AggSum, "x"}, {AggCount, ""}},
			order: []qorder{{col: "SUM(x)", desc: true}, {col: "k"}}, limit: 4, cols: []string{"k", "SUM(x)", "COUNT(*)"}},
		{name: "by float key desc", keys: []string{"x"}, aggs: []gdAgg{{AggCount, ""}, {AggAvg, "v"}}, order: []qorder{{col: "x", desc: true}}, limit: -1,
			cols: []string{"x", "COUNT(*)", "AVG(v)"}},
		{name: "limit 0", keys: []string{"k"}, aggs: cs, limit: 0, cols: []string{"k", "COUNT(*)", "SUM(v)"}},
		{name: "unordered limit", keys: []string{"s"}, aggs: cs, limit: 4, cols: []string{"s", "COUNT(*)", "SUM(v)"}},
		{name: "distinct", keys: []string{"k"}, aggs: []gdAgg{{AggCount, ""}}, distinct: true, limit: -1, cols: []string{"k", "COUNT(*)"}},
		{name: "distinct keys only, ordered top-10", keys: []string{"k", "s"}, distinct: true,
			order: []qorder{{col: "k", desc: true}, {col: "s"}}, limit: 10, cols: []string{"k", "s"}},
		{name: "repeated aggregate", keys: []string{"k"}, aggs: []gdAgg{{AggCount, ""}, {AggAvg, "v"}, {AggAvg, "v"}}, limit: -1,
			cols: []string{"k", "COUNT(*)", "AVG(v)", "AVG(v)_2"}},
	}
}

// gdInput returns the reference evaluator's input rows as column-name →
// value maps, named as the engine resolves them.
func gdInput(d gdData, join bool) []map[string]Value {
	var out []map[string]Value
	for _, f := range d.fact {
		r := map[string]Value{"id": Int(f.id), "k": f.k, "s": f.s, "v": f.v, "x": f.x, "d": Int(f.d)}
		if !join {
			out = append(out, r)
			continue
		}
		for _, dr := range d.dim {
			if dr[0].Int() != f.d {
				continue
			}
			jr := map[string]Value{"dim.id": dr[0], "dim.g": dr[1], "dim.name": dr[2]}
			for c, v := range r {
				jr["fact."+c] = v
			}
			out = append(out, jr)
		}
	}
	return out
}

// gdReference evaluates g naively: a map from the rendered key to the
// group's running state, SQL's NULL rules, then DISTINCT, sort.SliceStable
// over the ORDER BY terms and the LIMIT cut. It returns the full ordered
// result (before LIMIT) and the cut.
func gdReference(d gdData, g gdQuery) (full, cut [][]Value) {
	type state struct {
		key  []Value
		rows int64
		nn   []int64
		sum  []int64
		fsum []float64 // the float inputs' share of sum
		isF  []bool    // a float input was summed: SUM is a float
		ext  []Value   // MIN/MAX so far
	}
	newState := func(key []Value) *state {
		n := len(g.aggs)
		return &state{key: key, nn: make([]int64, n), sum: make([]int64, n), fsum: make([]float64, n), isF: make([]bool, n), ext: make([]Value, n)}
	}
	var order []*state
	groups := map[string]*state{}
	for _, r := range gdInput(d, g.join) {
		key := make([]Value, len(g.keys))
		var sb strings.Builder
		for i, c := range g.keys {
			key[i] = r[c]
			fmt.Fprintf(&sb, "%d:%v|", key[i].Type(), key[i])
		}
		st := groups[sb.String()]
		if st == nil {
			st = newState(key)
			groups[sb.String()] = st
			order = append(order, st)
		}
		st.rows++
		for a, ag := range g.aggs {
			if ag.col == "" {
				continue
			}
			v := r[ag.col]
			if v.IsNull() {
				continue
			}
			st.nn[a]++
			switch ag.fn {
			case AggSum, AggAvg:
				if v.Type() == TypeFloat {
					st.fsum[a] += v.Float()
					st.isF[a] = true
				} else {
					st.sum[a] += v.Int()
				}
			case AggMin:
				if st.nn[a] == 1 || Compare(v, st.ext[a]) < 0 {
					st.ext[a] = v
				}
			case AggMax:
				if st.nn[a] == 1 || Compare(v, st.ext[a]) > 0 {
					st.ext[a] = v
				}
			}
		}
	}
	if len(g.keys) == 0 && len(order) == 0 {
		order = append(order, newState(nil))
	}
	seen := map[string]bool{}
	for _, st := range order {
		row := append([]Value(nil), st.key...)
		for a, ag := range g.aggs {
			switch {
			case ag.fn == AggCount && ag.col == "":
				row = append(row, Int(st.rows))
			case ag.fn == AggCount:
				row = append(row, Int(st.nn[a]))
			case st.nn[a] == 0:
				row = append(row, Null)
			case ag.fn == AggSum && st.isF[a]:
				row = append(row, Float(st.fsum[a]))
			case ag.fn == AggSum:
				row = append(row, Int(st.sum[a]))
			case ag.fn == AggAvg:
				row = append(row, Float((float64(st.sum[a])+st.fsum[a])/float64(st.nn[a])))
			default:
				row = append(row, st.ext[a])
			}
		}
		if g.distinct {
			if seen[gdRender(row)] {
				continue
			}
			seen[gdRender(row)] = true
		}
		full = append(full, row)
	}
	terms := gdOrderCols(g)
	sort.SliceStable(full, func(i, j int) bool {
		for _, o := range terms {
			c := Compare(full[i][o.col], full[j][o.col])
			if o.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	cut = full
	if g.limit >= 0 && len(cut) > g.limit {
		cut = cut[:g.limit]
	}
	return full, cut
}

// gdOrderCols resolves g's ORDER BY terms to output ordinals.
func gdOrderCols(g gdQuery) []struct {
	col  int
	desc bool
} {
	out := make([]struct {
		col  int
		desc bool
	}, len(g.order))
	for i, o := range g.order {
		out[i].desc = o.desc
		if n, ok := parseOrdinal(o.col); ok {
			out[i].col = n - 1
			continue
		}
		out[i].col = -1
		for c, name := range g.cols {
			if name == o.col {
				out[i].col = c
			}
		}
		if out[i].col < 0 {
			panic("gdOrderCols: no output column " + o.col)
		}
	}
	return out
}

func gdRender(row []Value) string {
	var sb strings.Builder
	for _, v := range row {
		fmt.Fprintf(&sb, "%d:%v|", v.Type(), v)
	}
	return sb.String()
}

// gdCheck compares one engine result with the reference: column names;
// the row count; every row drawn from the reference's multiset; the
// complete multiset when nothing cut it; and, under ORDER BY, the
// sequence of ORDER BY keys.
func gdCheck(t *testing.T, what string, g gdQuery, res *Result, full, cut [][]Value) {
	t.Helper()
	if fmt.Sprint(res.Columns()) != fmt.Sprint(g.cols) {
		t.Fatalf("%s: columns %v, want %v", what, res.Columns(), g.cols)
	}
	if res.Len() != len(cut) {
		t.Fatalf("%s: %d rows, want %d", what, res.Len(), len(cut))
	}
	pool := map[string]int{}
	for _, r := range full {
		pool[gdRender(r)]++
	}
	got := make([][]Value, res.Len())
	for i := range got {
		got[i] = res.Row(i)
		k := gdRender(got[i])
		if pool[k] == 0 {
			t.Fatalf("%s: row %d %v is not a reference row (or is one too many)", what, i, got[i])
		}
		pool[k]--
	}
	// Rows drawn without replacement from a multiset of the same size are
	// that multiset, so the loop above already checks an uncut result.
	for i, o := range gdOrderCols(g) {
		for r := range got {
			if !Equal(got[r][o.col], cut[r][o.col]) && !(got[r][o.col].IsNull() && cut[r][o.col].IsNull()) {
				t.Fatalf("%s: ORDER BY term %d at row %d is %v, want %v", what, i, r, got[r][o.col], cut[r][o.col])
			}
		}
	}
}

// TestGroupByDifferential runs the generator's queries over every data set
// under the knob product Parallel(1|4) × MemoryBudget off/128 KiB ×
// snapshots on/off × the ORDER BY sort crossover at its default and at 1
// row (every full sort on the radix-key kernel) against the naive
// reference.
func TestGroupByDifferential(t *testing.T) {
	data := gdGenerate(1986)
	type dbKnobs struct {
		name   string
		opts   Options
		locked bool
	}
	dbs := []dbKnobs{
		{"snapshots", Options{}, false},
		{"locked", Options{}, true},
		{"snapshots+budget", Options{MemoryBudget: 128 << 10}, false},
		{"locked+budget", Options{MemoryBudget: 128 << 10}, true},
	}
	pars := []int{1, 4}
	sortMinRows := []int{0, 1} // tuning.sort.MinRows; 0 = the default
	if testing.Short() {
		dbs = dbs[:2]
	}
	queries := gdQueries()
	for _, d := range data {
		refs := make([][2][][]Value, len(queries))
		for i, g := range queries {
			full, cut := gdReference(d, g)
			refs[i] = [2][][]Value{full, cut}
		}
		for _, k := range dbs {
			db := gdOpen(t, k.opts, d)
			for _, s := range sortMinRows {
				tuned(db, tuning{noSnapshots: k.locked, sort: plan.SortConfig{MinRows: s}})
				for qi, g := range queries {
					for _, p := range pars {
						what := fmt.Sprintf("%s/%s/%s/par=%d/sortMinRows=%d", d.name, k.name, g.name, p, s)
						res, err := g.build(db).Parallel(p).Run()
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if want := !g.join && g.limit != 0 && len(d.fact) >= snapshotMinRows && !k.locked; strings.Contains(res.Plan(), "snapshot scan") != want {
							t.Fatalf("%s: snapshot path = %v, want %v:\n%s", what, !want, want, res.Plan())
						}
						gdCheck(t, what, g, res, refs[qi][0], refs[qi][1])
					}
				}
			}
		}
	}
}
