package mmdb

import (
	"fmt"
	"strings"
	"testing"
)

// Every join of two relations runs through one runner: the §4 choice
// between the from-table (driver) and the joined table (build side),
// executed as Tree Merge, Tree Join, the radix join or a one-stage
// pipeline. These tests hold every shape the planner can pick to a
// nested-loop reference, under every knob that changes how it runs, and
// hold Explain to the method the executor runs.

// nullKey marks a NULL key in twoWayData. Under SQL a NULL key equals
// nothing, not even another NULL, so the reference never matches it.
const nullKey = int64(-1 << 62)

// twoWayCol is one side of a reference join: row ids and join keys.
type twoWayCol struct{ ids, keys []int64 }

// twoWayData is the Go-side copy of the differential's tables:
// f(id, k, t, ref→d) with a T Tree on t, d(id, k, h) with a hash index
// on h, and s(id, k).
type twoWayData struct {
	fID, fK, fT, fRef []int64 // fRef: row index into d, or nullKey
	dID, dK, dH       []int64
	sID, sK           []int64
}

func newTwoWayData() twoWayData {
	var w twoWayData
	for i := int64(0); i < 6000; i++ {
		k, ref := i*7%1000, i*13%3000
		if i%37 == 0 {
			k = nullKey
		}
		if i%11 == 0 {
			ref = nullKey
		}
		w.fID, w.fK, w.fT, w.fRef = append(w.fID, i), append(w.fK, k), append(w.fT, i%2000), append(w.fRef, ref)
	}
	for i := int64(0); i < 3000; i++ {
		k := i % 1000
		if i%50 == 0 {
			k = nullKey
		}
		w.dID, w.dK, w.dH = append(w.dID, i), append(w.dK, k), append(w.dH, i%1500)
	}
	for i := int64(0); i < 600; i++ {
		w.sID, w.sK = append(w.sID, i), append(w.sK, i*13%3500)
	}
	return w
}

// keyValue turns a reference key into the stored value.
func keyValue(k int64) Value {
	if k == nullKey {
		return Null
	}
	return Int(k)
}

// open loads the data into a fresh database.
func (w twoWayData) open(t testing.TB, opts Options) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.CreateTable("d", []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "h", Type: TypeInt}}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	f, err := db.CreateTable("f", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "t", Type: TypeInt},
		{Name: "ref", Type: TypeRef, ForeignKey: "d"},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateTable("s", []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := range w.dID {
		if err := tx.Insert(d, Int(w.dID[i]), keyValue(w.dK[i]), Int(w.dH[i])); err != nil {
			t.Fatal(err)
		}
	}
	dRows, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	for i := range w.fID {
		ref := Null
		if w.fRef[i] != nullKey {
			ref = Ref(dRows[w.fRef[i]])
		}
		if err := tx.Insert(f, Int(w.fID[i]), keyValue(w.fK[i]), Int(w.fT[i]), ref); err != nil {
			t.Fatal(err)
		}
	}
	for i := range w.sID {
		if err := tx.Insert(s, Int(w.sID[i]), Int(w.sK[i])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateIndex("f_t", "t", TTree); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateIndex("d_h", "h", ModLinearHash); err != nil {
		t.Fatal(err)
	}
	return db
}

// nestedLoop is the reference join: every (outer id, inner id) pair whose
// keys are equal and not NULL, over the outer rows keep admits, in
// multiset's format.
func nestedLoop(outer, inner twoWayCol, keep func(i int) bool) map[string]int {
	out := map[string]int{}
	for i, key := range outer.keys {
		if !keep(i) || key == nullKey {
			continue
		}
		for j, innerKey := range inner.keys {
			if key == innerKey {
				out[fmt.Sprintf("%d|%d|", outer.ids[i], inner.ids[j])]++
			}
		}
	}
	return out
}

// twoWayShape is one two-relation join the planner can pick a method for.
type twoWayShape struct {
	name  string
	head  string // the plan line's prefix: "join f ⋈ d: "
	query func(db *Database) *Query
	ref   map[string]int
	limit int // > 0: the query's LIMIT, checked as a row count
	// method names what runs; radixSized is whether the database's
	// crossover makes the build radix-sized.
	method func(radixSized bool) string
}

func twoWayShapes(w twoWayData) []twoWayShape {
	all := func(int) bool { return true }
	fixed := func(m string) func(bool) string {
		return func(bool) string { return m }
	}
	builds := func(radixSized bool) string {
		if radixSized {
			return "Radix Hash Join"
		}
		return "Hash Join"
	}
	dIdentity := twoWayCol{ids: w.dID, keys: make([]int64, len(w.dID))}
	for i := range dIdentity.keys {
		dIdentity.keys[i] = int64(i)
	}
	fk := twoWayCol{ids: w.fID, keys: w.fK}
	dk := twoWayCol{ids: w.dID, keys: w.dK}
	fd := func(q *Query) *Query { return q.Select("f.id", "d.id") }
	return []twoWayShape{
		{name: "ref-deref", head: "join f ⋈ d: ", method: fixed("precomputed join"),
			query: func(db *Database) *Query { return fd(db.Query("f").Join("d", "ref", Self)) },
			ref:   nestedLoop(twoWayCol{ids: w.fID, keys: w.fRef}, dIdentity, all)},
		{name: "tree-merge", head: "join f ⋈ d: ", method: fixed("Tree Merge join"),
			query: func(db *Database) *Query { return fd(db.Query("f").Join("d", "t", "id")) },
			ref:   nestedLoop(twoWayCol{ids: w.fID, keys: w.fT}, twoWayCol{ids: w.dID, keys: w.dID}, all)},
		{name: "tree-join", head: "join s ⋈ d: ", method: fixed("Tree Join"),
			query: func(db *Database) *Query { return db.Query("s").Join("d", "k", "id").Select("s.id", "d.id") },
			ref:   nestedLoop(twoWayCol{ids: w.sID, keys: w.sK}, twoWayCol{ids: w.dID, keys: w.dID}, all)},
		{name: "hash-index", head: "join f ⋈ d: ", method: fixed("Hash Join"),
			query: func(db *Database) *Query { return fd(db.Query("f").Join("d", "k", "h")) },
			ref:   nestedLoop(fk, twoWayCol{ids: w.dID, keys: w.dH}, all)},
		{name: "built-table", head: "join f ⋈ d: ", method: builds,
			query: func(db *Database) *Query { return fd(db.Query("f").Join("d", "k", "k")) },
			ref:   nestedLoop(fk, dk, all)},
		{name: "filtered", head: "join f ⋈ d: ", method: builds,
			query: func(db *Database) *Query { return fd(db.Query("f").Where("id", Lt, Int(4500)).Join("d", "k", "k")) },
			ref:   nestedLoop(fk, dk, func(i int) bool { return w.fID[i] < 4500 })},
		{name: "limit", head: "join f ⋈ d: ", method: fixed("Hash Join"), limit: 25,
			query: func(db *Database) *Query { return fd(db.Query("f").Join("d", "k", "k")).Limit(25) },
			ref:   nestedLoop(fk, dk, all)},
	}
}

// joinMethodIn returns the method named on text's line that starts with
// head, up to any parenthesized note.
func joinMethodIn(t *testing.T, text, head string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, head); ok {
			m, _, _ := strings.Cut(rest, " (")
			return m
		}
	}
	t.Fatalf("no %q line in:\n%s", head, text)
	return ""
}

// TestTwoRelationJoinDifferential runs every two-relation shape — a Ref
// dereference, Tree Merge, Tree Join, an existing hash index, a built
// table, the radix join (a lowered crossover), a filtered from-table and
// a LIMIT, over duplicate and NULL keys — under the default and a lowered
// radix crossover × Parallel(1)/(4) × MemoryBudget off/128 KiB. Every result
// must equal the nested-loop reference (a LIMIT result: the right number
// of reference rows), Explain must name the method the executor ran, and
// no two-relation join may consult the order planner's statistics.
func TestTwoRelationJoinDifferential(t *testing.T) {
	w := newTwoWayData()
	shapes := twoWayShapes(w)
	for _, s := range shapes {
		if len(s.ref) == 0 {
			t.Fatalf("%s: the reference is empty, the shape tests nothing", s.name)
		}
	}
	ran := map[string]bool{}
	for _, budget := range []int64{0, 128 << 10} {
		for _, radixSized := range []bool{false, true} {
			var tu tuning
			if radixSized {
				tu.radix.MinBuildRows = 1000 // d's 3000 rows are past it
			}
			db := tuned(w.open(t, Options{MemoryBudget: budget}), tu)
			for _, s := range shapes {
				for _, par := range []int{1, 4} {
					what := fmt.Sprintf("%s budget=%d radixSized=%v par=%d", s.name, budget, radixSized, par)
					planned, err := s.query(db).Parallel(par).Explain()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					res, err := s.query(db).Parallel(par).Run()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					executed := joinMethodIn(t, res.Plan(), s.head)
					if want := s.method(radixSized); executed != want {
						t.Fatalf("%s: ran %s, want %s\n%s", what, executed, want, res.Plan())
					}
					if explained := joinMethodIn(t, planned, s.head); explained != executed {
						t.Fatalf("%s: Explain names %s, the executor ran %s\n%s", what, explained, executed, planned)
					}
					ran[executed] = true
					got := multiset(t, res)
					if s.limit == 0 {
						if diff := multisetDiff(s.ref, got); diff != "" {
							t.Fatalf("%s: %s", what, diff)
						}
						continue
					}
					if res.Len() != s.limit {
						t.Fatalf("%s: LIMIT %d returned %d rows", what, s.limit, res.Len())
					}
					for row, n := range got {
						if n > s.ref[row] {
							t.Fatalf("%s: LIMIT row %q %d times, reference %d", what, row, n, s.ref[row])
						}
					}
				}
			}
			for _, name := range []string{"f", "d", "s"} {
				tb, _ := db.Table(name)
				if _, ok, _ := tb.rel.CachedStats(); ok {
					t.Fatalf("a two-relation join took statistics of %s: the order planner ran", name)
				}
			}
		}
	}
	for _, m := range []string{"precomputed join", "Tree Merge join", "Tree Join", "Hash Join", "Radix Hash Join"} {
		if !ran[m] {
			t.Errorf("no shape ran %s", m)
		}
	}
}

// TestTwoRelationHashJoinStages: a Hash Join probes an existing hash
// index in place, serially whatever the requested parallelism (a probe
// costs O(outer); a parallel build would cost O(inner)), and otherwise
// builds a pooled table that a parallel run splits.
func TestTwoRelationHashJoinStages(t *testing.T) {
	db := newTwoWayData().open(t, Options{})
	for _, c := range []struct {
		par     int
		on      string
		stage   string // the pipeline stage's plan line
		workers int    // the join node's workers
	}{
		{1, "h", "join ⋈ d: hash probe (Mod Linear Hash index)", 1},
		{4, "h", "join ⋈ d: hash probe (Mod Linear Hash index)", 1},
		{4, "k", "join ⋈ d: hash probe (built table)", 4},
	} {
		res, tr, err := db.Query("f").Join("d", "k", c.on).Parallel(c.par).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if plan := res.Plan(); !strings.Contains(plan, c.stage) {
			t.Errorf("par %d on %s: plan lacks %q\n%s", c.par, c.on, c.stage, plan)
		}
		if jn := joinNode(t, tr); max(jn.Workers, 1) != c.workers {
			t.Errorf("par %d on %s: join ran on %d workers, want %d: %s",
				c.par, c.on, jn.Workers, c.workers, jn.Line())
		}
	}
}
