package mmdb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
)

// A hot build key — one value on a quarter of the build side's rows —
// must cost O(1) a copy to insert into a flat join table (radix.Table),
// under the radix join and in a pipeline stage table alike. These tests
// hold both to a reference counted from the data and bound the build's
// insert steps (the trace's hprobe) at two a build row.

// hotKey is the value a quarter of every hot-key build side carries.
const hotKey = 7

// hotKeyData is the Go-side copy of the hot-key tables: a(id, k) and
// b(id, k) for the two-relation join, and a star fact(id, h, x, y) over
// hot(id, k), d2(id) and d3(id).
type hotKeyData struct {
	aK, bK     []int64 // a's and b's keys; ids are row numbers
	hotK       []int64
	fH, fX, fY []int64
	d2, d3     int // d2's and d3's row counts; ids are row numbers
}

func newHotKeyData() hotKeyData {
	const n = 1200
	var w hotKeyData
	for i := int64(0); i < n; i++ {
		k, dim := i*31%1000+10, i+100
		if i%4 == 0 {
			k, dim = hotKey, hotKey
		}
		w.bK, w.hotK = append(w.bK, k), append(w.hotK, dim)
	}
	// a holds b's keys permuted (7 is coprime to n), so every radix
	// partition of a is exactly as large as b's: the budgeted join never
	// reverses roles, and b is the side every build reads.
	for j := 0; j < n; j++ {
		w.aK = append(w.aK, w.bK[j*7%n])
	}
	w.d2, w.d3 = 300, 60
	for i := int64(0); i < 3000; i++ {
		h := i%1300 + 100
		if i%500 == 0 {
			h = hotKey
		}
		w.fH, w.fX, w.fY = append(w.fH, h), append(w.fX, i%int64(w.d2)), append(w.fY, i%int64(w.d3))
	}
	return w
}

// open loads the data into a fresh database.
func (w hotKeyData) open(t *testing.T, opts Options) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	create := func(name string, cols ...string) *Table {
		fields := make([]Field, len(cols))
		for i, c := range cols {
			fields[i] = Field{Name: c, Type: TypeInt}
		}
		tb, err := db.CreateTable(name, fields, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	fill := func(tb *Table, n int, row func(i int) []Value) {
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if err := tx.Insert(tb, row(i)...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	keyed := func(keys []int64) func(int) []Value {
		return func(i int) []Value { return []Value{Int(int64(i)), Int(keys[i])} }
	}
	idOnly := func(i int) []Value { return []Value{Int(int64(i))} }
	fill(create("a", "id", "k"), len(w.aK), keyed(w.aK))
	fill(create("b", "id", "k"), len(w.bK), keyed(w.bK))
	fill(create("hot", "id", "k"), len(w.hotK), keyed(w.hotK))
	fill(create("d2", "id"), w.d2, idOnly)
	fill(create("d3", "id"), w.d3, idOnly)
	fill(create("fact", "id", "h", "x", "y"), len(w.fH), func(i int) []Value {
		return []Value{Int(int64(i)), Int(w.fH[i]), Int(w.fX[i]), Int(w.fY[i])}
	})
	return db
}

// rowsByKey maps each key to the row numbers that hold it.
func rowsByKey(keys []int64) map[int64][]int {
	m := map[int64][]int{}
	for i, k := range keys {
		m[k] = append(m[k], i)
	}
	return m
}

// TestHotKeyRadixJoin: a ⋈ b where b's hot key is on a quarter of its
// rows, through the radix join at one and four workers, with the budget
// off and at 128 KiB.
func TestHotKeyRadixJoin(t *testing.T) {
	w := newHotKeyData()
	want := map[string]int{}
	byKey := rowsByKey(w.bK)
	for i, k := range w.aK {
		for _, j := range byKey[k] {
			want[fmt.Sprintf("%d|%d|", i, j)]++
		}
	}
	for _, budget := range []int64{0, 128 << 10} {
		db := tuned(w.open(t, Options{MemoryBudget: budget}), tuning{radix: plan.RadixConfig{MinBuildRows: 64}})
		for _, par := range []int{1, 4} {
			what := fmt.Sprintf("budget=%d par=%d", budget, par)
			res, tr, err := db.Query("a").Join("b", "k", "k").Select("a.id", "b.id").
				Parallel(par).Analyze()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !strings.Contains(res.Plan(), "join a ⋈ b: Radix Hash Join") {
				t.Fatalf("%s: not the radix join\n%s", what, res.Plan())
			}
			if diff := multisetDiff(want, multiset(t, res)); diff != "" {
				t.Fatalf("%s: %s", what, diff)
			}
			jn := joinNode(t, tr)
			if jn.Reversed != 0 {
				t.Fatalf("%s: %d partition pairs reversed; every build must read b", what, jn.Reversed)
			}
			perRow := float64(jn.Ops.HashProbes) / float64(len(w.bK))
			t.Logf("%s: hprobe %d, %.2f a build row", what, jn.Ops.HashProbes, perRow)
			if perRow == 0 || perRow > 2 {
				t.Fatalf("%s: %.2f insert steps a build row, want (0, 2]\n%s", what, perRow, tr.Format())
			}
		}
	}
}

// TestHotKeyStarPipeline: a 3-stage star whose dimension hot carries the
// hot key on a quarter of its rows, so its stage table chains them.
func TestHotKeyStarPipeline(t *testing.T) {
	w := newHotKeyData()
	want := map[string]int{}
	byKey := rowsByKey(w.hotK)
	for i, h := range w.fH {
		for _, j := range byKey[h] {
			want[fmt.Sprintf("%d|%d|%d|%d|", i, j, w.fX[i], w.fY[i])]++
		}
	}
	built := len(w.hotK) + w.d2 + w.d3
	db := w.open(t, Options{})
	for _, par := range []int{1, 4} {
		what := fmt.Sprintf("par=%d", par)
		res, tr, err := db.Query("fact").Join("hot", "h", "k").Join("d2", "x", "id").Join("d3", "y", "id").
			Select("fact.id", "hot.id", "d2.id", "d3.id").Parallel(par).Analyze()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		plan := res.Plan()
		if !strings.Contains(plan, "join order: fact ⋈") || !strings.Contains(plan, "join ⋈ hot: hash probe (built table)") {
			t.Fatalf("%s: hot is not a built stage table under a fact driver\n%s", what, plan)
		}
		if diff := multisetDiff(want, multiset(t, res)); diff != "" {
			t.Fatalf("%s: %s", what, diff)
		}
		jn := joinNode(t, tr)
		perRow := float64(jn.Ops.HashProbes) / float64(built)
		t.Logf("%s: hprobe %d, %.2f a build row", what, jn.Ops.HashProbes, perRow)
		if perRow == 0 || perRow > 2 {
			t.Fatalf("%s: %.2f insert steps a build row, want (0, 2]\n%s", what, perRow, tr.Format())
		}
	}
}
