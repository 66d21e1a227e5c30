package mmdb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
)

// openKeyed builds a(id PK, k, g) with rows tuples: k cycles through keys
// distinct values in a scrambled order and g through seven.
func openKeyed(t testing.TB, opts Options, rows, keys int) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateTable("a", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "k", Type: TypeInt},
		{Name: "g", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if err := tx.Insert(a, Int(int64(i)), Int(int64(i*7919%keys)), Int(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// distinctLine returns the "distinct: …" line of a plan text.
func distinctLine(t *testing.T, plan string) string {
	t.Helper()
	for _, l := range strings.Split(plan, "\n") {
		if strings.HasPrefix(l, "distinct: ") {
			return l
		}
	}
	t.Fatalf("no distinct line in:\n%s", plan)
	return ""
}

// TestExplainNamesExecutedDistinctPath: Explain prints the DISTINCT path
// from the planner the executor runs, so on either side of the aggregation
// crossover, serial or parallel, the planned line is the executed line and
// the trace node's access path.
func TestExplainNamesExecutedDistinctPath(t *testing.T) {
	for _, rows := range []int{1000, 300000} {
		db := openKeyed(t, Options{}, rows, 97)
		for _, par := range []int{1, 4} {
			mk := func() *Query {
				return db.Query("a").Select("k").Distinct().Parallel(par)
			}
			planned, err := mk().Explain()
			if err != nil {
				t.Fatal(err)
			}
			res, tr, err := mk().Analyze()
			if err != nil {
				t.Fatal(err)
			}
			want := estimateNote.ReplaceAllString(distinctLine(t, planned), "")
			if got := distinctLine(t, res.Plan()); got != want {
				t.Fatalf("rows=%d par=%d: Explain says %q, Analyze ran %q", rows, par, want, got)
			}
			for _, n := range tr.Root.Children {
				if n.Op == "distinct" && "distinct: "+n.AccessPath != want {
					t.Fatalf("rows=%d par=%d: trace node path %q, Explain %q", rows, par, n.AccessPath, want)
				}
			}
			if res.Len() != 97 {
				t.Fatalf("rows=%d par=%d: %d distinct rows, want 97", rows, par, res.Len())
			}
		}
	}
}

// TestDistinctQueryMatchesProjectHash: SELECT DISTINCT returns exactly
// what the serial §3.4 operator returns over the same projected rows —
// the same tuples in the same first-occurrence order — below and above
// the 128Ki aggregation crossover, serial and parallel, unbudgeted and
// under a 128 KiB memory budget, for one- and two-column keys.
func TestDistinctQueryMatchesProjectHash(t *testing.T) {
	for _, rows := range []int{12000, 140000} {
		for _, budget := range []int64{0, 128 << 10} {
			db := openKeyed(t, Options{MemoryBudget: budget}, rows, 997)
			for _, par := range []int{1, 4} {
				for _, cols := range [][]string{{"k"}, {"g", "k"}} {
					what := fmt.Sprintf("rows=%d budget=%d par=%d cols=%v", rows, budget, par, cols)
					all, err := db.Query("a").Select(cols...).Parallel(par).Run()
					if err != nil {
						t.Fatal(err)
					}
					want := exec.ProjectHash(all.list, nil)
					got, err := db.Query("a").Select(cols...).Distinct().Parallel(par).Run()
					if err != nil {
						t.Fatal(err)
					}
					if got.Len() != want.Len() {
						t.Fatalf("%s: %d rows, serial operator %d", what, got.Len(), want.Len())
					}
					for i := 0; i < want.Len(); i++ {
						// Compare by primary key: a snapshot scan reads clone tuples.
						if g, w := got.Tuples(i)[0].Field(0).Int(), want.Row(i)[0].Field(0).Int(); g != w {
							t.Fatalf("%s: row %d is tuple id %d, the serial operator keeps id %d", what, i, g, w)
						}
					}
				}
			}
		}
	}
}
