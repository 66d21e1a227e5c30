package mmdb

import (
	"strings"
	"testing"
)

// openBig builds a pair of tables large enough that plan.ChooseWorkers
// actually grants parallel workers (≥ MinRowsPerWorker rows per worker):
// a(id, k) with ~rows tuples and b(id, k, grp) with rows/2. The join
// column k is deliberately un-indexed on both sides so the planner's
// natural choice is the Hash Join: a one-stage pipeline whose probe
// splits across workers.
func openBig(t *testing.T, opts Options, rows int) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateTable("a", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "k", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "k", Type: TypeInt},
		{Name: "grp", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := a.Insert(Int(int64(i)), Int(int64(i%97))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows/2; i++ {
		if _, err := b.Insert(Int(int64(i)), Int(int64(i%97)), Int(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// multiset canonicalizes a result for order-insensitive comparison.
func multiset(t *testing.T, r *Result) map[string]int {
	t.Helper()
	out := map[string]int{}
	for i := 0; i < r.Len(); i++ {
		var sb strings.Builder
		for _, v := range r.Row(i) {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		out[sb.String()]++
	}
	return out
}

func sameMultiset(t *testing.T, what string, a, b map[string]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d distinct rows vs %d", what, len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("%s: row %q count %d vs %d", what, k, v, b[k])
		}
	}
}

// TestParallelQueryMatchesSerial runs the same queries at Parallelism 1
// and N and demands identical result multisets — the end-to-end contract
// of the parallel execution layer.
func TestParallelQueryMatchesSerial(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{}, rows)

	queries := map[string]func() *Query{
		"seqscan": func() *Query {
			return db.Query("a").Where("k", Gt, Int(50)).Select("id", "k")
		},
		"fullscan": func() *Query {
			return db.Query("a").Select("id")
		},
		"hashjoin": func() *Query {
			return db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").Select("a.id", "b.id")
		},
		"distinct": func() *Query {
			return db.Query("a").Select("k").Distinct()
		},
	}
	for name, mk := range queries {
		t.Run(name, func(t *testing.T) {
			serial, err := mk().Parallel(1).Run()
			if err != nil {
				t.Fatal(err)
			}
			par, err := mk().Parallel(4).Run()
			if err != nil {
				t.Fatal(err)
			}
			if par.Len() != serial.Len() {
				t.Fatalf("parallel %d rows, serial %d", par.Len(), serial.Len())
			}
			sameMultiset(t, name, multiset(t, serial), multiset(t, par))
		})
	}

}

// TestParallelAnalyzeReportsWorkers: EXPLAIN ANALYZE must show workers=N
// on the operators that actually ran parallel, and the database-level
// Options.Parallelism default must reach them without a per-query call.
func TestParallelAnalyzeReportsWorkers(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{Parallelism: 4}, rows)

	// Sequential scan + hash join + distinct, all parallel.
	res, tr, err := db.Query("a").Where("k", Gt, Int(-1)).
		Join("b", "k", "k").Select("b.grp").Distinct().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("distinct groups = %d, want 7", res.Len())
	}
	var sel, join, distinct *TraceNode
	for _, n := range tr.Root.Children {
		switch n.Op {
		case "select":
			sel = n
		case "join":
			join = n
		case "distinct":
			distinct = n
		}
	}
	if sel == nil || sel.Workers <= 1 {
		t.Fatalf("select node not parallel: %+v", sel)
	}
	if !strings.Contains(sel.AccessPath, "parallel partition scan") {
		t.Fatalf("select access path = %q", sel.AccessPath)
	}
	if join == nil || join.Workers <= 1 {
		t.Fatalf("join node not parallel: %+v", join)
	}
	if join.AccessPath != "Hash Join" {
		t.Fatalf("join method = %q, want Hash Join", join.AccessPath)
	}
	if distinct == nil || distinct.Workers <= 1 {
		t.Fatalf("distinct node not parallel: %+v", distinct)
	}
	if !strings.Contains(tr.Format(), "workers=") {
		t.Fatalf("formatted trace missing workers=N:\n%s", tr.Format())
	}
	// The folded per-worker counters reached the trace.
	if join.Ops.HashCalls == 0 {
		t.Fatalf("parallel join lost its §3.1 counters: %+v", join.Ops)
	}

	// Parallel(1) pins the serial paths: no workers in the trace.
	_, tr1, err := db.Query("a").Where("k", Gt, Int(-1)).
		Join("b", "k", "k").Select("b.grp").Distinct().Parallel(1).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tr1.Format(), "workers=") {
		t.Fatalf("Parallel(1) trace still shows workers:\n%s", tr1.Format())
	}
}

// TestSmallInputsStaySerial: with parallelism enabled, tiny tables must
// still run the paper's exact serial algorithms (ChooseWorkers caps at
// one worker below MinRowsPerWorker rows).
func TestSmallInputsStaySerial(t *testing.T) {
	db := openBig(t, Options{Parallelism: 8}, 100)
	_, tr, err := db.Query("a").Where("k", Gt, Int(-1)).Join("b", "k", "k").Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Root.Children {
		if n.Workers > 1 {
			t.Fatalf("tiny input ran parallel: %s", n.Line())
		}
	}
}
