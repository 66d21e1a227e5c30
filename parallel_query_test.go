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

// TestScanCountsEqualAtEveryDegree: a sequential scan records the same
// §3.1 comparisons whatever its degree — none without a WHERE clause, one
// per tuple examined with one — on the snapshot path and on the S-lock
// path alike, so counted work does not depend on the worker count. Its
// trace's rows in and Stats().RowsScanned are the tuples it examined,
// also when a LIMIT ends a filtered scan early.
func TestScanCountsEqualAtEveryDegree(t *testing.T) {
	const rows, limit = 50_000, 100
	// v = id mod 10 is unindexed, so Where("v", Lt, 5) is a scan that keeps
	// half the rows; under LIMIT it examines the ids up to the limit-th
	// match, in primary-key order.
	examined := 0
	for kept := 0; kept < limit; examined++ {
		if examined%10 < 5 {
			kept++
		}
	}
	for _, locked := range []bool{false, true} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		tuned(db, tuning{noSnapshots: locked})
		s, err := db.CreateTable("s", []Field{{Name: "id", Type: TypeInt}, {Name: "v", Type: TypeInt}}, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < rows; i++ {
			if err := tx.Insert(s, Int(int64(i)), Int(int64(i%10))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name          string
			q             func() *Query
			in, out, cmps int
			limited       bool // a LIMIT scan runs serially and takes the S lock
		}{
			{"unfiltered", func() *Query { return db.Query("s") }, rows, rows, 0, false},
			{"filtered", func() *Query { return db.Query("s").Where("v", Lt, Int(5)) }, rows, rows / 2, rows, false},
			{"limit", func() *Query { return db.Query("s").Limit(limit) }, limit, limit, 0, true},
			{"filtered limit", func() *Query { return db.Query("s").Where("v", Lt, Int(5)).Limit(limit) }, examined, limit, examined, true},
		} {
			for _, w := range []int{1, 4} {
				before := db.Stats().RowsScanned
				res, tr, err := c.q().Parallel(w).Analyze()
				if err != nil {
					t.Fatal(err)
				}
				if scanned := db.Stats().RowsScanned - before; scanned != int64(c.in) {
					t.Errorf("locked=%v %s Parallel(%d): RowsScanned grew by %d, want the %d tuples examined",
						locked, c.name, w, scanned, c.in)
				}
				sel := tr.Root.Children[0]
				if sel.Op != "select" {
					t.Fatalf("first trace node is %q, not the selection", sel.Op)
				}
				path := "" // the scan the case must run
				switch {
				case c.limited:
				case !locked:
					path = "snapshot scan"
				case w > 1:
					path = "parallel partition scan"
				}
				if !strings.HasPrefix(sel.AccessPath, path) {
					t.Fatalf("locked=%v %s Parallel(%d) runs %q, not a %s", locked, c.name, w, sel.AccessPath, path)
				}
				if sel.RowsIn != c.in {
					t.Errorf("locked=%v %s Parallel(%d): rows in=%d, want the %d tuples examined",
						locked, c.name, w, sel.RowsIn, c.in)
				}
				if res.Len() != c.out || sel.Ops.Comparisons != int64(c.cmps) {
					t.Errorf("locked=%v %s Parallel(%d) via %q: %d rows and %d comparisons, want %d and %d",
						locked, c.name, w, sel.AccessPath, res.Len(), sel.Ops.Comparisons, c.out, c.cmps)
				}
			}
		}
	}
}
