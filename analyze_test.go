package mmdb

import (
	"strings"
	"testing"

	"repro/internal/meter"
)

// analyzeTrace runs q.Analyze and returns the trace, failing the test on
// error or a missing tree.
func analyzeTrace(t *testing.T, q *Query) (*Result, *QueryTrace) {
	t.Helper()
	res, tr, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Root == nil || len(tr.Root.Children) == 0 {
		t.Fatalf("Analyze returned no trace: %+v", tr)
	}
	return res, tr
}

// joinNode finds the join operator in a trace, failing if absent.
func joinNode(t *testing.T, tr *QueryTrace) *TraceNode {
	t.Helper()
	for _, n := range tr.Root.Children {
		if n.Op == "join" {
			return n
		}
	}
	t.Fatalf("no join node in trace:\n%s", tr.Format())
	return nil
}

func TestAnalyzeTracePrecomputedJoin(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)

	res, tr := analyzeTrace(t, db.Query("emp").Join("dept", "dept", Self).
		Select("emp.name", "dept.name"))
	if res.Len() != 7 {
		t.Fatalf("rows = %d, want 7", res.Len())
	}
	sel := tr.Root.Children[0]
	if sel.Op != "select" || !strings.Contains(sel.AccessPath, "full scan") {
		t.Fatalf("select node = %+v", sel)
	}
	if sel.RowsIn != 7 || sel.RowsOut != 7 {
		t.Fatalf("select rows = %d/%d, want 7/7", sel.RowsIn, sel.RowsOut)
	}
	jn := joinNode(t, tr)
	if jn.AccessPath != "precomputed join" {
		t.Fatalf("join method = %q, want precomputed join", jn.AccessPath)
	}
	if jn.RowsIn != 7 || jn.RowsOut != 7 {
		t.Fatalf("join rows = %d/%d, want 7/7", jn.RowsIn, jn.RowsOut)
	}
	if tr.Total <= 0 {
		t.Fatal("trace has no total wall time")
	}
	// The engine registry saw the query and its shape.
	s := db.Stats()
	if s.Queries != 1 {
		t.Fatalf("Stats.Queries = %d, want 1", s.Queries)
	}
	if s.QueriesByPlan["full scan→precomputed join"] != 1 {
		t.Fatalf("plan shapes = %+v", s.QueriesByPlan)
	}
	if s.RowsReturned != 7 {
		t.Fatalf("Stats.RowsReturned = %d, want 7", s.RowsReturned)
	}
}

func TestAnalyzeTraceTreeMergeJoin(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)

	// Unfiltered id=id with T Trees on both sides → Tree Merge.
	_, tr := analyzeTrace(t, db.Query("emp").Join("dept", "id", "id"))
	jn := joinNode(t, tr)
	if jn.AccessPath != "Tree Merge join" {
		t.Fatalf("join method = %q, want Tree Merge join\n%s", jn.AccessPath, tr.Format())
	}
	if jn.Ops.NodesVisited == 0 && jn.Ops.Comparisons == 0 {
		t.Fatalf("tree merge recorded no §3.1 work: %+v", jn.Ops)
	}
}

func TestAnalyzeTraceTreeJoin(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)

	// One-row outer against a tree-indexed inner twice its size → the §4
	// Tree Join exception.
	_, tr := analyzeTrace(t, db.Query("emp").
		Where("name", Eq, Str("Vera")).Join("dept", "id", "id"))
	jn := joinNode(t, tr)
	if jn.AccessPath != "Tree Join" {
		t.Fatalf("join method = %q, want Tree Join\n%s", jn.AccessPath, tr.Format())
	}
	if jn.RowsIn != 1 {
		t.Fatalf("join rows in = %d, want 1", jn.RowsIn)
	}
	// The probe of dept's primary T Tree is visible in the registry.
	if got := db.Stats().IndexProbes["T Tree"]; got == 0 {
		t.Fatalf("IndexProbes = %+v, want a T Tree probe", db.Stats().IndexProbes)
	}
}

func TestAnalyzeTraceHashJoin(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)
	if _, err := dept.CreateIndex("by_id_hash", "id", ModLinearHash); err != nil {
		t.Fatal(err)
	}

	// Filtered outer, existing hash index on the inner column → Hash Join
	// probing the existing structure.
	_, tr := analyzeTrace(t, db.Query("emp").
		Where("age", Gt, Int(30)).Join("dept", "id", "id"))
	jn := joinNode(t, tr)
	if jn.AccessPath != "Hash Join" {
		t.Fatalf("join method = %q, want Hash Join\n%s", jn.AccessPath, tr.Format())
	}
	if jn.Ops.HashCalls == 0 {
		t.Fatalf("hash join recorded no hash calls: %+v", jn.Ops)
	}
	if got := db.Stats().IndexProbes["Mod Linear Hash"]; got == 0 {
		t.Fatalf("IndexProbes = %+v, want Mod Linear Hash probes", db.Stats().IndexProbes)
	}
}

func TestAnalyzeDistinctAndProject(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)

	res, tr := analyzeTrace(t, db.Query("emp").Join("dept", "dept", Self).
		Select("dept.name").Distinct())
	if res.Len() != 3 {
		t.Fatalf("distinct depts = %d, want 3", res.Len())
	}
	var ops []string
	for _, n := range tr.Root.Children {
		ops = append(ops, n.Op)
	}
	if got := strings.Join(ops, ","); got != "select,join,project,distinct" {
		t.Fatalf("operator order = %s", got)
	}
	dn := tr.Root.Children[3]
	if dn.RowsIn != 7 || dn.RowsOut != 3 {
		t.Fatalf("distinct rows = %d/%d, want 7/3", dn.RowsIn, dn.RowsOut)
	}
	if dn.Ops.HashCalls == 0 {
		t.Fatalf("distinct recorded no hash calls: %+v", dn.Ops)
	}
	if db.Stats().QueriesByPlan["full scan→precomputed join+distinct"] != 1 {
		t.Fatalf("plan shapes = %+v", db.Stats().QueriesByPlan)
	}
}

// TestSQLExplainAnalyze is the acceptance path: EXPLAIN ANALYZE on a
// two-table indexed join prints an operator tree with per-operator rows,
// wall time, and §3.1 counters, and Stats() reflects the query afterward.
func TestSQLExplainAnalyze(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)
	if _, err := emp.CreateIndex("by_age", "age", TTree); err != nil {
		t.Fatal(err)
	}

	r, err := db.Exec("EXPLAIN ANALYZE SELECT emp.name, dept.name FROM emp JOIN dept ON emp.dept = dept.SELF WHERE age > 30")
	if err != nil {
		t.Fatal(err)
	}
	if r.Result != nil {
		t.Fatal("EXPLAIN ANALYZE should not return a result set")
	}
	for _, want := range []string{
		"executed:",
		"select emp: tree range scan on \"age\"",
		"join emp ⋈ dept: precomputed join",
		"rows in=",
		"wall=",
		"cmp=",
	} {
		if !strings.Contains(r.Plan(), want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, r.Plan())
		}
	}
	s := db.Stats()
	if s.Queries != 1 {
		t.Fatalf("Stats.Queries = %d, want 1", s.Queries)
	}
	if s.QueryLatency.Count != 1 {
		t.Fatalf("latency histogram count = %d, want 1", s.QueryLatency.Count)
	}
	if s.Ops == (meter.Counters{}) {
		t.Fatal("engine ops rollup is empty after an analyzed query")
	}
}

// TestExplainIsSideEffectFree pins the planning/execution split: Explain
// must take no locks, fetch no tuples, and record no metrics.
func TestExplainIsSideEffectFree(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	depts := seedEmpDept(t, emp, dept)
	if _, err := emp.CreateIndex("by_age", "age", TTree); err != nil {
		t.Fatal(err)
	}

	// A writer holds an exclusive lock on emp; Explain must not block on it.
	tx := db.Begin()
	if err := tx.Insert(emp, Str("Zed"), Int(99), Int(30), Ref(depts["Toy"])); err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()

	planned, err := db.Query("emp").Where("age", Gt, Int(30)).
		Join("dept", "id", "id").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planned, "planned") || !strings.Contains(planned, "nothing executed") {
		t.Fatalf("Explain output not labelled as planned:\n%s", planned)
	}
	if !strings.Contains(planned, "tree range scan") {
		t.Fatalf("Explain missing access path:\n%s", planned)
	}
	if !strings.Contains(planned, "runtime may switch methods") {
		t.Fatalf("Explain should flag the estimated outer cardinality:\n%s", planned)
	}
	if got := db.Stats().Queries; got != 0 {
		t.Fatalf("Explain recorded %d queries, want 0", got)
	}

	// On a snapshot-sized table Explain names the snapshot scan, yet takes
	// no lock, moves no epoch and publishes nothing to find out its epoch.
	sdb, tab, _, _ := openSnapTable(t, Options{}, snapshotMinRows)
	for _, q := range []*Query{
		sdb.Query("m").Select("k").Parallel(2),
		sdb.Query("m").Where("v", Eq, Int(0)).Where("k", Lt, Int(50)).Select("id"),
		sdb.Query("m").GroupBy("k").Agg(AggCount, ""),
	} {
		grants, epoch, published := sdb.locks.Stats().Grants, tab.rel.SnapshotEpoch(), tab.rel.Snapshot()
		planned, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if g, e, p := sdb.locks.Stats().Grants, tab.rel.SnapshotEpoch(), tab.rel.Snapshot(); g != grants || e != epoch || p != published {
			t.Fatalf("Explain took %d locks, moved the epoch %d -> %d or the snapshot %p -> %p:\n%s",
				g-grants, epoch, e, published, p, planned)
		}
		if !strings.Contains(accessLine(t, planned), "snapshot scan") {
			t.Fatalf("Explain does not name the snapshot scan:\n%s", planned)
		}
	}
}

// TestDisabledMetrics covers the zero-cost configuration: Stats() is the
// zero snapshot, but Run and Analyze still work (analyze collects its own
// trace independently of the registry).
func TestDisabledMetrics(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{DisableMetrics: true})
	seedEmpDept(t, emp, dept)

	res, tr, err := db.Query("emp").Join("dept", "dept", Self).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("rows = %d, want 7", res.Len())
	}
	if tr == nil || len(tr.Root.Children) == 0 {
		t.Fatal("Analyze must trace even with metrics disabled")
	}
	if s := db.Stats(); s.Queries != 0 || s.TxnBegins != 0 {
		t.Fatalf("disabled Stats = %+v, want zero", s)
	}
	if db.Metrics() != nil {
		t.Fatal("Metrics() should be nil when disabled")
	}
}

// TestStatsLogMetrics checks that a durable database reports log traffic:
// appends with their word counts on write, flushes on commit.
func TestStatsLogMetrics(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{Dir: t.TempDir()})
	seedEmpDept(t, emp, dept)

	s := db.Stats()
	if s.LogAppends == 0 {
		t.Fatal("durable inserts recorded no log appends")
	}
	if s.LogWords == 0 {
		t.Fatal("log appends recorded no words")
	}
	if s.LogFlushes == 0 {
		t.Fatal("commits recorded no log flushes")
	}
}

// TestStatsReflectEngineActivity checks the registry end to end through
// the public API: transactions, queries, and probes all land.
func TestStatsReflectEngineActivity(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)

	before := db.Stats()
	for i := 0; i < 3; i++ {
		if _, err := db.Query("emp").Where("id", Eq, Int(52)).Run(); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	d := db.Stats().Sub(before)
	if d.Queries != 3 {
		t.Fatalf("delta queries = %d, want 3", d.Queries)
	}
	if d.QueriesByPlan["tree lookup"] != 3 {
		t.Fatalf("delta plans = %+v", d.QueriesByPlan)
	}
	if d.TxnBegins != 1 || d.TxnCommits != 1 {
		t.Fatalf("delta txns = begin=%d commit=%d, want 1/1", d.TxnBegins, d.TxnCommits)
	}
	if d.IndexProbes["T Tree"] != 3 {
		t.Fatalf("delta probes = %+v", d.IndexProbes)
	}
}
