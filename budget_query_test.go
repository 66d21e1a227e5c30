package mmdb

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestMemoryBudgetJoinMatchesUnbudgeted: a radix join squeezed under a
// budget far smaller than its build tables must degrade (clamp its
// fan-out, re-split fat partitions, reverse roles) yet emit exactly the
// multiset the unbudgeted join emits — the correctness contract of the
// whole defense layer.
func TestMemoryBudgetJoinMatchesUnbudgeted(t *testing.T) {
	const rows = 6000
	mk := func(db *Database) *Query {
		return db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
			Select("a.id", "b.id").Parallel(4)
	}

	free := tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	want, err := mk(free).Run()
	if err != nil {
		t.Fatal(err)
	}

	// A small L2 target makes the unclamped plan want 16+ partitions for
	// the 3000-row build, so the 16KiB budget (floor: 4 partitions) must
	// visibly narrow it.
	tight := tuned(openBig(t, Options{MemoryBudget: 16 << 10}, rows), tuning{radix: plan.RadixConfig{L2Bytes: 4 << 10, MinBuildRows: 1}})
	got, tr, err := mk(tight).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "budgeted-vs-free", multiset(t, want), multiset(t, got))

	var jn *TraceNode
	for _, n := range tr.Root.Children {
		if n.Op == "join" {
			jn = n
		}
	}
	if jn == nil {
		t.Fatalf("no join node in trace:\n%s", tr.Format())
	}
	if jn.GrantBytes <= 0 {
		t.Fatalf("budgeted join reports no grant: %+v", jn)
	}
	if !strings.Contains(tr.Format(), "budget: grant=") {
		t.Fatalf("formatted trace missing budget line:\n%s", tr.Format())
	}
	// 16KiB cannot stage the forced fan-out for a 3000-row build, so the
	// planner must have clamped the bits and audited the clamp.
	found := false
	for _, d := range tr.Decisions {
		if d.Name == "radix budget clamp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no budget-clamp audit in decisions: %+v", tr.Decisions)
	}

	// All grants must drain by end of query: the registry gauge is zero.
	var b strings.Builder
	tight.Metrics().WritePrometheus(&b)
	exp := b.String()
	if !strings.Contains(exp, "mmdb_mem_budget_bytes 16384") {
		t.Fatalf("exposition missing budget gauge:\n%s", exp)
	}
	if !strings.Contains(exp, "mmdb_mem_granted 0\n") {
		t.Fatalf("granted bytes did not drain to zero:\n%s", exp)
	}
}

// TestMemoryBudgetSkewDefenseCounters: a skewed build side under a tight
// budget must trigger at least one defense (reversal or re-split), and
// the engine-level counters must record it.
func TestMemoryBudgetSkewDefenseCounters(t *testing.T) {
	db, err := Open(Options{MemoryBudget: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tuned(db, tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	a, err := db.CreateTable("a", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	// Outer side tiny, inner build side fat and skewed: half the build
	// rows share one key, so role reversal (build the small side) and
	// recursive re-splitting both have something to bite on.
	for i := 0; i < 200; i++ {
		if _, err := a.Insert(Int(int64(i)), Int(int64(i%11))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8000; i++ {
		k := int64(i % 11)
		if i%2 == 0 {
			k = 3
		}
		if _, err := b.Insert(Int(int64(i)), Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	_, tr, err := db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
		Select("a.id", "b.id").Parallel(4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var jn *TraceNode
	for _, n := range tr.Root.Children {
		if n.Op == "join" {
			jn = n
		}
	}
	if jn == nil || jn.Reversed+jn.Resplits == 0 {
		t.Fatalf("tight budget fired no defense: %+v\n%s", jn, tr.Format())
	}
	var sb strings.Builder
	db.Metrics().WritePrometheus(&sb)
	exp := sb.String()
	if strings.Contains(exp, "mmdb_mem_reversals_total 0\n") && strings.Contains(exp, "mmdb_mem_repartitions_total 0\n") {
		t.Fatalf("defense counters not recorded:\n%s", exp)
	}
}

// TestMemoryBudgetGroupBy: grouped aggregation under a budget smaller
// than its worst-case table grant must still produce the unbudgeted
// groups (the grant overcommits as a recorded last resort rather than
// failing), and the group node must carry its grant in the trace.
func TestMemoryBudgetGroupBy(t *testing.T) {
	const rows = 12000
	mk := func(db *Database) *Query {
		return db.Query("b").GroupBy("grp").Agg(AggCount, "*").Agg(AggSum, "id").Parallel(4)
	}
	free := openBig(t, Options{}, rows)
	want, err := mk(free).Run()
	if err != nil {
		t.Fatal(err)
	}
	tight := openBig(t, Options{MemoryBudget: 8 << 10}, rows)
	got, tr, err := mk(tight).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "group-budgeted-vs-free", multiset(t, want), multiset(t, got))
	var gn *TraceNode
	for _, n := range tr.Root.Children {
		if n.Op == "group" {
			gn = n
		}
	}
	if gn == nil || gn.GrantBytes <= 0 {
		t.Fatalf("group node missing grant: %+v\n%s", gn, tr.Format())
	}
	var sb strings.Builder
	tight.Metrics().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "mmdb_mem_granted 0\n") {
		t.Fatalf("group grant did not drain:\n%s", sb.String())
	}
}

// TestBudgetedParallelAggAuditsWhatRan: under a budget that narrows the
// radix plan, a 1-worker GROUP BY and DISTINCT audit the clamp they ran,
// while at 2 workers, which take no radix plan, the GROUP BY names the
// parallel path and neither logs bits it did not use.
func TestBudgetedParallelAggAuditsWhatRan(t *testing.T) {
	db := tuned(openBig(t, Options{MemoryBudget: 16 << 10}, 12000), tuning{agg: plan.AggConfig{MinRows: 2000, L2Bytes: 4 << 10}})
	for _, c := range []struct {
		name string
		q    func() *Query
	}{
		{"group", func() *Query { return db.Query("a").GroupBy("k").Agg(AggCount, "") }},
		{"distinct", func() *Query { return db.Query("a").Select("k").Distinct() }},
	} {
		for _, w := range []int{1, 2} {
			res, tr, err := c.q().Parallel(w).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 97 {
				t.Fatalf("%s w=%d: %d rows, want 97", c.name, w, res.Len())
			}
			var clamps []string
			for _, d := range tr.Decisions {
				if strings.Contains(d.Chosen, "bits=") && d.Name != "radix bits" {
					clamps = append(clamps, d.Name+": "+d.Chosen)
				}
				if d.Name == "agg method" && w > 1 && d.Chosen != "parallel partial agg, 2-partition merge (2 workers)" {
					t.Errorf("%s w=%d: agg method %q, not the path that ran", c.name, w, d.Chosen)
				}
			}
			if w == 1 && len(clamps) == 0 {
				t.Errorf("%s w=1: no budget clamp audited:\n%s", c.name, tr.Format())
			}
			if w > 1 && len(clamps) > 0 {
				t.Errorf("%s w=%d: audits radix bits the parallel path did not use: %v", c.name, w, clamps)
			}
		}
	}
}
