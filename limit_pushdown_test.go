package mmdb

import (
	"strings"
	"testing"
)

// limitDB: emp(id pk, grp int indexed, val int) with 400 rows, plus a
// small grp dimension table for join paths.
func limitDB(t testing.TB) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := db.CreateTable("emp", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "grp", Type: TypeInt},
		{Name: "val", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emp.CreateIndex("ix_emp_grp", "grp", TTree); err != nil {
		t.Fatal(err)
	}
	grp, err := db.CreateTable("grp", []Field{
		{Name: "gid", Type: TypeInt},
		{Name: "label", Type: TypeString},
	}, "gid", TTree)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for g := int64(0); g < 20; g++ {
		if err := tx.Insert(grp, Int(g), Str("g")); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 400; i++ {
		if err := tx.Insert(emp, Int(i), Int(i%20), Int(i*3%97)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// idSet collects result column 0 into a set.
func idSet(res *Result) map[int64]bool {
	out := map[int64]bool{}
	for i := 0; i < res.Len(); i++ {
		out[res.Row(i)[0].Int()] = true
	}
	return out
}

// TestLimitEquivalence: for every query path, LIMIT k returns exactly
// min(k, full) rows and each returned row belongs to the unlimited
// result — the definition of a correct (unordered) LIMIT pushdown.
func TestLimitEquivalence(t *testing.T) {
	db := limitDB(t)
	paths := []struct {
		name  string
		build func() *Query
	}{
		{"full scan", func() *Query { return db.Query("emp") }},
		{"indexed pred", func() *Query { return db.Query("emp").Where("grp", Eq, Int(3)) }},
		{"residual pred", func() *Query { return db.Query("emp").Where("val", Gt, Int(10)) }},
		{"join", func() *Query { return db.Query("emp").Join("grp", "grp", "gid") }},
		{"join+pred", func() *Query {
			return db.Query("emp").Where("val", Gt, Int(5)).Join("grp", "grp", "gid")
		}},
		{"distinct", func() *Query { return db.Query("emp").Select("grp").Distinct() }},
		{"group", func() *Query { return db.Query("emp").GroupBy("grp").Agg(AggCount, "") }},
	}
	for _, p := range paths {
		full, err := p.build().Run()
		if err != nil {
			t.Fatalf("%s unlimited: %v", p.name, err)
		}
		fullSet := idSet(full)
		for _, k := range []int{0, 1, 3, full.Len(), full.Len() + 10} {
			res, err := p.build().Limit(k).Run()
			if err != nil {
				t.Fatalf("%s limit %d: %v", p.name, k, err)
			}
			want := k
			if want > full.Len() {
				want = full.Len()
			}
			if res.Len() != want {
				t.Fatalf("%s limit %d: %d rows, want %d", p.name, k, res.Len(), want)
			}
			got := idSet(res)
			if len(got) != want {
				t.Fatalf("%s limit %d: duplicate rows in limited output", p.name, k)
			}
			for id := range got {
				if !fullSet[id] {
					t.Fatalf("%s limit %d: row %d not in the unlimited result", p.name, k, id)
				}
			}
		}
	}
}

// TestLimitEarlyExit: a pushed-down LIMIT stops the producing operator —
// the trace's RowsOut equals the limit, not the full cardinality, and
// the plan says where the limit went.
func TestLimitEarlyExit(t *testing.T) {
	db := limitDB(t)

	// Selection path: the scan stops at k rows.
	res, tr, err := db.Query("emp").Limit(5).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("rows=%d, want 5", res.Len())
	}
	sel := tr.Root.Children[0]
	if sel.Op != "select" || sel.RowsOut != 5 {
		t.Fatalf("select node %+v, want RowsOut=5", sel)
	}
	if !strings.Contains(sel.AccessPath, "early exit at LIMIT 5") {
		t.Fatalf("access path %q lacks early-exit marker", sel.AccessPath)
	}
	if !strings.Contains(res.Plan(), "limit: 5 pushed into selection") {
		t.Fatalf("plan:\n%s", res.Plan())
	}

	// Predicate scan path: the residual filter stops at k survivors.
	res, tr, err = db.Query("emp").Where("val", Gt, Int(10)).Limit(4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 || tr.Root.Children[0].RowsOut != 4 {
		t.Fatalf("rows=%d select out=%d, want 4/4", res.Len(), tr.Root.Children[0].RowsOut)
	}

	// Join path: the join emitter stops at k matches instead of building
	// the full 400-row result.
	res, tr, err = db.Query("emp").Join("grp", "grp", "gid").Limit(7).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("join rows=%d, want 7", res.Len())
	}
	var join *TraceNode
	for _, n := range tr.Root.Children {
		if n.Op == "join" {
			join = n
		}
	}
	if join == nil || join.RowsOut != 7 {
		t.Fatalf("join node %+v, want RowsOut=7\n%s", join, tr.Format())
	}
	if !strings.Contains(res.Plan(), "limit: 7 pushed into join (early exit)") {
		t.Fatalf("plan:\n%s", res.Plan())
	}
}

// TestLimitZeroEveryPath: LIMIT 0 yields zero rows on every path — the
// SQL bug this PR fixes (0 used to mean "no limit" below the truncate).
func TestLimitZeroEveryPath(t *testing.T) {
	db := limitDB(t)
	stmts := []string{
		`SELECT * FROM emp LIMIT 0`,
		`SELECT * FROM emp WHERE grp = 3 LIMIT 0`,
		`SELECT * FROM emp WHERE val > 10 LIMIT 0`,
		`SELECT emp.id FROM emp JOIN grp ON emp.grp = grp.gid LIMIT 0`,
		`SELECT DISTINCT grp FROM emp LIMIT 0`,
		`SELECT grp, COUNT(*) FROM emp GROUP BY grp LIMIT 0`,
		`SELECT COUNT(*) FROM emp LIMIT 0`,
		`SELECT * FROM emp ORDER BY val DESC LIMIT 0`,
	}
	for _, s := range stmts {
		r, err := db.Exec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.Result.Len() != 0 || r.RowsAffected != 0 {
			t.Fatalf("%s: %d rows, want 0", s, r.Result.Len())
		}
	}
}

// TestSQLLimitPushdown: the SQL layer threads LIMIT into the plan rather
// than truncating after the fact.
func TestSQLLimitPushdown(t *testing.T) {
	db := limitDB(t)
	r, err := db.Exec(`SELECT * FROM emp LIMIT 6`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Len() != 6 {
		t.Fatalf("rows=%d, want 6", r.Result.Len())
	}
	if !strings.Contains(r.Plan(), "limit: 6 pushed into selection") {
		t.Fatalf("plan:\n%s", r.Plan())
	}
}
