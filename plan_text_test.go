package mmdb

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
)

// accessLine returns the "access <table>: …" line of a plan text.
func accessLine(t *testing.T, plan string) string {
	t.Helper()
	for _, l := range strings.Split(plan, "\n") {
		if strings.HasPrefix(l, "access ") {
			return l
		}
	}
	t.Fatalf("no access line in:\n%s", plan)
	return ""
}

// estimateNote matches the note Explain adds to a line it planned on a
// catalog estimate rather than on the live size the executor sees.
var estimateNote = regexp.MustCompile(` \([^()]*estimated ≤ [0-9]+ rows[^()]*\)$`)

// phasePrefix is the plan-line prefix of a phase's trace node: the node's
// access path completes the line.
func phasePrefix(n *TraceNode) string {
	switch n.Op {
	case "select":
		return "access " + n.Detail + ": "
	case "group", "distinct", "order":
		return n.Op + ": "
	}
	return ""
}

// TestExplainMatchesExecutedPlan: Explain calls each phase's planner on
// catalog estimates and the executor calls it on live sizes, so over an
// unfiltered from-table every line Explain prints after its header, with
// its estimate notes stripped, is the line Result.Plan records — scan,
// GROUP BY, DISTINCT (hashed or sort-scanned), ORDER BY, top-k, LIMIT,
// two-relation joins and a star's pipeline stages, serial and parallel,
// on either side of the snapshot, aggregation and radix crossovers. Over
// a filtered one the access lines agree. Each phase's trace node carries
// its line's access path.
func TestExplainMatchesExecutedPlan(t *testing.T) {
	check := func(what string, mk func() *Query, filtered bool) (executed string) {
		t.Helper()
		planned, err := mk().Explain()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		res, tr, err := mk().Analyze()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, want := strings.Split(planned, "\n")[1:], strings.Split(res.Plan(), "\n")
		for i := range got {
			got[i] = estimateNote.ReplaceAllString(got[i], "")
		}
		if filtered {
			got, want = []string{accessLine(t, planned)}, []string{accessLine(t, res.Plan())}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Explain planned\n%s\nthe executor ran\n%s", what, planned, res.Plan())
		}
		for _, n := range tr.Root.Children {
			if p := phasePrefix(n); p != "" && !strings.Contains(res.Plan(), p+n.AccessPath) {
				t.Errorf("%s: trace node %q is not on a plan line:\n%s", what, n.Line(), res.Plan())
			}
		}
		return res.Plan()
	}

	sizes := []int{1000, 300000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, rows := range sizes {
		db := openKeyed(t, Options{}, rows, 97)
		a := func() *Query { return db.Query("a") }
		shapes := []struct {
			name     string
			filtered bool
			q        func() *Query
		}{
			{"full scan", false, func() *Query { return a().Select("k") }},
			{"filtered scan", true, func() *Query { return a().Where("g", Eq, Int(3)).Where("id", Ne, Int(5)).Select("k") }},
			{"group by", false, func() *Query { return a().GroupBy("k").Agg(AggCount, "") }},
			{"distinct", false, func() *Query { return a().Select("k").Distinct() }},
			{"order by", false, func() *Query { return a().Select("id", "k").OrderBy("id", true) }},
			{"order by limit", false, func() *Query { return a().Select("id").OrderBy("id", true).Limit(10) }},
			{"limit", false, func() *Query { return a().Select("k").Limit(10) }},
		}
		for _, par := range []int{1, 4} {
			for _, s := range shapes {
				what := fmt.Sprintf("%s @ %d rows par=%d", s.name, rows, par)
				executed := check(what, func() *Query { return s.q().Parallel(par) }, s.filtered)
				snapshot := rows >= snapshotMinRows && s.name != "limit"
				if strings.Contains(accessLine(t, executed), "snapshot scan") != snapshot {
					t.Errorf("%s: snapshot path = %v, want %v:\n%s", what, !snapshot, snapshot, executed)
				}
			}
		}
	}

	w := newTwoWayData()
	for _, radixSized := range []bool{false, true} {
		var tu tuning
		if radixSized {
			tu.radix.MinBuildRows = 1000 // d's 3000 rows are past it
		}
		db := tuned(w.open(t, Options{}), tu)
		for _, par := range []int{1, 4} {
			for _, on := range []string{"k", "h"} { // a built table or the radix join; the hash index
				what := fmt.Sprintf("f ⋈ d on %s radixSized=%v par=%d", on, radixSized, par)
				check(what, func() *Query { return db.Query("f").Join("d", "k", on).Parallel(par) }, false)
			}
			check(fmt.Sprintf("filtered f ⋈ d radixSized=%v par=%d", radixSized, par), func() *Query {
				return db.Query("f").Where("id", Lt, Int(4500)).Join("d", "k", "k").Parallel(par)
			}, true)
		}
	}
	star := openStar4(t, 500)
	for _, par := range []int{1, 4} {
		check(fmt.Sprintf("star par=%d", par), func() *Query { return starQuery(star).Parallel(par) }, false)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/executed_plans.golden from this build")

// unrepeatable matches what no two runs of a trace share: wall times, the
// scheduler line (pool workers steal a one-worker set's morsels too, and
// a set may or may not wait) and the arena allocations a warm or cold
// pool saves or pays, which a counter list omits when they are zero.
var unrepeatable = regexp.MustCompile(`(?m)^sched: .*\n|[0-9][0-9.]*(ns|µs|ms|s)\b| alloc=[0-9]+|\[alloc=[0-9]+ `)

// maskTrace drops or masks the unrepeatable parts of a formatted trace.
func maskTrace(s string) string {
	return unrepeatable.ReplaceAllStringFunc(s, func(m string) string {
		switch {
		case strings.HasPrefix(m, "sched: "), strings.HasPrefix(m, " alloc="):
			return ""
		case strings.HasPrefix(m, "[alloc="):
			return "["
		}
		return "<…>"
	})
}

// namedQuery is one query of executedPlanQueries.
type namedQuery struct {
	name string
	q    func() *Query
}

// executedPlanQueries builds the databases and the queries that cover
// every phase and join method: TestExecutedPlanGolden pins their traces,
// TestStatsDeltaMatchesTrace their counters.
func executedPlanQueries(t *testing.T) []namedQuery {
	single := tuned(openKeyed(t, Options{}, 6000, 97), tuning{agg: plan.AggConfig{MinRows: 2000}})
	w := newTwoWayData()
	joins := w.open(t, Options{})
	radixJoins := tuned(w.open(t, Options{}), tuning{radix: plan.RadixConfig{MinBuildRows: 1000}})
	budgeted := tuned(w.open(t, Options{MemoryBudget: 16 << 10}), tuning{radix: plan.RadixConfig{MinBuildRows: 1000}, agg: plan.AggConfig{MinRows: 2000}})
	star := openStar4(t, 500)
	a := func() *Query { return single.Query("a") }
	fd := func(db *Database, on string) *Query {
		return db.Query("f").Join("d", on, "k").Select("f.id", "d.id")
	}
	return []namedQuery{
		{"snapshot group", func() *Query { return a().GroupBy("k").Agg(AggCount, "").Agg(AggSum, "g") }},
		{"snapshot filter", func() *Query { return a().Where("g", Eq, Int(3)).Select("k") }},
		{"pk lookup", func() *Query { return a().Where("id", Eq, Int(42)).Select("k") }},
		{"range + residual", func() *Query {
			return a().Where("id", Ge, Int(100)).Where("id", Lt, Int(200)).Where("g", Eq, Int(1)).Select("id")
		}},
		{"limit", func() *Query { return a().Select("k").Limit(7) }},
		{"distinct hash", func() *Query { return a().Select("k").Distinct() }},
		{"order full", func() *Query { return a().Select("id", "k").OrderBy("k", true).OrderBy("id", false) }},
		{"top-k", func() *Query { return a().Select("id").OrderBy("id", true).Limit(5) }},
		{"group order limit", func() *Query {
			return a().Where("id", Lt, Int(3000)).GroupBy("g").Agg(AggMax, "k").OrderBy("2", true).Limit(3)
		}},
		{"precomputed join", func() *Query { return joins.Query("f").Join("d", "ref", Self).Select("f.id", "d.id") }},
		{"tree merge join", func() *Query { return joins.Query("f").Join("d", "t", "id").Select("f.id", "d.id") }},
		{"tree join", func() *Query { return joins.Query("s").Join("d", "k", "id").Select("s.id", "d.id") }},
		{"hash index join", func() *Query { return joins.Query("f").Join("d", "k", "h").Select("f.id", "d.id") }},
		{"built table join", func() *Query { return fd(joins, "k") }},
		{"filtered join limit", func() *Query { return fd(joins, "k").Where("id", Lt, Int(4500)).Limit(25) }},
		{"radix join", func() *Query { return fd(radixJoins, "k") }},
		{"budgeted radix join group", func() *Query {
			return budgeted.Query("f").Join("d", "k", "k").GroupBy("d.k").Agg(AggCount, "")
		}},
		{"star", func() *Query { return starQuery(star).Select("fact.id", "dimc.name") }},
	}
}

// TestExecutedPlanGolden pins what an execution reports — Result.Plan and
// the operator trace with its wall times masked — for queries that cover
// every phase and join method, run serially so every counter repeats.
// Regenerate with go test -run TestExecutedPlanGolden -update-golden.
func TestExecutedPlanGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range executedPlanQueries(t) {
		res, tr, err := c.q().Parallel(1).Analyze()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b.WriteString("== " + c.name + "\n" + res.Plan() + "\n--\n" + maskTrace(tr.Format()) + "\n")
	}
	const path = "testdata/executed_plans.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestStatsDeltaMatchesTrace: the registry and the trace count the same
// work. For every query of executedPlanQueries, serial and at four
// workers, the §3.1 counters a Stats delta shows are the trace's totals.
// A query runs once untimed first, so the delta subtracts a non-zero
// snapshot.
func TestStatsDeltaMatchesTrace(t *testing.T) {
	for _, c := range executedPlanQueries(t) {
		for _, par := range []int{1, 4} {
			db := c.q().db
			if _, err := c.q().Parallel(par).Run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			before := db.Stats()
			_, tr, err := c.q().Parallel(par).Analyze()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got, want := db.Stats().Sub(before).Ops, tr.TotalOps(); got != want {
				t.Errorf("%s par=%d: Stats delta ops\n %s\nwant the trace's\n %s", c.name, par, got.String(), want.String())
			}
		}
	}
}

// TestQueryTextJoinSides: Query.String — the text ActiveQueries and the
// slow log show — renders each join side as its call wrote it, SELF for
// tuple identity, and qualifies a bare side only by the one relation it
// can name: a Join's right side by the table it joins, its left side by
// the from-table while that is all that is in scope. A side written
// qualified keeps its one scope name, through the fluent API and through
// Exec, whose joins arrive qualified.
func TestQueryTextJoinSides(t *testing.T) {
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`CREATE TABLE dept (name STRING, id INT, PRIMARY KEY id)`,
		`CREATE TABLE emp (name STRING, id INT, boss INT, works REF(dept), PRIMARY KEY id)`,
		`INSERT INTO dept VALUES ('Toy', 1), ('Shoe', 2)`,
		`INSERT INTO emp VALUES ('Ann', 1, 1, REF(dept, id, 1)), ('Bo', 2, 1, REF(dept, id, 2)), ('Cy', 3, 2, REF(dept, id, 2))`,
	} {
		db.MustExec(stmt)
	}
	cases := []struct {
		name string
		q    *Query
		sql  string // "" when SQL cannot say it
		want string
	}{
		{"qualified side", db.Query("emp").Join("dept", "emp.works", Self).Select("emp.name"),
			"SELECT emp.name FROM emp JOIN dept ON emp.works = dept.SELF",
			"SELECT emp.name FROM emp JOIN dept ON emp.works=dept.SELF"},
		{"bare side", db.Query("emp").Join("dept", "works", Self), "",
			"SELECT * FROM emp JOIN dept ON emp.works=dept.SELF"},
		{"Self side", db.Query("dept").Join("emp", Self, "works").Select("emp.name"),
			"SELECT emp.name FROM dept JOIN emp ON dept.SELF = emp.works",
			"SELECT emp.name FROM dept JOIN emp ON dept.SELF=emp.works"},
		{"JoinAs alias", db.Query("emp").As("e").JoinAs("emp", "m", "e.boss", "id").Select("e.name", "m.name"),
			"SELECT e.name, m.name FROM emp e JOIN emp m ON e.boss = m.id",
			"SELECT e.name, m.name FROM emp e JOIN emp m ON e.boss=m.id"},
		{"On edge", db.Query("emp").As("e").JoinAs("emp", "m", "e.boss", "id").Join("dept", "works", Self).On("m.works", "dept."+Self), "",
			"SELECT * FROM emp e JOIN emp m ON e.boss=m.id JOIN dept ON works=dept.SELF AND m.works=dept.SELF"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("%s: String()\n got %q\nwant %q", c.name, got, c.want)
		}
		if _, err := c.q.Run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.sql == "" {
			continue
		}
		db.MustExec(c.sql)
		if got := db.SlowQueries()[0].Text; got != c.want {
			t.Errorf("%s: Exec's slow-log text\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
