package mmdb

import (
	"fmt"
	"strings"
	"testing"
)

// Multi-join planner tests: permutation equivalence (every executable
// join order yields the same result multiset), the knob surface
// (JoinOrder / ForceJoinOrder), the forecast audit, and the SQL path.

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// checkAllOrders runs build() under every forced permutation of names,
// requiring each executable order to reproduce want (multiset and
// sameMultiset live in parallel_query_test.go) and each rejected order
// to fail with the cross-product error. Returns how many orders
// executed.
func checkAllOrders(t *testing.T, names []string, want map[string]int, build func() *Query) int {
	t.Helper()
	valid := 0
	for _, perm := range permutations(len(names)) {
		order := make([]string, len(perm))
		for i, p := range perm {
			order[i] = names[p]
		}
		res, err := build().ForceJoinOrder(order...).Run()
		if err != nil {
			if !strings.Contains(err.Error(), "cross product") {
				t.Fatalf("order %v: unexpected error: %v", order, err)
			}
			continue
		}
		valid++
		sameMultiset(t, fmt.Sprintf("order %v", order), multiset(t, res), want)
	}
	return valid
}

// openChain4 builds a 4-table chain t1 -a=id- t2 -b=id- t3 -c=id- t4
// with deliberately dangling keys at every step, and returns the
// expected join count computed by brute force over the inserted data.
func openChain4(t testing.TB) (*Database, int) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, extra string) *Table {
		fields := []Field{{Name: "id", Type: TypeInt}}
		if extra != "" {
			fields = append(fields, Field{Name: extra, Type: TypeInt})
		}
		tb, err := db.CreateTable(name, fields, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	t1, t2, t3, t4 := mk("t1", "a"), mk("t2", "b"), mk("t3", "c"), mk("t4", "")
	var as, bs, cs []int64
	var t4ids []int64
	for i := int64(0); i < 10; i++ {
		if _, err := t4.Insert(Int(i)); err != nil {
			t.Fatal(err)
		}
		t4ids = append(t4ids, i)
	}
	for i := int64(0); i < 20; i++ {
		c := i % 12 // c >= 10 dangles
		if _, err := t3.Insert(Int(i), Int(c)); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	for i := int64(0); i < 30; i++ {
		b := i % 25 // b >= 20 dangles
		if _, err := t2.Insert(Int(i), Int(b)); err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for i := int64(0); i < 40; i++ {
		a := i % 35 // a >= 30 dangles
		if _, err := t1.Insert(Int(i), Int(a)); err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	want := 0
	for _, a := range as {
		if a >= int64(len(bs)) {
			continue
		}
		b := bs[a]
		if b >= int64(len(cs)) {
			continue
		}
		c := cs[b]
		if c < int64(len(t4ids)) {
			want++
		}
	}
	return db, want
}

func chainQuery(db *Database) *Query {
	return db.Query("t1").
		Join("t2", "a", "id").
		Join("t3", "t2.b", "id").
		Join("t4", "t3.c", "id")
}

// TestMultiJoinChainAllOrders: on a 4-chain, exactly the orders whose
// every prefix is a contiguous chain interval execute (8 of 24), and
// all of them produce the same multiset as the planner's own choice.
func TestMultiJoinChainAllOrders(t *testing.T) {
	db, wantLen := openChain4(t)
	auto, err := chainQuery(db).Run()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Len() != wantLen {
		t.Fatalf("auto order: %d rows, brute force says %d", auto.Len(), wantLen)
	}
	want := multiset(t, auto)
	valid := checkAllOrders(t, []string{"t1", "t2", "t3", "t4"}, want, func() *Query { return chainQuery(db) })
	if valid != 8 {
		t.Fatalf("%d orders executed, want the 8 contiguous-prefix chain orders", valid)
	}
}

// openStar4 builds fact(id, da, db_, dc, v) joined to three dimensions
// of very different selectivity: dima matches every fact row, dimb 10%,
// dimc 5%. factRows must be a multiple of 500.
func openStar4(t testing.TB, factRows int) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStarInto(t, db, factRows)
	return db
}

// seedStarInto creates and fills the star-schema tables in db.
func seedStarInto(t testing.TB, db *Database, factRows int) {
	t.Helper()
	dim := func(name string, n int) {
		tb, err := db.CreateTable(name, []Field{
			{Name: "id", Type: TypeInt},
			{Name: "name", Type: TypeString},
		}, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tb.Insert(Int(int64(i)), Str(fmt.Sprintf("%s-%d", name, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	dim("dima", 500)
	dim("dimb", 50)
	dim("dimc", 25)
	fact, err := db.CreateTable("fact", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "da", Type: TypeInt},
		{Name: "db_", Type: TypeInt},
		{Name: "dc", Type: TypeInt},
		{Name: "v", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < factRows; i++ {
		k := int64(i % 500)
		if _, err := fact.Insert(Int(int64(i)), Int(k), Int(k), Int(k), Int(int64(i)*7)); err != nil {
			t.Fatal(err)
		}
	}
}

func starQuery(db *Database) *Query {
	return db.Query("fact").
		Join("dima", "da", "id").
		Join("dimb", "db_", "id").
		Join("dimc", "dc", "id")
}

// TestMultiJoinStarAllOrders: in a star every executable order has the
// fact table first or second (dimensions only connect through it).
func TestMultiJoinStarAllOrders(t *testing.T) {
	db := openStar4(t, 500)
	auto, err := starQuery(db).Run()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Len() != 25 { // i%500 < 25, once per value
		t.Fatalf("auto order: %d rows, want 25", auto.Len())
	}
	want := multiset(t, auto)
	valid := checkAllOrders(t, []string{"fact", "dima", "dimb", "dimc"}, want, func() *Query { return starQuery(db) })
	// fact first: 3! dim orders; fact second: 3 choices of leading dim × 2!.
	if valid != 12 {
		t.Fatalf("%d orders executed, want 12", valid)
	}
}

// openCyclic3 builds a triangle: a joins b, b joins c, and a closing
// a-c edge that the executor must apply as a residual check whichever
// order runs. Returns the brute-forced expected count.
func openCyclic3(t testing.TB) (*Database, int) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateTable("c", []Field{{Name: "id", Type: TypeInt}}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", []Field{
		{Name: "id", Type: TypeInt}, {Name: "cid", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateTable("a", []Field{
		{Name: "id", Type: TypeInt}, {Name: "bid", Type: TypeInt}, {Name: "cid", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	type brow struct{ id, cid int64 }
	type arow struct{ id, bid, cid int64 }
	var bs []brow
	var as []arow
	for i := int64(0); i < 5; i++ {
		if _, err := c.Insert(Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 6; i++ {
		r := brow{id: i, cid: i % 5}
		if _, err := b.Insert(Int(r.id), Int(r.cid)); err != nil {
			t.Fatal(err)
		}
		bs = append(bs, r)
	}
	for i := int64(0); i < 24; i++ {
		r := arow{id: i, bid: i % 6, cid: (i * 3) % 5} // only some close the triangle
		if _, err := a.Insert(Int(r.id), Int(r.bid), Int(r.cid)); err != nil {
			t.Fatal(err)
		}
		as = append(as, r)
	}
	want := 0
	for _, ar := range as {
		for _, br := range bs {
			if ar.bid != br.id {
				continue
			}
			for ci := int64(0); ci < 5; ci++ {
				if br.cid == ci && ar.cid == ci {
					want++
				}
			}
		}
	}
	return db, want
}

func cyclicQuery(db *Database) *Query {
	return db.Query("a").
		Join("b", "bid", "id").
		Join("c", "b.cid", "id").
		On("a.cid", "c.id")
}

// TestMultiJoinCyclicResidual: the closing edge of a cyclic graph is
// enforced in every order — as a second hash edge or a residual check —
// and the count matches brute force. A triangle is fully connected, so
// all 6 permutations execute.
func TestMultiJoinCyclicResidual(t *testing.T) {
	db, wantLen := openCyclic3(t)
	auto, err := cyclicQuery(db).Run()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Len() != wantLen {
		t.Fatalf("auto order: %d rows, brute force says %d", auto.Len(), wantLen)
	}
	want := multiset(t, auto)
	valid := checkAllOrders(t, []string{"a", "b", "c"}, want, func() *Query { return cyclicQuery(db) })
	if valid != 6 {
		t.Fatalf("%d orders executed, want all 6 (triangle is fully connected)", valid)
	}
}

// TestMultiJoinCyclicWithPredicate: the residual closing edge composes
// with a WHERE filter on the driving table.
func TestMultiJoinCyclicWithPredicate(t *testing.T) {
	db, _ := openCyclic3(t)
	res, err := cyclicQuery(db).Where("a.id", Lt, Int(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the generators with id < 12.
	want := 0
	for i := int64(0); i < 12; i++ {
		bid, acid := i%6, (i*3)%5
		if bid%5 == acid { // b.cid == a.cid (b row bid has cid = bid%5)
			want++
		}
	}
	if res.Len() != want {
		t.Fatalf("filtered cyclic join: %d rows, want %d", res.Len(), want)
	}
}

// TestOnErrors: the closing-edge API rejects malformed edges.
func TestOnErrors(t *testing.T) {
	db, _ := openCyclic3(t)
	if _, err := db.Query("a").On("bid", "cid").Run(); err == nil ||
		!strings.Contains(err.Error(), "at least two relations") {
		t.Fatalf("On with one relation: %v", err)
	}
	if _, err := db.Query("a").Join("b", "bid", "id").On("a.bid", "a.cid").Run(); err == nil ||
		!strings.Contains(err.Error(), "two different relations") {
		t.Fatalf("On with both sides on one relation: %v", err)
	}
	if _, err := db.Query("a").Join("b", "bid", "id").On("a.nope", "b.id").Run(); err == nil {
		t.Fatal("On with unknown column should fail")
	}
}

// sumStageActuals adds up the observed output rows of every pipeline
// stage — the total intermediate-result volume the order produced.
func sumStageActuals(tr *QueryTrace) float64 {
	sum := 0.0
	for _, d := range tr.Decisions {
		if d.Name == "join stage" {
			sum += d.Actual
		}
	}
	return sum
}

// TestMultiJoinPlannerBeatsWorstOrder: on a skewed star (one dimension
// keeps every fact row, the others are selective) the DP order's total
// intermediate volume must be at least 2× smaller than the naive
// "big dimension first" order, while both produce the same cardinality.
func TestMultiJoinPlannerBeatsWorstOrder(t *testing.T) {
	db := openStar4(t, 5000)
	_, trAuto, err := starQuery(db).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	d := findDecision(trAuto, "join order")
	if d == nil {
		t.Fatalf("no join order decision in trace: %+v", trAuto.Decisions)
	}
	if !strings.Contains(d.Chosen, "(dp)") {
		t.Fatalf("planner did not use exact DP on 4 relations: %q", d.Chosen)
	}
	_, trWorst, err := starQuery(db).ForceJoinOrder("dima", "fact", "dimb", "dimc").Analyze()
	if err != nil {
		t.Fatal(err)
	}
	dw := findDecision(trWorst, "join order")
	if dw == nil || !strings.Contains(dw.Chosen, "(forced)") {
		t.Fatalf("forced run's join order decision: %+v", dw)
	}
	if d.Actual != dw.Actual {
		t.Fatalf("result cardinality differs: dp %v vs forced %v", d.Actual, dw.Actual)
	}
	auto, worst := sumStageActuals(trAuto), sumStageActuals(trWorst)
	if auto <= 0 || worst <= 0 {
		t.Fatalf("missing stage audits: auto=%v worst=%v", auto, worst)
	}
	if auto*2 > worst {
		t.Fatalf("DP order not ≥2× better: %v intermediate rows vs %v", auto, worst)
	}
}

// openHierarchy builds a staff table whose boss column points at other
// staff rows by id — the self-join fixture. Row 0 is its own boss.
func openHierarchy(t testing.TB) (*Database, int) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	staff, err := db.CreateTable("staff", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "boss", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	const n = 13
	for i := int64(0); i < n; i++ {
		boss := int64(0)
		if i > 0 {
			boss = (i - 1) / 2
		}
		if _, err := staff.Insert(Int(i), Int(boss)); err != nil {
			t.Fatal(err)
		}
	}
	return db, n // every row has exactly one boss and grand-boss
}

func hierarchyQuery(db *Database) *Query {
	return db.Query("staff").As("e").
		JoinAs("staff", "m", "e.boss", "id").
		JoinAs("staff", "g", "m.boss", "id").
		Select("e.id", "m.id", "g.id")
}

// TestMultiJoinSelfJoinAliases: a three-level self-join through aliases
// resolves, plans, and is permutation-equivalent (4 of 6 orders keep the
// e–m–g chain connected).
func TestMultiJoinSelfJoinAliases(t *testing.T) {
	db, want := openHierarchy(t)
	auto, err := hierarchyQuery(db).Run()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Len() != want {
		t.Fatalf("self-join chain: %d rows, want %d", auto.Len(), want)
	}
	wantSet := multiset(t, auto)
	valid := checkAllOrders(t, []string{"e", "m", "g"}, wantSet, func() *Query { return hierarchyQuery(db) })
	if valid != 4 {
		t.Fatalf("%d orders executed, want 4 contiguous chain orders", valid)
	}
	// Rejoining under an in-scope name must demand a distinct alias.
	if _, err := db.Query("staff").Join("staff", "boss", "id").Run(); err == nil ||
		!strings.Contains(err.Error(), "already in scope") {
		t.Fatalf("duplicate scope name: %v", err)
	}
}

// TestMultiJoinQualifiedColumns: alias-qualified names flow through
// projection, GROUP BY, and ORDER BY after a multi-join (satellite 1).
func TestMultiJoinQualifiedColumns(t *testing.T) {
	db, wantLen := openChain4(t)
	res, err := chainQuery(db).Select("t1.id", "t3.c").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != wantLen {
		t.Fatalf("projected join: %d rows, want %d", res.Len(), wantLen)
	}
	cols := res.Columns()
	if len(cols) != 2 || cols[0] != "t1.id" || cols[1] != "t3.c" {
		t.Fatalf("projected columns = %v", cols)
	}

	grp, err := chainQuery(db).GroupBy("t4.id").Agg(AggCount, "*").Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < grp.Len(); i++ {
		row := grp.Row(i)
		total += int(row[len(row)-1].Int())
	}
	if total != wantLen {
		t.Fatalf("GROUP BY t4.id counts sum to %d, want %d", total, wantLen)
	}

	ord, err := chainQuery(db).Select("t1.id").OrderBy("t1.id", true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ord.Len() != wantLen {
		t.Fatalf("ordered join: %d rows, want %d", ord.Len(), wantLen)
	}
	for i := 1; i < ord.Len(); i++ {
		if ord.Row(i)[0].Int() > ord.Row(i - 1)[0].Int() {
			t.Fatalf("ORDER BY t1.id DESC violated at row %d", i)
		}
	}
}

// TestMultiJoinDerefStage: a Ref column joined on SELF executes as a
// pointer dereference stage inside the pipeline, not a hash build.
func TestMultiJoinDerefStage(t *testing.T) {
	db, emp, dept := openEmpDept(t, Options{})
	seedEmpDept(t, emp, dept)
	bonus, err := db.CreateTable("bonus", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "emp_id", Type: TypeInt},
		{Name: "amt", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	for i, eid := range []int64{23, 12, 44, 22, 23} {
		if _, err := bonus.Insert(Int(int64(i)), Int(eid), Int(int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("emp").
		Join("dept", "dept", Self).
		Join("bonus", "emp.id", "emp_id").
		ForceJoinOrder("emp", "dept", "bonus").
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 { // one row per bonus, each bonus names a real emp
		t.Fatalf("emp⋈dept⋈bonus: %d rows, want 5", res.Len())
	}
	if p := res.Plan(); !strings.Contains(p, "pointer deref") {
		t.Fatalf("plan does not use the deref stage:\n%s", p)
	}
}

// TestMultiJoinSQL: the SQL surface drives the same planner — chained
// JOINs, aliases, and EXPLAIN ANALYZE exposing the order decision.
func TestMultiJoinSQL(t *testing.T) {
	db, wantLen := openChain4(t)
	er, err := db.Exec("SELECT t1.id, t4.id FROM t1 JOIN t2 ON t1.a = t2.id " +
		"JOIN t3 ON t2.b = t3.id JOIN t4 ON t3.c = t4.id")
	if err != nil {
		t.Fatal(err)
	}
	if er.Result.Len() != wantLen {
		t.Fatalf("SQL chain join: %d rows, want %d", er.Result.Len(), wantLen)
	}

	ex, err := db.Exec("EXPLAIN ANALYZE SELECT t1.id FROM t1 JOIN t2 ON t1.a = t2.id " +
		"JOIN t3 ON t2.b = t3.id JOIN t4 ON t3.c = t4.id")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipelined multi-join", "forecast", "decision join order:", "decision join stage:"} {
		if !strings.Contains(ex.Plan(), want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, ex.Plan())
		}
	}

	dbh, want := openHierarchy(t)
	al, err := dbh.Exec("SELECT e.id, g.id FROM staff AS e JOIN staff m ON e.boss = m.id " +
		"JOIN staff g ON m.boss = g.id")
	if err != nil {
		t.Fatal(err)
	}
	if al.Result.Len() != want {
		t.Fatalf("SQL self-join: %d rows, want %d", al.Result.Len(), want)
	}
}

// TestJoinOrderKnob: ForceJoinOrder with the names as written pins the
// as-written order, also on a freshly seeded database, and an order that
// does not name every relation exactly once fails.
func TestJoinOrderKnob(t *testing.T) {
	asWritten := []string{"fact", "dima", "dimb", "dimc"}
	db := openStar4(t, 500)
	res, err := starQuery(db).ForceJoinOrder(asWritten...).Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan()
	if !strings.Contains(p, "(forced)") {
		t.Fatalf("forced order not reported:\n%s", p)
	}
	if !strings.Contains(p, "fact ⋈ dima ⋈ dimb ⋈ dimc") {
		t.Fatalf("the as-written order did not run:\n%s", p)
	}
	for _, bad := range [][]string{
		{},                               // no names
		{"fact", "dima"},                 // wrong count
		{"fact", "dima", "dimb", "nope"}, // unknown name
		{"fact", "dima", "dima", "dimc"}, // duplicate
	} {
		if _, err := starQuery(db).ForceJoinOrder(bad...).Run(); err == nil {
			t.Fatalf("ForceJoinOrder(%v) should fail", bad)
		}
	}

	dbl, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStarInto(t, dbl, 500)
	res2, err := starQuery(dbl).ForceJoinOrder(asWritten...).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Plan(), "fact ⋈ dima ⋈ dimb ⋈ dimc (forced)") {
		t.Fatalf("ForceJoinOrder ignored:\n%s", res2.Plan())
	}
}

// TestMultiJoinExplainPlanned: EXPLAIN (no execution) already reports
// the chosen order and, per stage, how it binds and its forecast.
func TestMultiJoinExplainPlanned(t *testing.T) {
	db := openStar4(t, 500)
	txt, err := starQuery(db).Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"join order:", "hash probe (built table)", "forecast"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Explain missing %q:\n%s", want, txt)
		}
	}
}

// TestMultiJoinLimit: LIMIT stops the pipeline early.
func TestMultiJoinLimit(t *testing.T) {
	db, wantLen := openChain4(t)
	if wantLen < 3 {
		t.Fatalf("fixture too small: %d rows", wantLen)
	}
	res, err := chainQuery(db).Limit(3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("LIMIT 3: %d rows", res.Len())
	}
}

// TestMultiJoinMixedGraph5: a five-relation tree (chain hanging off a
// star) — permutation equivalence over every executable order.
func TestMultiJoinMixedGraph5(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cols ...string) *Table {
		fields := []Field{{Name: "id", Type: TypeInt}}
		for _, c := range cols {
			fields = append(fields, Field{Name: c, Type: TypeInt})
		}
		tb, err := db.CreateTable(name, fields, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	r1 := mk("r1", "x", "w")
	r2 := mk("r2", "y")
	r3 := mk("r3")
	r4 := mk("r4", "z")
	r5 := mk("r5")
	type row1 struct{ id, x, w int64 }
	type row2 struct{ id, y int64 }
	type row4 struct{ id, z int64 }
	var ones []row1
	var twos []row2
	var fours []row4
	for i := int64(0); i < 8; i++ {
		r := row2{id: i, y: i % 5} // r3 has ids 0..3: y=4 dangles
		if _, err := r2.Insert(Int(r.id), Int(r.y)); err != nil {
			t.Fatal(err)
		}
		twos = append(twos, r)
	}
	for i := int64(0); i < 4; i++ {
		if _, err := r3.Insert(Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 6; i++ {
		r := row4{id: i, z: i % 4} // r5 has ids 0..2: z=3 dangles
		if _, err := r4.Insert(Int(r.id), Int(r.z)); err != nil {
			t.Fatal(err)
		}
		fours = append(fours, r)
	}
	for i := int64(0); i < 3; i++ {
		if _, err := r5.Insert(Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 12; i++ {
		r := row1{id: i, x: i % 9, w: i % 7} // x>=8 and w>=6 dangle
		if _, err := r1.Insert(Int(r.id), Int(r.x), Int(r.w)); err != nil {
			t.Fatal(err)
		}
		ones = append(ones, r)
	}
	want := 0
	for _, a := range ones {
		if a.x >= int64(len(twos)) || a.w >= int64(len(fours)) {
			continue
		}
		if twos[a.x].y < 4 && fours[a.w].z < 3 {
			want++
		}
	}
	build := func() *Query {
		return db.Query("r1").
			Join("r2", "x", "id").
			Join("r3", "r2.y", "id").
			Join("r4", "r1.w", "id").
			Join("r5", "r4.z", "id")
	}
	auto, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Len() != want {
		t.Fatalf("auto order: %d rows, brute force says %d", auto.Len(), want)
	}
	wantSet := multiset(t, auto)
	valid := checkAllOrders(t, []string{"r1", "r2", "r3", "r4", "r5"}, wantSet, build)
	if valid == 0 || valid == len(permutations(5)) {
		t.Fatalf("implausible executable-order count %d", valid)
	}
}
