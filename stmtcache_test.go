package mmdb

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

func openEmpty(t testing.TB) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// builtQuery is the query Exec runs for a SELECT: its template,
// instantiated with the statement's own literals.
func builtQuery(t *testing.T, db *Database, sql string) *Query {
	t.Helper()
	x, err := sqlparser.Lex(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Release()
	st, err := x.Parse()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := db.build(st)
	if err != nil {
		t.Fatal(err)
	}
	lits, err := x.Literals()
	if err != nil {
		t.Fatal(err)
	}
	return tm.query(lits)
}

// clear empties the cache, so the next Exec of any statement is cold.
func (c *stmtCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buckets, c.n = nil, 0
}

// cached reports whether Exec would find sql's shape in the cache.
func cached(t *testing.T, db *Database, sql string) bool {
	t.Helper()
	x, err := sqlparser.Lex(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Release()
	return db.stmts.lookup(x) != nil
}

// rowsText renders a result's rows in order.
func rowsText(r *ExecResult) string {
	if r == nil || r.Result == nil {
		return ""
	}
	var b strings.Builder
	for i := 0; i < r.Result.Len(); i++ {
		fmt.Fprintln(&b, r.Result.Row(i))
	}
	return b.String()
}

// TestStmtCacheVaryingLiterals: one shape with a new id each time is one
// cache entry, and every run returns its own row.
func TestStmtCacheVaryingLiterals(t *testing.T) {
	db := protoDB(t, 1000, 0)
	for _, id := range []int{5, 77, 999, -3, 400, 5} {
		r, err := db.Exec(fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", id))
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if id < 0 {
			want = 0
		}
		if r.Result.Len() != want || (want == 1 && (r.Result.Row(0)[0].Int() != int64(id) || r.Result.Row(0)[1].Int() != int64(id*7))) {
			t.Errorf("id %d: got %s", id, rowsText(r))
		}
	}
	if db.stmts.n != 1 {
		t.Errorf("one shape made %d cache entries", db.stmts.n)
	}
	// DML through one shape each: the inserted, updated and deleted rows
	// are the statement's own.
	for i := 0; i < 3; i++ {
		id := 5000 + i
		db.MustExec(fmt.Sprintf("INSERT INTO fact VALUES (%d, %d, %d)", id, i, -i))
		db.MustExec(fmt.Sprintf("UPDATE fact SET v = %d WHERE id = %d", 10*i, id))
	}
	db.MustExec("DELETE FROM fact WHERE id = 5001")
	r := db.MustExec("SELECT id, g, v FROM fact WHERE id >= 5000")
	if got, want := rowsText(r), "[5000 0 0]\n[5002 2 20]\n"; got != want {
		t.Errorf("after DML through cached shapes: got\n%swant\n%s", got, want)
	}
}

// TestStmtCacheStructuralLiterals: a LIMIT count and an ORDER BY ordinal
// are structure, so each value is its own shape with its own result.
func TestStmtCacheStructuralLiterals(t *testing.T) {
	db := protoDB(t, 100, 0)
	for _, n := range []int{5, 6, 5, 6} {
		if r := db.MustExec(fmt.Sprintf("SELECT id FROM fact LIMIT %d", n)); r.Result.Len() != n {
			t.Errorf("LIMIT %d returned %d rows", n, r.Result.Len())
		}
	}
	// g = id % 25 and v = 7*id: ordering by g and by v differ.
	first := func(ord int) string {
		r := db.MustExec(fmt.Sprintf("SELECT v, g FROM fact WHERE id < 30 ORDER BY %d DESC LIMIT 1", ord))
		return rowsText(r)
	}
	for i := 0; i < 2; i++ {
		if a, b := first(1), first(2); a != "[203 4]\n" || b != "[168 24]\n" {
			t.Errorf("ORDER BY 1 gave %q, ORDER BY 2 gave %q", a, b)
		}
	}
	if db.stmts.n != 4 {
		t.Errorf("four shapes made %d cache entries", db.stmts.n)
	}
}

// TestStmtCacheIsBounded: more shapes than the bound evict, shapes of one
// fingerprint chain no deeper than stmtChainMax, and every statement
// still answers.
func TestStmtCacheIsBounded(t *testing.T) {
	db := protoDB(t, 1000, 0)
	chains := func() (entries, longest int) {
		for _, e := range db.stmts.buckets {
			n := 0
			for ; e != nil; e = e.next {
				n++
			}
			entries, longest = entries+n, max(longest, n)
		}
		return entries, longest
	}
	for n := 1; n <= stmtCacheSize+50; n++ {
		// LIMIT counts are structure: one fingerprint, many shapes.
		if r := db.MustExec(fmt.Sprintf("SELECT id FROM fact LIMIT %d", n)); r.Result.Len() != n {
			t.Fatalf("LIMIT %d returned %d rows", n, r.Result.Len())
		}
		// Distinct aliases: distinct fingerprints.
		db.MustExec(fmt.Sprintf("SELECT id FROM fact f%d WHERE id = %d", n, n))
		if entries, longest := chains(); entries != db.stmts.n || db.stmts.n > stmtCacheSize || longest > stmtChainMax {
			t.Fatalf("%d entries (%d counted), longest chain %d; bounds %d and %d",
				entries, db.stmts.n, longest, stmtCacheSize, stmtChainMax)
		}
	}
	if !cached(t, db, fmt.Sprintf("SELECT id FROM fact LIMIT %d", stmtCacheSize+50)) {
		t.Error("the newest shape is not cached")
	}
}

// TestStmtCacheLiteralKinds: 5, 5.0 and '5' are three shapes. Each
// statement finds the rows its own literal finds on a cold database.
func TestStmtCacheLiteralKinds(t *testing.T) {
	db := openEmpty(t)
	db.MustExec("CREATE TABLE k (id INT, i INT, f FLOAT, s STRING, PRIMARY KEY id)")
	db.MustExec("INSERT INTO k VALUES (1, 5, 5.0, '5'), (2, 6, 6.5, '6')")
	stmts := []string{
		"SELECT id FROM k WHERE i = 5", "SELECT id FROM k WHERE i = 5.0", "SELECT id FROM k WHERE i = '5'",
		"SELECT id FROM k WHERE f = 5", "SELECT id FROM k WHERE f = 5.0", "SELECT id FROM k WHERE f = '5'",
		"SELECT id FROM k WHERE s = 5", "SELECT id FROM k WHERE s = 5.0", "SELECT id FROM k WHERE s = '5'",
	}
	cold := map[string]string{}
	for _, s := range stmts {
		db.stmts.clear()
		r, err := db.Exec(s)
		cold[s] = fmt.Sprint(rowsText(r), err)
	}
	db.stmts.clear()
	for _, s := range stmts {
		if cached(t, db, s) {
			t.Errorf("%s: an earlier literal of another kind shares its entry", s)
		}
		r, err := db.Exec(s)
		if got := fmt.Sprint(rowsText(r), err); got != cold[s] {
			t.Errorf("%s: warm %q, cold %q", s, got, cold[s])
		}
	}
}

// TestStmtCacheDecodesLikeColdPath: a hit decodes escaped quotes and
// negative numbers exactly as a cold parse does.
func TestStmtCacheDecodesLikeColdPath(t *testing.T) {
	db := openEmpty(t)
	db.MustExec("CREATE TABLE p (id INT, name STRING, x FLOAT, PRIMARY KEY id)")
	db.MustExec("INSERT INTO p VALUES (0, 'plain', 1.5)") // caches the shape
	for _, c := range []struct {
		sql  string
		id   int64
		name string
		x    float64
	}{
		{"INSERT INTO p VALUES (-1, 'O''Brien', -0.25)", -1, "O'Brien", -0.25},
		{"INSERT INTO p VALUES (-9223372036854775808, '''', -100.125)", -9223372036854775808, "'", -100.125},
		{"INSERT INTO p VALUES (7, 'a''''b', 0.0)", 7, "a''b", 0},
		{"INSERT INTO p VALUES (8, '', -3.5)", 8, "", -3.5},
	} {
		if !cached(t, db, c.sql) {
			t.Fatalf("%s: not a hit", c.sql)
		}
		db.MustExec(c.sql)
		r := db.MustExec(fmt.Sprintf("SELECT id, name, x FROM p WHERE id = %d", c.id))
		if r.Result.Len() != 1 {
			t.Fatalf("%s: %d rows", c.sql, r.Result.Len())
		}
		row := r.Result.Row(0)
		if row[0].Int() != c.id || row[1].Str() != c.name || row[2].Float() != c.x {
			t.Errorf("%s: stored %v", c.sql, row)
		}
		// The name finds the row through a cached shape too.
		q := "SELECT id FROM p WHERE name = '" + strings.ReplaceAll(c.name, "'", "''") + "'"
		if r := db.MustExec(q); r.Result.Len() != 1 || r.Result.Row(0)[0].Int() != c.id {
			t.Errorf("%s: got %s", q, rowsText(r))
		}
	}
}

// TestStmtCacheSkipsFailures: a statement that fails to build — a name
// that does not bind, a select list against its GROUP BY, a value its
// column cannot hold — is never cached and fails the same way every time;
// a literal out of range fails as the parser fails on it, also when its
// shape is cached.
func TestStmtCacheSkipsFailures(t *testing.T) {
	db := protoDB(t, 100, 0)
	for _, s := range []string{
		"SELECT id FROM fact WHERE nope = 1",   // built into the query's error
		"SELECT nope FROM fact",                // fails to bind, before any lock
		"SELECT id FROM nope WHERE id = 1",     // no such table
		"SELECT g, v FROM fact GROUP BY g",     // select list against GROUP BY
		"UPDATE fact SET v = 'x' WHERE id = 1", // wrong type for the column
	} {
		var first string
		for i := 0; i < 3; i++ {
			_, err := db.Exec(s)
			if err == nil {
				t.Fatalf("%s: no error", s)
			}
			if i == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: run %d failed with %q, first with %q", s, i, err, first)
			}
		}
		if cached(t, db, s) {
			t.Errorf("%s: a failing statement was cached", s)
		}
	}
	db.MustExec("SELECT id FROM fact WHERE id = 1")
	const big = "SELECT id FROM fact WHERE id = 99999999999999999999"
	_, cold := sqlparser.Parse(big)
	if _, err := db.Exec(big); cold == nil || err == nil || err.Error() != cold.Error() {
		t.Errorf("%s: Exec says %v, Parse %v", big, err, cold)
	}
}

// TestStmtCacheTypeChecksWritesAtBuild: an INSERT or UPDATE value its
// column cannot hold fails the statement's build, with the error the
// write gives (storage's for an INSERT row, txn's for an UPDATE's SET),
// before any lock is granted and whether or not a row would be written;
// the statement is not cached.
func TestStmtCacheTypeChecksWritesAtBuild(t *testing.T) {
	db := protoDB(t, 100, 0)
	for s, want := range map[string]string{
		"INSERT INTO fact VALUES (500, 'x', 1)":              `storage: field "g" wants int, got string`,
		"INSERT INTO fact VALUES (500, 1, 2), (501, 2.5, 3)": `storage: field "g" wants int, got float`,
		"INSERT INTO fact VALUES (500, 1)":                   "storage: got 2 values for 3 fields",
		"UPDATE fact SET v = 'x' WHERE id = 1":               `txn: field "v" wants int, got string`,
		"UPDATE fact SET g = 1.5 WHERE id >= 3":              `txn: field "g" wants int, got float`,
		"UPDATE fact SET g = 1.5 WHERE id = -1":              `txn: field "g" wants int, got float`,
	} {
		st, err := sqlparser.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.build(st); err == nil || err.Error() != want {
			t.Errorf("%s: build error %v, want %q", s, err, want)
		}
		grants := db.locks.Stats().Grants
		if _, err := db.Exec(s); err == nil || err.Error() != want {
			t.Errorf("%s: Exec error %v, want %q", s, err, want)
		}
		if g := db.locks.Stats().Grants - grants; g != 0 {
			t.Errorf("%s: took %d lock grants", s, g)
		}
		if cached(t, db, s) {
			t.Errorf("%s: cached", s)
		}
	}
	if n := db.MustExec("SELECT id FROM fact WHERE id >= 100").Result.Len(); n != 0 {
		t.Errorf("%d rows inserted", n)
	}
}

// TestStmtCacheAdmitsAtBuild: a template that builds is complete, so Exec
// caches it before it runs: an INSERT that fails on a duplicate primary
// key is cached, and the next statement of its shape, with a fresh key,
// is a hit that succeeds.
func TestStmtCacheAdmitsAtBuild(t *testing.T) {
	db := protoDB(t, 100, 0)
	const dup, fresh = "INSERT INTO fact VALUES (5, 1, 2)", "INSERT INTO fact VALUES (500, 1, 2)"
	if _, err := db.Exec(dup); err == nil {
		t.Fatalf("%s: no error", dup)
	}
	if !cached(t, db, dup) || !cached(t, db, fresh) {
		t.Fatalf("%s failed on its data and was not cached", dup)
	}
	if r, err := db.Exec(fresh); err != nil || r.RowsAffected != 1 {
		t.Fatalf("%s: %v", fresh, err)
	}
	if got := rowsText(db.MustExec("SELECT id, g, v FROM fact WHERE id = 500")); got != "[500 1 2]\n" {
		t.Errorf("the hit inserted %q", got)
	}
	if db.stmts.n != 2 {
		t.Errorf("%d cache entries, want the INSERT's and the SELECT's", db.stmts.n)
	}
}

// TestStmtCacheBypassesRef: a statement with a REF looks its tuple up on
// every run, so it is never cached.
func TestStmtCacheBypassesRef(t *testing.T) {
	db := openEmpty(t)
	db.MustExec("CREATE TABLE dept (id INT, name STRING, PRIMARY KEY id)")
	db.MustExec("CREATE TABLE emp (id INT, dept REF(dept), PRIMARY KEY id)")
	db.MustExec("INSERT INTO dept VALUES (1, 'one'), (2, 'two')")
	for i, d := range []int{1, 2, 1} {
		s := fmt.Sprintf("INSERT INTO emp VALUES (%d, REF(dept, id, %d))", i, d)
		db.MustExec(s)
		if cached(t, db, s) {
			t.Errorf("%s: cached", s)
		}
	}
	r := db.MustExec("SELECT emp.id, dept.name FROM emp JOIN dept ON emp.dept = dept.SELF ORDER BY 1")
	if got, want := rowsText(r), "[0 one]\n[1 two]\n[2 one]\n"; got != want {
		t.Errorf("got\n%swant\n%s", got, want)
	}
}

// TestStmtCacheSeesNewIndex: a CREATE INDEX between two runs of one
// statement changes the plan the second run executes — the cached
// template holds no access path.
func TestStmtCacheSeesNewIndex(t *testing.T) {
	db := protoDB(t, 1000, 0)
	const s = "SELECT id FROM fact WHERE v = 700"
	before := db.MustExec(s)
	if !strings.Contains(before.Plan(), "sequential scan") {
		t.Fatalf("before the index:\n%s", before.Plan())
	}
	db.MustExec("CREATE INDEX ON fact (v) USING mlh")
	if !cached(t, db, s) {
		t.Fatal("the CREATE INDEX dropped the entry; this test wants a hit")
	}
	after := db.MustExec(s)
	if !strings.Contains(after.Plan(), "hash lookup") || rowsText(after) != rowsText(before) {
		t.Errorf("after the index: rows %q (were %q), plan:\n%s", rowsText(after), rowsText(before), after.Plan())
	}
	// A fluent index works alike.
	fact, _ := db.Table("fact")
	const r = "SELECT id FROM fact WHERE g = 3"
	db.MustExec(r)
	if _, err := fact.CreateIndex("g", "g", TTree); err != nil {
		t.Fatal(err)
	}
	if p := db.MustExec(r).Plan(); !strings.Contains(p, "tree lookup") {
		t.Errorf("after a fluent index:\n%s", p)
	}
}

// TestStmtCacheTextShowsOwnLiterals: the live registry and the slow log
// render a hit's query with its own literals, never the template's.
func TestStmtCacheTextShowsOwnLiterals(t *testing.T) {
	db := protoDBWith(t, Options{SlowQueryThreshold: time.Nanosecond}, 1000)
	db.MustExec("SELECT id, v FROM fact WHERE id = 5")
	db.MustExec("SELECT id, v FROM fact WHERE id = 77")
	if sq := db.SlowQueries(); len(sq) < 2 || !strings.Contains(sq[0].Text, "id = 77") || !strings.Contains(sq[1].Text, "id = 5") {
		t.Errorf("slow log: %+v", sq)
	}
	// Hold the table's exclusive lock so a hit waits, registered, for its
	// shared one.
	fact, _ := db.Table("fact")
	tx := db.Begin()
	if err := tx.inner.LockRelationExclusive(fact.rel); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		_, err := db.Exec("SELECT id, v FROM fact WHERE id = 431")
		done <- err
	}()
	var texts []string
	for deadline := time.Now().Add(10 * time.Second); len(texts) == 0 && time.Now().Before(deadline); {
		for _, q := range db.ActiveQueries() {
			texts = append(texts, q.Text)
		}
		time.Sleep(time.Millisecond)
	}
	tx.Abort()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(texts) != 1 || !strings.Contains(texts[0], "id = 431") {
		t.Errorf("live registry showed %q", texts)
	}
}

// TestStmtCacheConcurrentExec: goroutines running one shape with their
// own literals — reads, and writes to their own keys — get their own
// answers. Run it under -race.
func TestStmtCacheConcurrentExec(t *testing.T) {
	const rows, workers, iters = 2000, 4, 300
	db := protoDB(t, rows, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (i*workers + w) % rows
				r, err := db.Exec(fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", id))
				if err != nil || r.Result.Len() != 1 || r.Result.Row(0)[1].Int() != int64(id*7) {
					t.Errorf("id %d: %s %v", id, rowsText(r), err)
					return
				}
				lo := id / 2
				r, err = db.Exec(fmt.Sprintf("SELECT id FROM fact WHERE id >= %d AND id < %d", lo, lo+3))
				if err != nil || r.Result.Len() != 3 || r.Result.Row(0)[0].Int() != int64(lo) {
					t.Errorf("range at %d: %s %v", lo, rowsText(r), err)
					return
				}
				own := rows + i*workers + w
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO fact VALUES (%d, %d, %d)", own, w, i)); err != nil {
					t.Errorf("insert %d: %v", own, err)
					return
				}
				if r, err := db.Exec(fmt.Sprintf("DELETE FROM fact WHERE id = %d", own)); err != nil || r.RowsAffected != 1 {
					t.Errorf("delete %d: %v", own, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := db.MustExec("SELECT id FROM fact").Result.Len(); n != rows {
		t.Errorf("%d rows after the hammer, want %d", n, rows)
	}
}

// fuzzDB is FuzzExecCached's database: the tables the parser's seed
// statements name, a few rows each, a secondary index for lookups.
func fuzzDB(t *testing.T) *Database {
	t.Helper()
	db := openEmpty(t)
	db.MustExec("CREATE TABLE dept (id INT, name STRING, PRIMARY KEY id USING mlh)")
	db.MustExec("CREATE TABLE emp (id INT, name STRING, age INT, sal FLOAT, dept REF(dept), boss REF(emp), PRIMARY KEY id USING ttree)")
	db.MustExec("CREATE INDEX ON emp (age) USING ttree")
	db.MustExec("INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (459, 'x')")
	db.MustExec("INSERT INTO emp VALUES (0, 'Dave', 23, 10.5, REF(dept, id, 1), NULL)")
	for i := 1; i < 12; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO emp VALUES (%d, 'e%d', %d, %d.25, REF(dept, id, %d), REF(emp, id, %d))",
			i, i%5, 20+i*7%50, i*3, 1+i%2, i/2))
	}
	return db
}

// readSeeds reads the SQL parser's seed file: one Go string literal a
// line, skipping blank lines and # comments.
func readSeeds(tb testing.TB, path string) []string {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%s: %q: %v", path, line, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// execOutcome is everything a caller sees of one Exec: rows, rows
// affected, plan (wall times masked) and error.
func execOutcome(db *Database, sql string) string {
	r, err := db.Exec(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%d affected\n%s%s", r.RowsAffected, rowsText(r), maskTrace(r.Plan()))
}

// FuzzExecCached: a statement the cache serves answers as a cold parse
// and build does. The input and a sibling — its digits shifted, so a
// shape may recur with other literals — run in turn on two databases of
// equal content: on one the cache is emptied before every statement, on
// the other it is kept. Each step must give equal rows, Plan() text and
// errors. The seed corpus is FuzzParseSQL's.
func FuzzExecCached(f *testing.F) {
	for _, s := range readSeeds(f, "internal/sqlparser/testdata/seeds.txt") {
		f.Add(s, uint8(1))
	}
	f.Fuzz(func(t *testing.T, src string, shift uint8) {
		sibling := []byte(src)
		for i, c := range sibling {
			if c >= '0' && c <= '9' {
				sibling[i] = '0' + (c-'0'+shift)%10
			}
		}
		cold, warm := fuzzDB(t), fuzzDB(t)
		for _, s := range []string{src, string(sibling), src} {
			cold.stmts.clear()
			if c, w := execOutcome(cold, s), execOutcome(warm, s); c != w {
				t.Fatalf("%q:\ncold:\n%s\nwarm:\n%s", s, c, w)
			}
		}
	})
}
