package mmdb

import (
	"fmt"
	"testing"
)

// TestNamesBindBeforeAnyLock: a name that does not resolve — a WHERE
// column, also one qualified by a joined relation; a Join's left or right
// column; an On column, or an On whose sides land on one relation; a
// scope name used twice; a select column, a GROUP BY key, an aggregate
// input, SUM without a column, an ORDER BY name or ordinal, a
// ForceJoinOrder name, an UPDATE's SET column — fails before the
// statement takes a lock, and it fails alike through
// Run, Analyze, Explain and Exec (SELECT, EXPLAIN, EXPLAIN ANALYZE). The
// tables are below the snapshot floor, so every shape would scan under S
// locks; a failed statement counts as no query.
func TestNamesBindBeforeAnyLock(t *testing.T) {
	const rows = 100
	if rows >= snapshotMinRows {
		t.Fatalf("%d rows would scan a snapshot", rows)
	}
	db := protoDB(t, rows, 0)
	const unresolved = `mmdb: cannot resolve column "nope"`
	cases := []struct {
		name string
		q    func() *Query
		sql  string // the statement's SQL; "" when SQL cannot say it
		want string
	}{
		{"WHERE column", func() *Query { return db.Query("fact").Where("nope", Eq, Int(1)).Select("id") },
			"SELECT id FROM fact WHERE nope = 1", unresolved},
		{"WHERE column of a joined relation", func() *Query { return db.Query("fact").Join("peer", "g", "id").Where("peer.a", Eq, Int(1)) },
			"SELECT * FROM fact JOIN peer ON fact.g = peer.id WHERE peer.a = 1", `mmdb: cannot resolve column "peer.a"`},
		{"Join left column", func() *Query { return db.Query("fact").Join("peer", "fact.nope", "id") },
			"SELECT * FROM fact JOIN peer ON fact.nope = peer.id", `mmdb: cannot resolve column "fact.nope"`},
		{"Join right column", func() *Query { return db.Query("fact").Join("peer", "fact.g", "nope") },
			"SELECT * FROM fact JOIN peer ON fact.g = peer.nope", unresolved},
		{"On column", func() *Query {
			return db.Query("fact").Join("peer", "g", "id").JoinAs("peer", "p2", "v", "id").On("fact.nope", "p2.id")
		}, "", `mmdb: cannot resolve column "fact.nope"`},
		{"On within one relation", func() *Query { return db.Query("fact").Join("peer", "g", "id").On("fact.g", "v") },
			"", "mmdb: On must relate two different relations (both sides resolve to fact)"},
		{"duplicate scope name", func() *Query { return db.Query("fact").Join("fact", "g", "id") },
			"SELECT * FROM fact JOIN fact ON fact.g = fact.id", `mmdb: relation name "fact" already in scope; use JoinAs with a distinct alias`},
		{"duplicate alias by As after Join", func() *Query { return db.Query("fact").Join("peer", "g", "id").As("peer") },
			"SELECT * FROM fact peer JOIN peer ON peer.g = peer.id", `mmdb: relation name "peer" already in scope; use JoinAs with a distinct alias`},
		{"select column", func() *Query { return db.Query("fact").Join("peer", "g", "id").Select("id", "nope") },
			"SELECT id, nope FROM fact JOIN peer ON fact.g = peer.id", unresolved},
		{"group key", func() *Query { return db.Query("fact").GroupBy("nope").Agg(AggCount, "") },
			"SELECT nope, COUNT(*) FROM fact GROUP BY nope", unresolved},
		{"aggregate input", func() *Query { return db.Query("fact").GroupBy("g").Agg(AggSum, "nope") },
			"SELECT g, SUM(nope) FROM fact GROUP BY g", unresolved},
		{"SUM without a column", func() *Query { return db.Query("fact").GroupBy("g").Agg(AggSum, "") },
			"", "mmdb: SUM requires a column"},
		{"order name", func() *Query { return db.Query("fact").Select("id").OrderBy("nope", false) },
			"SELECT id FROM fact ORDER BY nope", `mmdb: ORDER BY column "nope" is not an output column`},
		{"order ordinal", func() *Query { return db.Query("fact").Select("id", "v").OrderBy("3", true).Limit(5) },
			"SELECT id, v FROM fact ORDER BY 3 DESC LIMIT 5", "mmdb: ORDER BY ordinal 3 out of range (1..2)"},
		{"forced order", func() *Query {
			return db.Query("fact").Join("peer", "g", "id").JoinAs("peer", "p2", "fact.v", "id").ForceJoinOrder("fact", "peer", "nope")
		}, "", `mmdb: ForceJoinOrder: no relation "nope" in scope`},
	}
	// The first read of Stats takes the tables' statistics. While they
	// stay fresh a read takes no lock, so the grants below count the
	// statement's alone.
	db.Stats()
	g := db.locks.Stats().Grants
	db.Stats()
	if d := db.locks.Stats().Grants - g; d != 0 {
		t.Fatalf("a read of fresh statistics took %d lock grants", d)
	}
	check := func(what string, call func() error, want string) {
		t.Helper()
		grants := db.locks.Stats().Grants
		queries := db.Stats().Queries
		err := call()
		q := db.Stats().Queries - queries
		grants = db.locks.Stats().Grants - grants
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", what, err, want)
		}
		if grants != 0 {
			t.Errorf("%s: took %d lock grants before it failed", what, grants)
		}
		if q != 0 {
			t.Errorf("%s: counted %d queries", what, q)
		}
	}
	for _, c := range cases {
		check(c.name+" (Run)", func() error { _, err := c.q().Run(); return err }, c.want)
		check(c.name+" (Analyze)", func() error { _, _, err := c.q().Analyze(); return err }, c.want)
		check(c.name+" (Explain)", func() error { _, err := c.q().Explain(); return err }, c.want)
		if c.sql == "" {
			continue
		}
		for _, prefix := range []string{"", "EXPLAIN ", "EXPLAIN ANALYZE "} {
			check(c.name+" (Exec "+prefix+")", func() error { _, err := db.Exec(prefix + c.sql); return err }, c.want)
		}
	}
	check("UPDATE SET column", func() error { _, err := db.Exec("UPDATE fact SET nope = 1 WHERE id = 1"); return err },
		`mmdb: table fact has no column "nope"`)
}

// TestBindScope: bind resolves each join edge in the relations in scope
// at its call, so a bare Join or On column that only a relation joined
// later has does not resolve; and names resolve against the final scope
// names, so As binds the same after the Joins as before them.
func TestBindScope(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"CREATE TABLE a (id INT, ab INT, PRIMARY KEY id)",
		"CREATE TABLE b (id INT, bc INT, PRIMARY KEY id)",
		"CREATE TABLE c (id INT, ca INT, PRIMARY KEY id)",
	} {
		db.MustExec(ddl)
	}
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", i, i%7))
		db.MustExec(fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i%5))
		db.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", i, i%3))
	}
	const unresolved = `mmdb: cannot resolve column "ca"`
	for name, q := range map[string]func() *Query{
		"Join": func() *Query { return db.Query("a").Join("b", "ca", "id").Join("c", "bc", "id") },
		"On":   func() *Query { return db.Query("a").Join("b", "ab", "id").On("ca", "b.id").Join("c", "bc", "id") },
	} {
		_, err := q().Run()
		_, xerr := q().Explain()
		if err == nil || err.Error() != unresolved || xerr == nil || xerr.Error() != unresolved {
			t.Errorf("%s on a column only a later relation has: Run %v, Explain %v, want %q", name, err, xerr, unresolved)
		}
	}
	if _, err := db.Query("a").Join("b", "ab", "id").Join("c", "bc", "id").On("ca", "a.id").Run(); err != nil {
		t.Errorf("On after the relation that has its column joined: %v", err)
	}

	shape := func(q *Query) *Query {
		return q.Where("x.id", Lt, Int(8)).Select("x.id", "y.id").OrderBy("x.id", false)
	}
	before, err := shape(db.Query("a").As("x").Join("b", "x.ab", "id").JoinAs("a", "y", "b.bc", "id")).Run()
	if err != nil {
		t.Fatal(err)
	}
	after, err := shape(db.Query("a").Join("b", "x.ab", "id").JoinAs("a", "y", "b.bc", "id").As("x")).Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := func(r *Result) (out [][]Value) {
		for i := 0; i < r.Len(); i++ {
			out = append(out, r.Row(i))
		}
		return out
	}
	if before.Len() == 0 || fmt.Sprint(rows(before)) != fmt.Sprint(rows(after)) {
		t.Errorf("As after Join: rows %v, want, as with As first, %v", rows(after), rows(before))
	}
	if before.Plan() != after.Plan() {
		t.Errorf("As after Join: plan\n%s\nwant, as with As first,\n%s", after.Plan(), before.Plan())
	}
}
