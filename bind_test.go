package mmdb

import "testing"

// TestNamesBindBeforeAnyLock: a name that does not resolve — a select
// column, a GROUP BY key, an aggregate input, SUM without a column, an
// ORDER BY name or ordinal, a ForceJoinOrder name, an UPDATE's SET column
// — fails before the statement takes a lock, and it fails alike through
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
