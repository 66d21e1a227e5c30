package mmdb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// protoDB builds fact(id pk, g, v) with rows rows and peer(id pk, a) with
// rows/4, at slots tuples per partition — the same data in few or many
// partitions.
func protoDB(t testing.TB, rows, slots int) *Database {
	t.Helper()
	return protoDBWith(t, Options{SlotsPerPartition: slots}, rows)
}

// protoDBWith is protoDB under the given options.
func protoDBWith(t testing.TB, opts Options, rows int) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE fact (id INT, g INT, v INT, PRIMARY KEY id USING ttree)")
	db.MustExec("CREATE TABLE peer (id INT, a INT, PRIMARY KEY id USING ttree)")
	fact, _ := db.Table("fact")
	peer, _ := db.Table("peer")
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if err := tx.Insert(fact, Int(int64(i)), Int(int64(i%(rows/4))), Int(int64(i*7))); err != nil {
			t.Fatal(err)
		}
		if i < rows/4 {
			if err := tx.Insert(peer, Int(int64(i)), Int(int64(i%10))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func assertNoLocks(t *testing.T, db *Database, after string) {
	t.Helper()
	if s := db.locks.Stats(); s.Resources != 0 || s.Txns != 0 || s.Waiting != 0 {
		t.Errorf("after %s: lock manager still holds %+v", after, s)
	}
}

// TestReadLocksPerTableNotPerPartition: a read query takes one lock per
// distinct table it names, whether the table has ten partitions or a
// thousand.
func TestReadLocksPerTableNotPerPartition(t *testing.T) {
	queries := []struct {
		sql    string
		tables uint64
	}{
		{"SELECT id, v FROM fact WHERE id = 17", 1},
		{"SELECT id, v FROM fact WHERE id >= 100 AND id < 200", 1},
		{"SELECT id FROM fact WHERE v = 70", 1},
		{"SELECT g, COUNT(id) FROM fact GROUP BY g", 1},
		{"SELECT fact.id, peer.a FROM fact JOIN peer ON fact.g = peer.id WHERE fact.id < 50", 2},
		{"SELECT f.id, h.id FROM fact AS f JOIN fact AS h ON f.g = h.id WHERE f.id < 50", 1},
	}
	const rows = 2000
	for _, slots := range []int{200, 2} {
		db := protoDB(t, rows, slots)
		fact, _ := db.Table("fact")
		parts := len(fact.rel.Partitions())
		if want := rows / slots; parts != want {
			t.Fatalf("slots=%d: fact has %d partitions, want %d", slots, parts, want)
		}
		for _, q := range queries {
			before := db.locks.Stats().Grants
			if _, err := db.Exec(q.sql); err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			if got := db.locks.Stats().Grants - before; got != q.tables {
				t.Errorf("%d partitions: %s took %d locks, want %d", parts, q.sql, got, q.tables)
			}
			assertNoLocks(t, db, q.sql)
		}
	}
}

// TestNoLocksSurviveAnyStatement: whatever a statement does — succeed,
// fail in the parser, the planner or the commit, or get cancelled — the
// lock manager is empty when it returns.
func TestNoLocksSurviveAnyStatement(t *testing.T) {
	db := protoDB(t, 400, 8)
	for _, st := range []struct {
		sql     string
		wantErr bool
	}{
		{"SELECT id, v FROM fact WHERE id = 17", false},
		{"SELECT id FROM fact WHERE id > 10 AND id <= 20", false},
		{"SELECT fact.id, peer.a FROM fact JOIN peer ON fact.g = peer.id", false},
		{"SELECT id, v FROM fact ORDER BY v DESC LIMIT 3", false},
		{"INSERT INTO fact VALUES (1000, 1, 1)", false},
		{"UPDATE fact SET v = 5 WHERE id < 10", false},
		{"DELETE FROM fact WHERE id >= 390", false},
		{"DELETE FROM fact WHERE id = 123456", false},    // no victim
		{"INSERT INTO fact VALUES (17, 1, 1)", true},     // duplicate key: fails at commit
		{"INSERT INTO fact VALUES (2000, 'x', 1)", true}, // wrong type: fails before any lock
		{"UPDATE fact SET v = 'x' WHERE id < 10", true},  // fails after the selection
		{"UPDATE fact SET id = 5 WHERE id = 6", true},    // unique violation at commit
		{"SELECT nope FROM fact", true},                  // fails after the selection ran
		{"SELECT id FROM fact WHERE nope = 1", true},     // fails in the planner
		{"SELECT id FROM nope", true},                    // no such table
		{"SELEC id FROM fact", true},                     // parser
		{"EXPLAIN SELECT id FROM fact WHERE id = 1", false},
		{"EXPLAIN ANALYZE SELECT id FROM fact WHERE id < 9", false},
	} {
		_, err := db.Exec(st.sql)
		if (err != nil) != st.wantErr {
			t.Errorf("%s: err = %v, want error %v", st.sql, err, st.wantErr)
		}
		assertNoLocks(t, db, st.sql)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query("fact").Join("peer", "g", "id").WithContext(ctx).Run(); err == nil {
		t.Error("cancelled query returned no error")
	}
	assertNoLocks(t, db, "a cancelled query")

	// A query inside a transaction keeps its lock until the transaction
	// ends — one lock — and not a moment longer.
	fact, _ := db.Table("fact")
	tx := db.Begin()
	if _, err := db.Query("fact").Where("id", Lt, Int(5)).In(tx).Run(); err != nil {
		t.Fatal(err)
	}
	if s := db.locks.Stats(); s.Resources != 1 || s.Txns != 1 {
		t.Errorf("query in a transaction holds %+v, want 1 resource by 1 txn", s)
	}
	if err := tx.Insert(fact, Int(5000), Int(1), Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	assertNoLocks(t, db, "a committed read-write transaction")
}

// TestPointSelectAllocsIndependentOfTableSize: a primary-key SELECT
// through Exec allocates the same at 1k and at 100k rows — nothing on the
// statement's path walks the relation — whether each run repeats one text
// or brings a new id.
func TestPointSelectAllocsIndependentOfTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-row table")
	}
	const runs = 200
	measure := func(rows int) (same, fresh float64) {
		db := protoDB(t, rows, 0)
		run := func(stmt string) {
			r, err := db.Exec(stmt)
			if err != nil || r.Result.Len() != 1 {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		const stmt = "SELECT id, v FROM fact WHERE id = 500"
		run(stmt)
		same = testing.AllocsPerRun(runs, func() { run(stmt) })
		// A new literal a run, each statement built before the
		// measurement. AllocsPerRun runs once more than it counts.
		stmts := make([]string, runs+1)
		for i := range stmts {
			stmts[i] = fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", i*37%rows)
		}
		next := 0
		fresh = testing.AllocsPerRun(runs, func() {
			run(stmts[next])
			next++
		})
		return same, fresh
	}
	smallSame, smallFresh := measure(1_000)
	largeSame, largeFresh := measure(100_000)
	t.Logf("pk SELECT %.0f / %.0f (one text), %.0f / %.0f (new ids) allocations at 1k / 100k rows",
		smallSame, largeSame, smallFresh, largeFresh)
	// A build that walked the relation allocated ≈1.3 times per partition
	// here (the 100k table has ≈400). The statement allocates twice: the
	// one-row list of the key its unique index holds, and the statement's
	// outcome with its Result. Its shape's template — bound output columns
	// and access path included — comes from the statement cache, and runs
	// uncopied beside the literal, in a pooled run; the phase counters and
	// the index probe's position function are pooled; a serial lookup
	// makes no scheduler handle; and the plan, the decision audit and the
	// query's text are values formatted only when read. The ceiling is
	// that count, with room for the race detector, which drops pooled
	// entries, and for nothing else: a parse, a plan line, a query copy or
	// a pooled chunk on the hit path would cross it.
	ceiling := 2
	if raceEnabled {
		ceiling += 5
	}
	for _, c := range []struct {
		what         string
		small, large float64
	}{{"one text", smallSame, largeSame}, {"new ids", smallFresh, largeFresh}} {
		// The counts are equal; the slack of two is for the race detector,
		// under which sync.Pool drops a pooled lexer or batch now and then.
		if d := c.large - c.small; d > 2 || d < -2 {
			t.Errorf("pk SELECT (%s) allocates %.0f times at 1k rows and %.0f at 100k", c.what, c.small, c.large)
		}
		if c.large > float64(ceiling) {
			t.Errorf("pk SELECT (%s) allocates %.0f times, ceiling %d", c.what, c.large, ceiling)
		}
	}
}

// TestStatementAllocsIndependentOfTableSize pins the rest of the OLTP
// mix as TestPointSelectAllocsIndependentOfTableSize pins the point
// select: a 100-row primary-key range SELECT (one text, and a new range
// a run), a primary-key DELETE and an INSERT through Exec allocate the
// same at 1k and at 100k rows, under a ceiling.
func TestStatementAllocsIndependentOfTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100k-row tables")
	}
	const runs = 200
	type counts struct{ rng, freshRng, del, ins float64 }
	// each measures a statement a run, each built before the measurement.
	// AllocsPerRun runs once more than it counts.
	each := func(db *Database, format string, arg func(i int) []any, check func(*ExecResult) bool) float64 {
		stmts := make([]string, runs+1)
		for i := range stmts {
			stmts[i] = fmt.Sprintf(format, arg(i)...)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if r, err := db.Exec(stmts[next]); err != nil || !check(r) {
				t.Fatalf("%s: %v", stmts[next], err)
			}
			next++
		})
	}
	measure := func(rows int) (c counts) {
		db := protoDB(t, rows, 0)
		hundred := func(r *ExecResult) bool { return r.Result.Len() == 100 }
		one := func(r *ExecResult) bool { return r.RowsAffected == 1 }
		c.rng = each(db, "SELECT id, v FROM fact WHERE id >= %d AND id < %d", func(int) []any { return []any{300, 400} }, hundred)
		c.freshRng = each(db, "SELECT id, v FROM fact WHERE id >= %d AND id < %d",
			func(i int) []any { lo := i * 3 % (rows - 100); return []any{lo, lo + 100} }, hundred)
		c.del = each(db, "DELETE FROM fact WHERE id = %d", func(i int) []any { return []any{2*i + 1} }, one)
		c.ins = each(db, "INSERT INTO fact VALUES (%d, %d, %d)", func(i int) []any { return []any{rows + i, i, -i} }, one)
		return c
	}
	small, large := measure(1_000), measure(100_000)
	t.Logf("range SELECT %.0f / %.0f (one text), %.0f / %.0f (new ranges), DELETE %.0f / %.0f, INSERT %.0f / %.0f allocations at 1k / 100k rows",
		small.rng, large.rng, small.freshRng, large.freshRng, small.del, large.del, small.ins, large.ins)
	// Ceilings: the counts measured on a hit of the statement cache, plus
	// the race detector's slack. The range SELECT's 4 are the outcome with
	// its Result, and the probe's list: header, chunk directory and the
	// exact-fit copy its pooled chunk is settled into. The strict upper
	// bound folds into the probe, so no residual filter copies the list,
	// and the range visitor is pooled. The DELETE's 2 are the one-row list
	// of the key and the outcome; the INSERT's 2 the committed tuples and
	// the outcome. The writes' transactions are pooled, and an INSERT
	// stages its values from the stack.
	rangeCeiling, delCeiling, insCeiling := 4, 2, 2
	if raceEnabled {
		rangeCeiling, delCeiling, insCeiling = rangeCeiling+5, delCeiling+5, insCeiling+5
	}
	for _, c := range []struct {
		what         string
		small, large float64
		ceiling      int
	}{
		{"100-row range SELECT (one text)", small.rng, large.rng, rangeCeiling},
		{"100-row range SELECT (new ranges)", small.freshRng, large.freshRng, rangeCeiling},
		{"pk DELETE", small.del, large.del, delCeiling},
		{"INSERT", small.ins, large.ins, insCeiling},
	} {
		if d := c.large - c.small; d > 2 || d < -2 {
			t.Errorf("%s allocates %.0f times at 1k rows and %.0f at 100k", c.what, c.small, c.large)
		}
		if c.large > float64(c.ceiling) {
			t.Errorf("%s allocates %.0f times, ceiling %d", c.what, c.large, c.ceiling)
		}
	}
}

// TestStatementHitBytes pins the bytes a hit of the statement cache
// allocates — a primary-key SELECT, a 100-row range SELECT, a primary-key
// DELETE and an INSERT, each bringing new literals — and checks they are
// the same at 1k and at 100k rows. A statement's bytes are the median of
// its runs' runtime.MemStats.TotalAlloc deltas: the storage an INSERT
// adds to the table in steps (a slab chunk, an index node) lands on a few
// runs, and is the table's, not the statement's.
func TestStatementHitBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100k-row tables")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled entries at random, so a hit's bytes vary")
	}
	const runs = 301 // DELETE ids 1..2*runs+1 stay below 1k
	type bytes struct{ point, rng, del, ins uint64 }
	// each is the median bytes a run of the statements allocates; every
	// statement is built before the measurement, and a run of the shape
	// before it builds the template.
	each := func(db *Database, format string, arg func(i int) []any, check func(*ExecResult) bool) uint64 {
		stmts := make([]string, runs+1)
		for i := range stmts {
			stmts[i] = fmt.Sprintf(format, arg(i)...)
		}
		exec := func(s string) {
			if r, err := db.Exec(s); err != nil || !check(r) {
				t.Fatalf("%s: %v", s, err)
			}
		}
		exec(stmts[runs])
		deltas := make([]uint64, runs)
		var before, after runtime.MemStats
		for i, s := range stmts[:runs] {
			runtime.ReadMemStats(&before)
			exec(s)
			runtime.ReadMemStats(&after)
			deltas[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(deltas)
		return deltas[runs/2]
	}
	measure := func(rows int) (b bytes) {
		db := protoDB(t, rows, 0)
		hundred := func(r *ExecResult) bool { return r.Result.Len() == 100 }
		one := func(r *ExecResult) bool { return r.RowsAffected == 1 }
		b.point = each(db, "SELECT id, v FROM fact WHERE id = %d", func(i int) []any { return []any{i * 37 % rows} }, one)
		b.rng = each(db, "SELECT id, v FROM fact WHERE id >= %d AND id < %d",
			func(i int) []any { lo := i * 3 % (rows - 100); return []any{lo, lo + 100} }, hundred)
		b.del = each(db, "DELETE FROM fact WHERE id = %d", func(i int) []any { return []any{2*i + 1} }, one)
		b.ins = each(db, "INSERT INTO fact VALUES (%d, %d, %d)", func(i int) []any { return []any{rows + i, i, -i} }, one)
		return b
	}
	small, large := measure(1_000), measure(100_000)
	t.Logf("bytes a hit at 1k / 100k rows: pk SELECT %d / %d, 100-row range SELECT %d / %d, DELETE %d / %d, INSERT %d / %d",
		small.point, large.point, small.rng, large.rng, small.del, large.del, small.ins, large.ins)
	// Ceilings: the bytes measured. A hit allocates only its answer. The
	// SELECTs' outcome with its Result is 320 bytes; a point SELECT adds
	// its one-row list (160); a 100-row range its list header (128), chunk
	// directory (24) and 100 settled row pointers (896, the size class of
	// 800). The writes' outcome is 48 bytes; a DELETE adds the one-row list
	// of its key, an INSERT its committed tuple's pointer (8). A query copy,
	// a residual copy, a pooled chunk left in a result or a transaction
	// would cross them.
	for _, c := range []struct {
		what         string
		small, large uint64
		ceiling      uint64
	}{
		{"pk SELECT", small.point, large.point, 480},
		{"100-row range SELECT", small.rng, large.rng, 1368},
		{"pk DELETE", small.del, large.del, 208},
		{"INSERT", small.ins, large.ins, 56},
	} {
		if c.small != c.large {
			t.Errorf("%s allocates %d bytes at 1k rows and %d at 100k", c.what, c.small, c.large)
		}
		if c.large > c.ceiling {
			t.Errorf("%s allocates %d bytes, ceiling %d", c.what, c.large, c.ceiling)
		}
	}
}
