package mmdb

import (
	"fmt"
	"testing"
	"time"
)

// hitRows is the fact table's size in the statement-hit benchmarks.
const hitRows = 100_000

// hitDB opens a durable database whose log device propagates every 50 ms
// and loads fact(id, p, d1, d2, d3, glo, ghi, v), eight Int columns with a
// T Tree primary key on id, with ids 0..rows-1.
func hitDB(tb testing.TB, rows int) *Database {
	tb.Helper()
	db, err := Open(Options{Dir: tb.TempDir(), DeviceInterval: 50 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	db.MustExec("CREATE TABLE fact (id INT, p INT, d1 INT, d2 INT, d3 INT, glo INT, ghi INT, v INT, PRIMARY KEY id USING ttree)")
	hitLoad(tb, db, 0, rows)
	return db
}

// hitLoad inserts the fact rows with ids lo..hi-1, committing every 10k.
func hitLoad(tb testing.TB, db *Database, lo, hi int) {
	tb.Helper()
	fact, _ := db.Table("fact")
	for start := lo; start < hi; start += 10_000 {
		tx := db.Begin()
		for i := start; i < min(start+10_000, hi); i++ {
			k := int64(i)
			if err := tx.Insert(fact, Int(k), Int(k%97), Int(k%5), Int(k%7), Int(k%11), Int(k%10), Int(k%1000), Int(k*3)); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPointSelectHit is a primary-key SELECT through Exec that hits
// the statement cache, with a new literal each run.
func BenchmarkPointSelectHit(b *testing.B) {
	db := hitDB(b, hitRows)
	stmts := make([]string, 4096)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", i*37%hitRows)
	}
	db.MustExec(stmts[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := db.Exec(stmts[i%len(stmts)])
		if err != nil || r.Result.Len() != 1 {
			b.Fatalf("%s: %v", stmts[i%len(stmts)], err)
		}
	}
}

// BenchmarkPKDeleteHit is a primary-key DELETE through Exec that hits the
// statement cache, each run deleting another row. When every row is gone
// the table is loaded again with the timer stopped.
func BenchmarkPKDeleteHit(b *testing.B) {
	db := hitDB(b, hitRows)
	stmts := make([]string, hitRows)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("DELETE FROM fact WHERE id = %d", i)
	}
	db.MustExec(stmts[0])
	next := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == hitRows {
			b.StopTimer()
			hitLoad(b, db, 0, hitRows)
			next = 0
			b.StartTimer()
		}
		r, err := db.Exec(stmts[next])
		if err != nil || r.RowsAffected != 1 {
			b.Fatalf("%s: %v", stmts[next], err)
		}
		next++
	}
}
