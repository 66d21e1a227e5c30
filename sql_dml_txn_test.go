package mmdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// dmlDB: flip(id pk, bal int) with n rows at bal = 0.
func dmlDB(t testing.TB, n int) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("flip", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "bal", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(0); i < int64(n); i++ {
		if err := tx.Insert(tbl, Int(i), Int(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// execRetry runs one DML statement, retrying lock victims/stale reads —
// the same retry discipline interactive clients use. Returns the rows
// affected by the attempt that committed.
func execRetry(t *testing.T, db *Database, sql string) int {
	t.Helper()
	for attempt := 0; ; attempt++ {
		r, err := db.Exec(sql)
		if err == nil {
			return r.RowsAffected
		}
		if attempt > 200 {
			t.Errorf("%s: giving up after %d attempts: %v", sql, attempt, err)
			return 0
		}
	}
}

// TestConcurrentUpdateAtomicity is the regression test for the UPDATE/
// DELETE read-then-write race: the selection used to run OUTSIDE the
// transaction, so two statements could select the same rows and both
// apply, double-counting transitions. With the read inside the txn, the
// flip accounting must balance exactly: (0→1 transitions) − (1→0
// transitions) == final number of 1s.
func TestConcurrentUpdateAtomicity(t *testing.T) {
	const rows = 30
	db := dmlDB(t, rows)
	var up, down atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if w%2 == 0 {
					up.Add(int64(execRetry(t, db, `UPDATE flip SET bal = 1 WHERE bal = 0`)))
				} else {
					down.Add(int64(execRetry(t, db, `UPDATE flip SET bal = 0 WHERE bal = 1`)))
				}
			}
		}(w)
	}
	wg.Wait()
	res, err := db.Exec(`SELECT COUNT(*) FROM flip WHERE bal = 1`)
	if err != nil {
		t.Fatal(err)
	}
	ones := res.Result.Row(0)[0].Int()
	if got := up.Load() - down.Load(); got != ones {
		t.Fatalf("transition accounting drifted: %d up - %d down = %d, but %d rows at 1 — a statement updated rows its WHERE no longer matched",
			up.Load(), down.Load(), up.Load()-down.Load(), ones)
	}
	// Row population must be intact.
	res, err = db.Exec(`SELECT COUNT(*) FROM flip`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Row(0)[0].Int() != rows {
		t.Fatalf("row count %d, want %d", res.Result.Row(0)[0].Int(), rows)
	}
}

// TestConcurrentDeleteExactlyOnce: competing DELETEs with the same
// predicate must delete each row exactly once between them — the summed
// RowsAffected equals the initial population.
func TestConcurrentDeleteExactlyOnce(t *testing.T) {
	const rows = 40
	db := dmlDB(t, rows)
	var affected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			affected.Add(int64(execRetry(t, db, `DELETE FROM flip WHERE bal = 0`)))
		}()
	}
	wg.Wait()
	if affected.Load() != rows {
		t.Fatalf("competing DELETEs affected %d rows total, want exactly %d", affected.Load(), rows)
	}
	res, err := db.Exec(`SELECT COUNT(*) FROM flip`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Row(0)[0].Int() != 0 {
		t.Fatalf("%d rows remain", res.Result.Row(0)[0].Int())
	}
}

// TestConcurrentSingleRowDMLNeverDeadlocks is the regression test for the
// spurious deadlock of concurrent SQL DML on one table: UPDATE and DELETE
// used to select under the shared relation lock and then upgrade it, so
// two statements at once both held S, both asked for X, and one came back
// with lock.ErrDeadlock. They now take the exclusive lock before the
// selection and serialize: no statement fails, none needs a retry.
func TestConcurrentSingleRowDMLNeverDeadlocks(t *testing.T) {
	const workers, perWorker = 8, 200
	db := dmlDB(t, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				stmt := fmt.Sprintf("UPDATE flip SET bal = %d WHERE id = %d", id+1, id)
				if id%2 == 1 {
					stmt = fmt.Sprintf("DELETE FROM flip WHERE id = %d", id)
				}
				r, err := db.Exec(stmt)
				if err != nil {
					t.Errorf("%s: %v", stmt, err)
					return
				}
				if r.RowsAffected != 1 {
					t.Errorf("%s: %d rows affected", stmt, r.RowsAffected)
				}
			}
		}(w)
	}
	wg.Wait()
	res, err := db.Query("flip").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != workers*perWorker/2 {
		t.Fatalf("%d rows left, want %d", res.Len(), workers*perWorker/2)
	}
	for i := 0; i < res.Len(); i++ {
		id, bal := res.Row(i)[0].Int(), res.Row(i)[1].Int()
		if id%2 != 0 || bal != id+1 {
			t.Errorf("row id=%d bal=%d: want an even id with bal = id+1", id, bal)
		}
	}
	if s := db.Stats(); s.Deadlocks != 0 {
		t.Errorf("%d deadlocks among single-row statements on one table", s.Deadlocks)
	}
	assertNoLocks(t, db, "the DML streams")
}
