package mmdb

import (
	"fmt"
	"testing"
)

// acctIDs returns the ids the query layer sees in acct, ascending.
func acctIDs(t *testing.T, db *Database) []int64 {
	t.Helper()
	res, err := db.Query("acct").Run()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, res.Len())
	for i := range ids {
		ids[i] = res.Row(i)[0].Int()
	}
	return ids
}

// TestFailedCommitLeavesMemoryAsRecovered: a transaction that inserts
// id 2 and then a duplicate id 1 fails at Commit, which drops its log
// records. Nothing of it may stay in memory either — the database must
// serve exactly what recovery rebuilds from the log, through the fluent
// API and through a multi-row SQL INSERT.
func TestFailedCommitLeavesMemoryAsRecovered(t *testing.T) {
	dir := t.TempDir()
	db, acct := openAcct(t, Options{Dir: dir})
	if _, err := acct.Insert(Int(1), Int(10)); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(acct, Int(2), Int(20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(acct, Int(1), Int(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("duplicate key committed")
	}
	if _, err := db.Exec("INSERT INTO acct VALUES (3, 0), (1, 0)"); err == nil {
		t.Fatal("duplicate key committed through SQL")
	}
	served := acctIDs(t, db)
	if len(served) != 1 || served[0] != 1 || acct.Cardinality() != 1 {
		t.Fatalf("after failed commits the database serves ids %v (cardinality %d), want [1]", served, acct.Cardinality())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openAcct(t, Options{Dir: dir})
	defer db2.Close()
	if err := db2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if got := acctIDs(t, db2); len(got) != len(served) || got[0] != served[0] {
		t.Fatalf("recovered ids %v, the database served %v", got, served)
	}
}

// TestKeyFreedInTransactionIsReusable: a key the transaction deletes or
// moves its row off is free for its later inserts, and a key it inserted
// is taken for them; a failed commit leaves every row as it was.
func TestKeyFreedInTransactionIsReusable(t *testing.T) {
	db, acct := openAcct(t, Options{})
	one, _ := acct.Insert(Int(1), Int(10))
	two, _ := acct.Insert(Int(2), Int(20))

	tx := db.Begin()
	tx.Delete(acct, one)
	tx.Insert(acct, Int(1), Int(11))
	tx.Update(acct, two, "id", Int(22))
	tx.Insert(acct, Int(2), Int(21))
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("reusing freed keys: %v", err)
	}
	if got := acctIDs(t, db); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 22 {
		t.Fatalf("ids %v, want [1 2 22]", got)
	}

	tx = db.Begin()
	tx.Insert(acct, Int(5), Int(0))
	tx.Update(acct, two, "id", Int(6))
	tx.Insert(acct, Int(5), Int(0))
	if _, err := tx.Commit(); err == nil {
		t.Fatal("a key inserted twice in one transaction committed")
	}
	if got := acctIDs(t, db); len(got) != 3 || got[2] != 22 {
		t.Fatalf("a failed commit changed the table: ids %v", got)
	}
}

// TestUniqueKeyCheckAllocatesNothing: Commit checks every key an insert
// or key update claims against each unique index, once a row. The check
// reuses one probe per index, so it allocates nothing, found or not, on
// an ordered and on a hashed index.
func TestUniqueKeyCheckAllocatesNothing(t *testing.T) {
	for _, kind := range []IndexKind{TTree, ChainedHash} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("k", []Field{{Name: "id", Type: TypeInt}, {Name: "v", Type: TypeString}}, "id", kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.CreateUniqueIndex("v_key", "v", kind); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 1000; i++ {
			if err := tx.Insert(tbl, Int(int64(2*i)), Str(fmt.Sprintf("v%d", 2*i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		keys := tbl.rel.UniqueKeys()
		if len(keys) != 2 {
			t.Fatalf("%s: %d unique keys registered, want 2", kind, len(keys))
		}
		probes := [][2]Value{{Int(500), Str("v500")}, {Int(501), Str("v501")}} // held, free
		for _, k := range keys {
			for i, p := range probes {
				key := p[k.Field]
				if allocs := testing.AllocsPerRun(100, func() {
					if _, found := k.Lookup(key); found != (i == 0) {
						t.Fatalf("%s %s: key %v found = %v", kind, k.Name, key, found)
					}
				}); allocs != 0 {
					t.Errorf("%s %s: checking key %v allocates %.1f times", kind, k.Name, key, allocs)
				}
			}
		}
	}
}

// TestUniqueIndexKeepsNullKeys: NULL is no value, so NULL keys never
// collide in a unique index, as the primary key or as a secondary index
// of any of the eight structures. Every NULL-keyed row stays in both
// indices — a full scan through the primary one returns it, and a DELETE
// takes exactly its entry out — a unique index builds over a column that
// holds two NULLs, and a duplicate value is still refused.
func TestUniqueIndexKeepsNullKeys(t *testing.T) {
	for _, kind := range []IndexKind{Array, AVLTree, BTree, TTree, ChainedHash, Extendible, LinearHash, ModLinearHash} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openEmpty(t)
			u, err := db.CreateTable("u", []Field{{Name: "id", Type: TypeInt}, {Name: "s", Type: TypeString}}, "id", kind)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := u.CreateUniqueIndex("u_s", "s", kind); err != nil {
				t.Fatal(err)
			}
			for _, row := range [][2]Value{{Int(0), Null}, {Int(1), Null}, {Int(2), Str("a")}, {Null, Str("b")}, {Null, Str("c")}} {
				if _, err := u.Insert(row[0], row[1]); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string, rows int) {
				t.Helper()
				if n := u.Cardinality(); n != rows {
					t.Errorf("%s: cardinality %d, want %d", when, n, rows)
				}
				if n := db.MustExec("SELECT id FROM u").Result.Len(); n != rows {
					t.Errorf("%s: a full scan returned %d rows, want %d", when, n, rows)
				}
				for _, ix := range u.Indexes() {
					if ix.Len() != rows {
						t.Errorf("%s: index %s holds %d entries, want %d", when, ix.Name(), ix.Len(), rows)
					}
				}
			}
			check("after the inserts", 5)
			if _, err := u.CreateUniqueIndex("u_s_again", "s", kind); err != nil {
				t.Errorf("a unique index over two NULLs: %v", err)
			}
			check("after building a unique index", 5)
			if _, err := db.Exec("INSERT INTO u VALUES (3, 'a')"); err == nil {
				t.Error("a duplicate 'a' was accepted")
			}
			db.MustExec("DELETE FROM u WHERE s = 'b'") // NULL id
			db.MustExec("DELETE FROM u WHERE id = 0")  // NULL s
			check("after the deletes", 3)
			if got := rowsText(db.MustExec("SELECT id, s FROM u WHERE s = 'c'")); got != "[NULL c]\n" {
				t.Errorf("the other NULL id's row reads %q", got)
			}
		})
	}
}
