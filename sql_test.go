package mmdb

import (
	"strings"
	"testing"
)

func sqlDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`CREATE TABLE dept (name STRING, id INT, PRIMARY KEY id)`,
		`CREATE INDEX ON dept (name) USING ttree`,
		`CREATE TABLE emp (name STRING, id INT, age INT, dept REF(dept), PRIMARY KEY id USING ttree)`,
		`CREATE INDEX ON emp (age) USING ttree`,
		`INSERT INTO dept VALUES ('Toy', 459), ('Shoe', 409), ('Linen', 411), ('Paint', 455)`,
		`INSERT INTO emp VALUES
		   ('Dave', 23, 24, REF(dept, id, 459)),
		   ('Suzan', 12, 27, REF(dept, id, 459)),
		   ('Yaman', 44, 54, REF(dept, id, 411)),
		   ('Jane', 43, 47, REF(dept, id, 411)),
		   ('Cindy', 22, 22, REF(dept, id, 409)),
		   ('Umar', 51, 68, REF(dept, id, 409)),
		   ('Vera', 52, 71, REF(dept, id, 459))`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

func TestSQLQuery1(t *testing.T) {
	db := sqlDB(t)
	// The paper's Query 1 in SQL.
	r, err := db.Exec(`SELECT emp.name, emp.age, dept.name FROM emp JOIN dept ON emp.dept = dept.SELF WHERE age > 65`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 2 {
		t.Fatalf("rows=%d plan=%s", r.RowsAffected, r.Plan())
	}
	if !strings.Contains(r.Plan(), "precomputed join") {
		t.Fatalf("plan:\n%s", r.Plan())
	}
	got := map[string]string{}
	for i := 0; i < r.Result.Len(); i++ {
		row := r.Result.Row(i)
		got[row[0].Str()] = row[2].Str()
	}
	if got["Umar"] != "Shoe" || got["Vera"] != "Toy" {
		t.Fatalf("%v", got)
	}
}

func TestSQLQuery2(t *testing.T) {
	db := sqlDB(t)
	// The paper's Query 2: departments selected by name, pointer join to
	// employees.
	all := map[string]bool{}
	for _, d := range []string{"Toy", "Shoe"} {
		r, err := db.Exec(`SELECT emp.name FROM dept JOIN emp ON dept.SELF = emp.dept WHERE name = '` + d + `'`)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.Result.Len(); i++ {
			all[r.Result.Row(i)[0].Str()] = true
		}
	}
	if len(all) != 5 {
		t.Fatalf("%v", all)
	}
}

func TestSQLExplain(t *testing.T) {
	db := sqlDB(t)
	r, err := db.Exec(`EXPLAIN SELECT * FROM emp WHERE id = 23`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result != nil || !strings.Contains(r.Plan(), "tree lookup") {
		t.Fatalf("%+v", r)
	}
}

func TestSQLDistinctAndLimit(t *testing.T) {
	db := sqlDB(t)
	r, err := db.Exec(`SELECT DISTINCT dept.name FROM emp JOIN dept ON emp.dept = dept.SELF`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 3 {
		t.Fatalf("distinct rows=%d", r.RowsAffected)
	}
	r, err = db.Exec(`SELECT name FROM emp LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Len() != 2 {
		t.Fatalf("limit rows=%d", r.Result.Len())
	}
	r, err = db.Exec(`SELECT name FROM emp LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Len() != 0 {
		t.Fatalf("limit 0 rows=%d", r.Result.Len())
	}
}

func TestSQLUpdateDelete(t *testing.T) {
	db := sqlDB(t)
	r, err := db.Exec(`UPDATE emp SET age = 25 WHERE id = 23`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 1 {
		t.Fatalf("update rows=%d", r.RowsAffected)
	}
	chk, _ := db.Exec(`SELECT age FROM emp WHERE id = 23`)
	if chk.Result.Row(0)[0].Int() != 25 {
		t.Fatal("update lost")
	}
	// Range update through the age index, then delete.
	r, err = db.Exec(`UPDATE emp SET age = 65 WHERE age > 65`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 2 {
		t.Fatalf("range update rows=%d", r.RowsAffected)
	}
	r, err = db.Exec(`DELETE FROM emp WHERE age >= 65`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 2 {
		t.Fatalf("delete rows=%d", r.RowsAffected)
	}
	emp, _ := db.Table("emp")
	if emp.Cardinality() != 5 {
		t.Fatalf("cardinality=%d", emp.Cardinality())
	}
	// The index no longer finds the deleted rows.
	chk, _ = db.Exec(`SELECT * FROM emp WHERE age >= 65`)
	if chk.RowsAffected != 0 {
		t.Fatal("deleted rows still visible")
	}
}

func TestSQLRefResolution(t *testing.T) {
	db := sqlDB(t)
	// Ambiguous and missing REFs fail cleanly.
	if _, err := db.Exec(`INSERT INTO emp VALUES ('X', 99, 30, REF(dept, id, 999))`); err == nil {
		t.Fatal("dangling REF accepted")
	}
	// The unique primary index on dept.id rejects duplicates outright.
	if _, err := db.Exec(`INSERT INTO dept VALUES ('Dup', 459)`); err == nil {
		t.Fatal("duplicate dept id accepted")
	}
	// NULL ref is fine.
	if _, err := db.Exec(`INSERT INTO emp VALUES ('NoDept', 98, 33, NULL)`); err != nil {
		t.Fatal(err)
	}
}

func TestSQLErrors(t *testing.T) {
	db := sqlDB(t)
	for _, bad := range []string{
		`SELECT * FROM nope`,
		`SELECT nope FROM emp`,
		`INSERT INTO nope VALUES (1)`,
		`INSERT INTO emp VALUES (1)`,                   // arity
		`INSERT INTO emp VALUES ('a', 'b', 'c', NULL)`, // type
		`UPDATE nope SET a = 1`,
		`DELETE FROM nope`,
		`CREATE TABLE emp (a INT, PRIMARY KEY a)`, // duplicate
		`CREATE INDEX ON emp (nope)`,
		`SELECT * FROM emp WHERE nope = 1`,
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSQLSelectStarWithJoin(t *testing.T) {
	db := sqlDB(t)
	r, err := db.Exec(`SELECT * FROM emp JOIN dept ON emp.dept = dept.SELF WHERE id = 23`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Len() != 1 {
		t.Fatalf("rows=%d", r.Result.Len())
	}
	cols := r.Result.Columns()
	if len(cols) != 6 { // 4 emp + 2 dept
		t.Fatalf("cols=%v", cols)
	}
}

// TestSQLMistypedComparandMatchesNothing: a WHERE value of another type
// than its column matches no row — on an index lookup, a range bound, a
// residual filter and the selection of an UPDATE or DELETE — where it
// used to panic in the comparison, and an UPDATE's exclusive lock with it.
func TestSQLMistypedComparandMatchesNothing(t *testing.T) {
	db := protoDB(t, 100, 0)
	for _, s := range []string{
		"SELECT id FROM fact WHERE id = 5.0",
		"SELECT id FROM fact WHERE id = '5'",
		"SELECT id FROM fact WHERE id > 'x'",
		"SELECT id FROM fact WHERE id < 7 AND v = 7.5",
		"SELECT id FROM fact WHERE g != 'x'",
		"UPDATE fact SET v = 1 WHERE g = 2.5",
		"DELETE FROM fact WHERE id >= 1.5",
	} {
		r, err := db.Exec(s)
		if err != nil || r.RowsAffected != 0 {
			t.Errorf("%s: %d rows, %v", s, r.RowsAffected, err)
		}
		assertNoLocks(t, db, s)
	}
	if res, err := db.Query("fact").Where("v", Eq, Str("7")).Run(); err != nil || res.Len() != 0 {
		t.Errorf("fluent mistyped WHERE: %v", err)
	}
}

// TestSQLReachesNonASCIITables: a table and columns the fluent API names
// in any script are names SQL can use.
func TestSQLReachesNonASCIITables(t *testing.T) {
	db := openEmpty(t)
	if _, err := db.CreateTable("café", []Field{{Name: "ñandu", Type: TypeInt}, {Name: "naïve", Type: TypeString}}, "ñandu", TTree); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO café VALUES (1, 'ü'), (2, 'ß')")
	r := db.MustExec("SELECT naïve FROM café WHERE ñandu = 2")
	if r.Result.Len() != 1 || r.Result.Row(0)[0].Str() != "ß" {
		t.Errorf("got %s", rowsText(r))
	}
}
