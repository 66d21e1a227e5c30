// SQL: the engine's SQL dialect end to end — DDL with tuple-pointer
// foreign keys, REF(...) pointer literals in INSERT, planned SELECTs with
// EXPLAIN, UPDATE and DELETE. Every statement runs through the same §4
// preference-order planner as the fluent API.
//
//	go run ./examples/sql
package main

import (
	"fmt"
	"log"

	mmdb "repro"
)

func main() {
	db, err := mmdb.Open(mmdb.Options{})
	if err != nil {
		log.Fatal(err)
	}

	stmts := []string{
		`CREATE TABLE dept (name STRING, id INT, PRIMARY KEY id USING ttree)`,
		`CREATE INDEX ON dept (name) USING ttree`,
		`CREATE TABLE emp (name STRING, id INT, age INT, dept REF(dept), PRIMARY KEY id)`,
		`CREATE INDEX ON emp (age) USING ttree`,
		`CREATE INDEX ON emp (name) USING mlh`,
		`INSERT INTO dept VALUES ('Toy', 459), ('Shoe', 409), ('Linen', 411), ('Paint', 455)`,
		`INSERT INTO emp VALUES
		   ('Dave',  23, 24, REF(dept, id, 459)),
		   ('Suzan', 12, 27, REF(dept, id, 459)),
		   ('Yaman', 44, 54, REF(dept, id, 411)),
		   ('Jane',  43, 47, REF(dept, id, 411)),
		   ('Cindy', 22, 22, REF(dept, id, 409)),
		   ('Umar',  51, 68, REF(dept, id, 409)),
		   ('Vera',  52, 71, REF(dept, id, 459))`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			log.Fatalf("%s: %v", s, err)
		}
	}

	show := func(sql string) {
		fmt.Println(">", sql)
		r, err := db.Exec(sql)
		if err != nil {
			log.Fatal(err)
		}
		if plan := r.Plan(); plan != "" {
			fmt.Println("  plan:", plan)
		}
		if r.Result == nil {
			fmt.Printf("  ok, %d rows affected\n\n", r.RowsAffected)
			return
		}
		for i := 0; i < r.Result.Len(); i++ {
			fmt.Println("  ", r.Result.Row(i))
		}
		fmt.Println()
	}

	// Query 1 of §2.1: a range selection feeding a precomputed join.
	show(`SELECT emp.name, emp.age, dept.name FROM emp JOIN dept ON emp.dept = dept.SELF WHERE age > 65`)

	// Query 2 of §2.1: select the department, join by comparing pointers.
	show(`SELECT emp.name FROM dept JOIN emp ON dept.SELF = emp.dept WHERE name = 'Toy'`)

	// The planner explains itself.
	show(`EXPLAIN SELECT * FROM emp WHERE name = 'Dave'`)
	show(`EXPLAIN SELECT emp.name, dept.name FROM emp JOIN dept ON emp.id = dept.id`)

	// DML round trip.
	show(`UPDATE emp SET age = 25 WHERE id = 23`)
	show(`SELECT name, age FROM emp WHERE id = 23`)
	show(`DELETE FROM emp WHERE age >= 65`)
	show(`SELECT DISTINCT dept.name FROM emp JOIN dept ON emp.dept = dept.SELF`)
}
