// mmdb-shell is an interactive SQL shell over the mmdb engine.
//
//	go run ./cmd/mmdb-shell [-dir /path/to/diskcopy]
//
// Lines are SQL statements (the engine's dialect — see package
// repro/internal/sqlparser); dot-commands handle metadata:
//
//	.help                 show help
//	.tables               list tables
//	.schema <table>       columns and indexes
//	.stats                engine metrics snapshot (queries, locks, txns, log, §3.1 ops, bytes per table)
//	.analyze <select>     run the statement and print its operator trace
//	.active               list in-flight queries (phase, rows, worker gauges)
//	.slow                 dump the slow-query log (enable with -slow <duration>)
//	.checkpoint           write all partitions to the disk copy
//	.recover              recover declared tables from the disk copy
//	.quit
//
// Backslash spellings (\stats, \analyze, …) are accepted as aliases.
//
// Example session:
//
//	CREATE TABLE dept (name STRING, id INT, PRIMARY KEY id)
//	CREATE TABLE emp (name STRING, id INT, dept REF(dept), PRIMARY KEY id)
//	INSERT INTO dept VALUES ('Toy', 459)
//	INSERT INTO emp VALUES ('Vera', 52, REF(dept, id, 459))
//	SELECT emp.name, dept.name FROM emp JOIN dept ON emp.dept = dept.SELF
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	mmdb "repro"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "disk-copy directory (enables durability)")
	slow := flag.Duration("slow", 0, "slow-query threshold (enables the slow-query log, e.g. -slow 100ms)")
	flag.Parse()

	db, err := mmdb.Open(mmdb.Options{Dir: *dir, SlowQueryThreshold: *slow})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("mmdb-shell — main-memory DBMS (Lehman & Carey, SIGMOD 1986). '.help' for help.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("mmdb> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit" || line == "quit":
			return
		case strings.HasPrefix(line, ".") || strings.HasPrefix(line, `\`):
			if err := dotCommand(db, line); err != nil {
				fmt.Println("error:", err)
			}
		default:
			runSQL(db, line)
		}
	}
}

func dotCommand(db *mmdb.Database, line string) error {
	fields := strings.Fields(line)
	// Accept both ".cmd" and "\cmd" spellings.
	cmd := "." + strings.TrimLeft(fields[0], `.\`)
	switch cmd {
	case ".help":
		fmt.Println("  SQL: CREATE TABLE t (col TYPE..., PRIMARY KEY col [USING kind]) | CREATE [UNIQUE] INDEX ON t (col) [USING kind]")
		fmt.Println("       INSERT INTO t VALUES (...)  — REF(table, col, value) writes a tuple pointer")
		fmt.Println("       [EXPLAIN [ANALYZE]] SELECT [DISTINCT] cols FROM t [JOIN t2 ON a.x = b.y] [WHERE ...] [LIMIT n]")
		fmt.Println("       UPDATE t SET col = v [WHERE ...] | DELETE FROM t [WHERE ...]")
		fmt.Println("  meta: .tables  .schema <t>  .stats  .analyze <select>  .active  .slow  .checkpoint  .recover  .quit")
		return nil
	case ".stats":
		fmt.Println(indent(db.Stats().String()))
		return nil
	case ".active":
		fmt.Print(indent(obs.FormatActive(db.ActiveQueries())))
		fmt.Println()
		return nil
	case ".slow":
		fmt.Print(indent(obs.FormatSlow(db.SlowQueries())))
		fmt.Println()
		return nil
	case ".analyze":
		sql := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		if sql == "" {
			return fmt.Errorf("usage: .analyze SELECT ...")
		}
		r, err := db.Exec("EXPLAIN ANALYZE " + sql)
		if err != nil {
			return err
		}
		fmt.Println(indent(r.Plan()))
		return nil
	case ".tables":
		for _, n := range db.Tables() {
			t, _ := db.Table(n)
			fmt.Printf("  %-16s %d rows\n", n, t.Cardinality())
		}
		return nil
	case ".schema":
		if len(fields) != 2 {
			return fmt.Errorf("usage: .schema <table>")
		}
		t, ok := db.Table(fields[1])
		if !ok {
			return fmt.Errorf("no table %q", fields[1])
		}
		for _, f := range t.Schema() {
			fk := ""
			if f.ForeignKey != "" {
				fk = " -> " + f.ForeignKey
			}
			fmt.Printf("  %-14s %s%s\n", f.Name, f.Type, fk)
		}
		for _, ix := range t.Indexes() {
			fmt.Printf("  index %-12s on %-12s (%s, %d entries)\n", ix.Name(), ix.Column(), ix.Kind(), ix.Len())
		}
		return nil
	case ".checkpoint":
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("  checkpoint written")
		return nil
	case ".recover":
		if err := db.Recover(nil); err != nil {
			return err
		}
		fmt.Println("  recovered")
		return nil
	case ".quit", ".exit":
		os.Exit(0)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try .help)", fields[0])
	}
}

// indent prefixes every line with two spaces, matching the shell's output
// style for multi-line blocks (stats, traces).
func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

func runSQL(db *mmdb.Database, sql string) {
	r, err := db.Exec(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if plan := r.Plan(); plan != "" {
		fmt.Println("  plan:", strings.ReplaceAll(plan, "\n", "; "))
	}
	if r.Result == nil {
		fmt.Printf("  ok (%d rows affected)\n", r.RowsAffected)
		return
	}
	cols := r.Result.Columns()
	fmt.Println(" ", strings.Join(cols, " | "))
	for i := 0; i < r.Result.Len(); i++ {
		parts := make([]string, len(cols))
		for c, v := range r.Result.Row(i) {
			parts[c] = v.String()
		}
		fmt.Println(" ", strings.Join(parts, " | "))
	}
	fmt.Printf("  (%d rows)\n", r.Result.Len())
}
