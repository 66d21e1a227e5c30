package sqlparser

import (
	"strings"
	"testing"
)

func parse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestCreateTable(t *testing.T) {
	st := parse(t, `CREATE TABLE emp (name STRING, id INT, age INT, dept REF(dept), PRIMARY KEY id USING ttree)`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "emp" || len(ct.Cols) != 4 || ct.PrimaryKey != "id" || ct.Using != "ttree" {
		t.Fatalf("%+v", ct)
	}
	if ct.Cols[3].Type != "REF" || ct.Cols[3].RefTable != "dept" {
		t.Fatalf("ref col: %+v", ct.Cols[3])
	}
}

func TestCreateTableRequiresPrimaryKey(t *testing.T) {
	if _, err := Parse(`CREATE TABLE t (a INT)`); err == nil || !strings.Contains(err.Error(), "PRIMARY KEY") {
		t.Fatalf("err=%v", err)
	}
}

func TestCreateIndex(t *testing.T) {
	st := parse(t, `CREATE UNIQUE INDEX ON emp (age) USING mlh`)
	ci := st.(*CreateIndex)
	if ci.Table != "emp" || ci.Column != "age" || !ci.Unique || ci.Using != "mlh" {
		t.Fatalf("%+v", ci)
	}
	ci = parse(t, `create index on emp (name)`).(*CreateIndex)
	if ci.Unique || ci.Using != "" {
		t.Fatalf("%+v", ci)
	}
}

func TestInsert(t *testing.T) {
	st := parse(t, `INSERT INTO emp VALUES ('Dave', 23, 24.5, NULL, true, REF(dept, id, 459)), ('O''Brien', -1, 0.0, null, false, null)`)
	ins := st.(*Insert)
	if ins.Table != "emp" || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	r := ins.Rows[0]
	if r[0].Kind != ExprString || r[0].Str != "Dave" {
		t.Fatalf("str: %+v", r[0])
	}
	if r[1].Kind != ExprInt || r[1].Int != 23 {
		t.Fatalf("int: %+v", r[1])
	}
	if r[2].Kind != ExprFloat || r[2].Float != 24.5 {
		t.Fatalf("float: %+v", r[2])
	}
	if r[3].Kind != ExprNull || r[4].Kind != ExprBool || !r[4].Bool {
		t.Fatalf("null/bool: %+v %+v", r[3], r[4])
	}
	ref := r[5]
	if ref.Kind != ExprRef || ref.Ref.Table != "dept" || ref.Ref.Column != "id" || ref.Ref.Value.Int != 459 {
		t.Fatalf("ref: %+v", ref)
	}
	if ins.Rows[1][0].Str != "O'Brien" {
		t.Fatalf("escape: %q", ins.Rows[1][0].Str)
	}
	if ins.Rows[1][1].Int != -1 {
		t.Fatalf("negative: %+v", ins.Rows[1][1])
	}
}

func TestSelectFull(t *testing.T) {
	st := parse(t, `EXPLAIN SELECT DISTINCT emp.name, dept.name FROM emp JOIN dept ON emp.dept = dept.SELF WHERE age > 65 AND id != 3 LIMIT 10`)
	sel := st.(*Select)
	if !sel.Explain || !sel.Distinct || sel.From != "emp" || sel.Limit != 10 {
		t.Fatalf("%+v", sel)
	}
	if len(sel.Cols) != 2 || sel.Cols[0] != "emp.name" {
		t.Fatalf("cols: %v", sel.Cols)
	}
	if len(sel.Joins) != 1 {
		t.Fatalf("joins: %+v", sel.Joins)
	}
	j := sel.Joins[0]
	if j.Table != "dept" || j.LeftTable != "emp" || j.LeftCol != "dept" || j.RightCol != "" {
		t.Fatalf("join: %+v", j)
	}
	if len(sel.Where) != 2 || sel.Where[0].Op != ">" || sel.Where[1].Op != "!=" {
		t.Fatalf("where: %+v", sel.Where)
	}
}

func TestSelectStar(t *testing.T) {
	sel := parse(t, `SELECT * FROM emp`).(*Select)
	if len(sel.Cols) != 0 || sel.From != "emp" || len(sel.Joins) != 0 || sel.Limit != -1 {
		t.Fatalf("%+v", sel)
	}
}

func TestSelectJoinReversedCondition(t *testing.T) {
	// dept.SELF = emp.dept must normalize the same way as the mirror form.
	sel := parse(t, `SELECT * FROM emp JOIN dept ON dept.SELF = emp.dept`).(*Select)
	j := sel.Joins[0]
	if j.LeftTable != "emp" || j.LeftCol != "dept" || j.RightCol != "" {
		t.Fatalf("%+v", j)
	}
}

// TestSelectJoinChain: chained joins with table aliases. Each step may
// reference any earlier relation by its scope name (alias when given),
// so chains, stars, and self-joins all parse.
func TestSelectJoinChain(t *testing.T) {
	sel := parse(t, `SELECT f.v, d2.name FROM fact AS f JOIN dim1 d1 ON f.k1 = d1.id JOIN dim2 AS d2 ON d1.k2 = d2.id JOIN dim3 d3 ON d3.id = f.k3`).(*Select)
	if sel.From != "fact" || sel.FromAlias != "f" || len(sel.Joins) != 3 {
		t.Fatalf("%+v", sel)
	}
	want := []Join{
		{Table: "dim1", Alias: "d1", LeftTable: "f", LeftCol: "k1", RightCol: "id"},
		{Table: "dim2", Alias: "d2", LeftTable: "d1", LeftCol: "k2", RightCol: "id"},
		{Table: "dim3", Alias: "d3", LeftTable: "f", LeftCol: "k3", RightCol: "id"},
	}
	for i, w := range want {
		if sel.Joins[i] != w {
			t.Fatalf("join %d: %+v, want %+v", i, sel.Joins[i], w)
		}
	}
}

// TestSelectSelfJoinAliases: the same table joined to itself under two
// aliases, each ON side resolving by alias.
func TestSelectSelfJoinAliases(t *testing.T) {
	sel := parse(t, `SELECT a.name, b.name FROM emp a JOIN emp b ON a.boss = b.SELF`).(*Select)
	if sel.FromAlias != "a" || len(sel.Joins) != 1 {
		t.Fatalf("%+v", sel)
	}
	if j := sel.Joins[0]; j.Table != "emp" || j.Alias != "b" || j.LeftTable != "a" || j.LeftCol != "boss" || j.RightCol != "" {
		t.Fatalf("%+v", j)
	}
}

// TestJoinChainErrors: a join step must relate the new relation to an
// earlier one — never itself twice, never two unknown names.
func TestJoinChainErrors(t *testing.T) {
	bad := []string{
		`SELECT * FROM a JOIN b ON b.x = b.y`,
		`SELECT * FROM a JOIN b ON a.x = a.y`,
		`SELECT * FROM a x JOIN b ON a.x = b.y`, // alias shadows the table name
		`SELECT * FROM a JOIN b ON c.x = b.y JOIN c ON c.z = a.x`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "join condition") {
			t.Errorf("Parse(%q): err=%v, want join-condition error", src, err)
		}
	}
}

// TestJoinOfNameInScope: a joined table whose scope name is already in
// scope is no fault of the join condition. Both sides name it, so they
// are taken in written order; the binder, which knows the scope, rejects
// the duplicate name.
func TestJoinOfNameInScope(t *testing.T) {
	for src, want := range map[string]Join{
		`SELECT * FROM fact JOIN fact ON fact.g = fact.id`:           {Table: "fact", LeftTable: "fact", LeftCol: "g", RightCol: "id"},
		`SELECT * FROM fact peer JOIN peer ON peer.g = peer.id`:      {Table: "peer", LeftTable: "peer", LeftCol: "g", RightCol: "id"},
		`SELECT * FROM a JOIN b ON a.x = b.y JOIN b ON b.SELF = b.z`: {Table: "b", LeftTable: "b", RightCol: "z"},
	} {
		sel := parse(t, src).(*Select)
		if j := sel.Joins[len(sel.Joins)-1]; j != want {
			t.Errorf("Parse(%q): last join %+v, want %+v", src, j, want)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	u := parse(t, `UPDATE emp SET age = 25 WHERE id = 23`).(*Update)
	if u.Table != "emp" || u.Column != "age" || u.Value.Int != 25 || len(u.Where) != 1 {
		t.Fatalf("%+v", u)
	}
	d := parse(t, `DELETE FROM emp WHERE age >= 65`).(*Delete)
	if d.Table != "emp" || len(d.Where) != 1 || d.Where[0].Op != ">=" {
		t.Fatalf("%+v", d)
	}
	d = parse(t, `delete from emp`).(*Delete)
	if len(d.Where) != 0 {
		t.Fatalf("%+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC * FROM emp`,
		`SELECT * FROM`,
		`SELECT * FROM emp WHERE`,
		`SELECT * FROM emp WHERE age !! 5`,
		`SELECT * FROM emp extra stuff`, // one bare ident is an alias; two is junk
		`INSERT INTO emp`,
		`INSERT INTO emp VALUES ('unterminated)`,
		`CREATE emp (a INT)`,
		`CREATE TABLE emp (a REF, PRIMARY KEY a)`,
		`SELECT * FROM a JOIN b ON c.x = d.y`,
		`UPDATE emp SET`,
		`SELECT * FROM emp LIMIT x`,
		`SELECT * FROM emp WHERE a = 'x' OR b = 'y'`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	sel := parse(t, "SELECT *\n  FROM emp -- trailing comment\n").(*Select)
	if sel.From != "emp" {
		t.Fatalf("%+v", sel)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select distinct name from emp where age >= 30 limit 5`); err != nil {
		t.Fatal(err)
	}
}
