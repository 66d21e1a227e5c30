package mmdb

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
)

// ExecResult is the outcome of Exec: a query Result for SELECT, a
// rows-affected count for DML, and the plan description where one exists.
type ExecResult struct {
	Result       *Result // SELECT only (nil for EXPLAIN and non-queries)
	RowsAffected int
	explain      string      // EXPLAIN's planned text
	trace        *QueryTrace // EXPLAIN ANALYZE's executed trace
}

// Plan describes the statement's plan: the executed plan of a SELECT
// (Result.Plan), the planned one of an EXPLAIN, the operator trace of an
// EXPLAIN ANALYZE; "" for other statements. Like Result.Plan, it is
// rendered each time it is read.
func (r *ExecResult) Plan() string {
	switch {
	case r.Result != nil:
		return r.Result.Plan()
	case r.trace != nil:
		return r.trace.Format()
	}
	return r.explain
}

// Exec parses and executes one SQL statement. The dialect covers the
// engine's capabilities: CREATE TABLE (with REF(table) tuple-pointer
// columns and a mandatory PRIMARY KEY index), CREATE [UNIQUE] INDEX,
// INSERT (with REF(table, column, value) pointer literals), SELECT with
// one JOIN / WHERE conjunctions / DISTINCT / aggregates (COUNT, SUM,
// MIN, MAX, AVG) / GROUP BY / ORDER BY (columns or 1-based output
// ordinals, ASC|DESC) / LIMIT (pushed into the scan or join for early
// exit), EXPLAIN SELECT (planned choices, nothing executed), EXPLAIN
// ANALYZE SELECT (executed operator trace with rows, wall time, and
// §3.1 counters), UPDATE, and DELETE (both read and write inside one
// transaction). Statements run through the same planner as the fluent
// API.
func (db *Database) Exec(sql string) (*ExecResult, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *sqlparser.CreateTable:
		return db.execCreateTable(s)
	case *sqlparser.CreateIndex:
		return db.execCreateIndex(s)
	case *sqlparser.Insert:
		return db.execInsert(s)
	case *sqlparser.Select:
		return db.execSelect(s)
	case *sqlparser.Update:
		return db.execUpdate(s)
	case *sqlparser.Delete:
		return db.execDelete(s)
	default:
		return nil, fmt.Errorf("mmdb: unsupported statement %T", st)
	}
}

// MustExec is Exec that panics on error; for tests and examples.
func (db *Database) MustExec(sql string) *ExecResult {
	r, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return r
}

func sqlKind(name string) (IndexKind, error) {
	switch strings.ToLower(name) {
	case "", "ttree":
		return TTree, nil
	case "avl":
		return AVLTree, nil
	case "btree":
		return BTree, nil
	case "array":
		return Array, nil
	case "mlh", "modlinearhash":
		return ModLinearHash, nil
	case "chained", "chainedhash":
		return ChainedHash, nil
	case "extendible":
		return Extendible, nil
	case "linear", "linearhash":
		return LinearHash, nil
	default:
		return 0, fmt.Errorf("mmdb: unknown index kind %q", name)
	}
}

func (db *Database) execCreateTable(s *sqlparser.CreateTable) (*ExecResult, error) {
	fields := make([]Field, 0, len(s.Cols))
	for _, c := range s.Cols {
		f := Field{Name: c.Name}
		switch c.Type {
		case "INT", "INTEGER":
			f.Type = TypeInt
		case "FLOAT", "REAL":
			f.Type = TypeFloat
		case "STRING", "TEXT", "VARCHAR":
			f.Type = TypeString
		case "BOOL", "BOOLEAN":
			f.Type = TypeBool
		case "REF":
			f.Type = TypeRef
			f.ForeignKey = c.RefTable
		default:
			return nil, fmt.Errorf("mmdb: unknown column type %q", c.Type)
		}
		fields = append(fields, f)
	}
	kind, err := sqlKind(s.Using)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateTable(s.Name, fields, s.PrimaryKey, kind); err != nil {
		return nil, err
	}
	return &ExecResult{}, nil
}

func (db *Database) execCreateIndex(s *sqlparser.CreateIndex) (*ExecResult, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("mmdb: no table %q", s.Table)
	}
	kind, err := sqlKind(s.Using)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("ix_%s_%s", s.Table, s.Column)
	if s.Unique {
		_, err = t.CreateUniqueIndex(name, s.Column, kind)
	} else {
		_, err = t.CreateIndex(name, s.Column, kind)
	}
	if err != nil {
		return nil, err
	}
	return &ExecResult{}, nil
}

// resolveExpr converts a parsed expression into a Value, resolving REF
// expressions to tuple pointers by a unique lookup.
func (db *Database) resolveExpr(e sqlparser.Expr) (Value, error) {
	switch e.Kind {
	case sqlparser.ExprNull:
		return Null, nil
	case sqlparser.ExprInt:
		return Int(e.Int), nil
	case sqlparser.ExprFloat:
		return Float(e.Float), nil
	case sqlparser.ExprString:
		return Str(e.Str), nil
	case sqlparser.ExprBool:
		return Bool(e.Bool), nil
	case sqlparser.ExprRef:
		inner, err := db.resolveExpr(*e.Ref.Value)
		if err != nil {
			return Null, err
		}
		res, err := db.Query(e.Ref.Table).Where(e.Ref.Column, Eq, inner).Run()
		if err != nil {
			return Null, err
		}
		switch res.Len() {
		case 0:
			return Null, fmt.Errorf("mmdb: REF(%s, %s, %s) matches no row", e.Ref.Table, e.Ref.Column, inner)
		case 1:
			return Ref(res.Tuples(0)[0]), nil
		default:
			return Null, fmt.Errorf("mmdb: REF(%s, %s, %s) matches %d rows", e.Ref.Table, e.Ref.Column, inner, res.Len())
		}
	default:
		return Null, fmt.Errorf("mmdb: bad expression kind %d", e.Kind)
	}
}

func (db *Database) execInsert(s *sqlparser.Insert) (*ExecResult, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("mmdb: no table %q", s.Table)
	}
	tx := db.Begin()
	for _, row := range s.Rows {
		vals := make([]Value, len(row))
		for i, e := range row {
			v, err := db.resolveExpr(e)
			if err != nil {
				tx.Abort()
				return nil, err
			}
			vals[i] = v
		}
		if err := tx.Insert(t, vals...); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	ins, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: len(ins)}, nil
}

func sqlOp(op string) (Op, error) {
	switch op {
	case "=":
		return Eq, nil
	case "!=":
		return Ne, nil
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	default:
		return 0, fmt.Errorf("mmdb: bad operator %q", op)
	}
}

// buildQuery assembles the fluent query for a parsed SELECT (or the
// selection part of UPDATE/DELETE).
func (db *Database) buildQuery(from, fromAlias string, where []sqlparser.Cond, joins []sqlparser.Join, cols []string, distinct bool) (*Query, error) {
	q := db.Query(from)
	if fromAlias != "" {
		q = q.As(fromAlias)
	}
	for _, c := range where {
		op, err := sqlOp(c.Op)
		if err != nil {
			return nil, err
		}
		v, err := db.resolveExpr(c.Value)
		if err != nil {
			return nil, err
		}
		q = q.Where(c.Column, op, v)
	}
	for _, j := range joins {
		// The parser records SELF as an empty column; the fluent API
		// spells it Self. The left side arrives qualified by the scope
		// name the ON clause used, so aliases resolve.
		lc := j.LeftTable + "." + j.LeftCol
		if j.LeftCol == "" {
			lc = j.LeftTable + "." + Self
		}
		rc := j.RightCol
		if rc == "" {
			rc = Self
		}
		q = q.JoinAs(j.Table, j.Alias, lc, rc)
	}
	if len(cols) > 0 {
		q = q.Select(cols...)
	}
	if distinct {
		q = q.Distinct()
	}
	return q, nil
}

// sqlAggFunc maps a parsed aggregate name to the fluent-API tag.
func sqlAggFunc(name string) (AggFunc, error) {
	switch name {
	case "COUNT":
		return AggCount, nil
	case "SUM":
		return AggSum, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "AVG":
		return AggAvg, nil
	default:
		return 0, fmt.Errorf("mmdb: unknown aggregate %q", name)
	}
}

// applySelectShape maps the parsed GROUP BY / aggregate select list /
// ORDER BY / LIMIT clauses onto the fluent query. A grouped query's
// output is its group keys followed by its aggregates, so a select list
// containing aggregates must be written that way: the GROUP BY columns
// in order, then aggregates only.
func applySelectShape(q *Query, s *sqlparser.Select) (*Query, error) {
	if len(s.Items) > 0 {
		var plain []string
		sawAgg := false
		for _, it := range s.Items {
			if it.Agg == "" {
				if sawAgg {
					return nil, fmt.Errorf("mmdb: select list must be the GROUP BY columns followed by aggregates; %q appears after an aggregate", it.Col)
				}
				plain = append(plain, it.Col)
				continue
			}
			sawAgg = true
		}
		if len(plain) != len(s.GroupBy) {
			return nil, fmt.Errorf("mmdb: select list has %d non-aggregate column(s) but GROUP BY names %d", len(plain), len(s.GroupBy))
		}
		for i, col := range plain {
			if col != s.GroupBy[i] {
				return nil, fmt.Errorf("mmdb: select-list column %q must match GROUP BY column %q (position %d)", col, s.GroupBy[i], i+1)
			}
		}
		if len(s.GroupBy) > 0 {
			q = q.GroupBy(s.GroupBy...)
		}
		for _, it := range s.Items {
			if it.Agg == "" {
				continue
			}
			fn, err := sqlAggFunc(it.Agg)
			if err != nil {
				return nil, err
			}
			q = q.Agg(fn, it.Col)
		}
	} else if len(s.GroupBy) > 0 {
		// GROUP BY without aggregates: the select list (if any) must be
		// exactly the group columns; the output is one row per group.
		if len(s.Cols) > 0 {
			if len(s.Cols) != len(s.GroupBy) {
				return nil, fmt.Errorf("mmdb: select list has %d column(s) but GROUP BY names %d", len(s.Cols), len(s.GroupBy))
			}
			for i, col := range s.Cols {
				if col != s.GroupBy[i] {
					return nil, fmt.Errorf("mmdb: select-list column %q must match GROUP BY column %q (position %d)", col, s.GroupBy[i], i+1)
				}
			}
		}
		q = q.GroupBy(s.GroupBy...)
	}
	for _, o := range s.OrderBy {
		q = q.OrderBy(o.Col, o.Desc)
	}
	if s.Limit >= 0 {
		q = q.Limit(s.Limit)
	}
	return q, nil
}

func (db *Database) execSelect(s *sqlparser.Select) (*ExecResult, error) {
	q, err := db.buildQuery(s.From, s.FromAlias, s.Where, s.Joins, s.Cols, s.Distinct)
	if err != nil {
		return nil, err
	}
	if q, err = applySelectShape(q, s); err != nil {
		return nil, err
	}
	if s.Explain && s.Analyze {
		// EXPLAIN ANALYZE: execute and report the operator trace — per
		// operator rows in/out, wall time, and §3.1 counters.
		_, trace, err := q.Analyze()
		if err != nil {
			return nil, err
		}
		return &ExecResult{trace: trace}, nil
	}
	if s.Explain {
		// Plain EXPLAIN: describe the planned choices without executing.
		planned, err := q.Explain()
		if err != nil {
			return nil, err
		}
		return &ExecResult{explain: planned}, nil
	}
	res, err := q.Run()
	if err != nil {
		return nil, err
	}
	return &ExecResult{Result: res, RowsAffected: res.Len()}, nil
}

// selectForWrite starts the transaction of an UPDATE or DELETE and runs
// its selection inside it. The target's exclusive relation lock is taken
// before the read: had the selection taken the shared lock first, two
// concurrent statements on one table would both hold it, both ask to
// upgrade, and one would come back as a deadlock victim. On error the
// transaction is already aborted.
func (db *Database) selectForWrite(t *Table, q *Query) (*Txn, *Result, error) {
	tx := db.Begin()
	if err := tx.inner.LockRelationExclusive(t.rel); err != nil {
		return nil, nil, err
	}
	res, err := q.In(tx).Run()
	if err != nil {
		tx.Abort()
		return nil, nil, err
	}
	return tx, res, nil
}

func (db *Database) execUpdate(s *sqlparser.Update) (*ExecResult, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("mmdb: no table %q", s.Table)
	}
	v, err := db.resolveExpr(s.Value)
	if err != nil {
		return nil, err
	}
	q, err := db.buildQuery(s.Table, "", s.Where, nil, nil, false)
	if err != nil {
		return nil, err
	}
	// Read and write inside ONE transaction: the selection runs through
	// the txn's locks, so no other writer can slip between finding the
	// rows and updating them.
	tx, res, err := db.selectForWrite(t, q)
	if err != nil {
		return nil, err
	}
	for i := 0; i < res.Len(); i++ {
		if err := tx.Update(t, res.Tuples(i)[0], s.Column, v); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: res.Len()}, nil
}

func (db *Database) execDelete(s *sqlparser.Delete) (*ExecResult, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("mmdb: no table %q", s.Table)
	}
	q, err := db.buildQuery(s.Table, "", s.Where, nil, nil, false)
	if err != nil {
		return nil, err
	}
	// As in execUpdate: select and delete under the same transaction so
	// the victim set cannot change between the read and the writes.
	tx, res, err := db.selectForWrite(t, q)
	if err != nil {
		return nil, err
	}
	for i := 0; i < res.Len(); i++ {
		if err := tx.Delete(t, res.Tuples(i)[0]); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: res.Len()}, nil
}
