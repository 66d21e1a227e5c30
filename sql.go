package mmdb

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/sqlparser"
	"repro/internal/txn"
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
//
// A statement whose shape ran before — the same tokens, with other
// values in its WHERE comparands, INSERT values or UPDATE SET — is
// neither parsed nor built again: the database's statement cache holds
// its built template, which Exec fills with the statement's values.
func (db *Database) Exec(sql string) (*ExecResult, error) {
	x, err := sqlparser.Lex(sql)
	if err != nil {
		return nil, err
	}
	defer x.Release()
	tm := db.stmts.lookup(x)
	if tm == nil {
		st, err := x.Parse()
		if err != nil {
			return nil, err
		}
		switch s := st.(type) {
		case *sqlparser.CreateTable:
			return db.execCreateTable(s)
		case *sqlparser.CreateIndex:
			return db.execCreateIndex(s)
		}
		if tm, err = db.build(st); err != nil {
			return nil, err
		}
		if tm.cacheable {
			db.stmts.add(x, tm)
		}
	}
	lits, err := x.Literals()
	if err != nil {
		return nil, err
	}
	return db.run(tm, lits)
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

// A statement template is a statement built once: the bound query of a
// SELECT, UPDATE or DELETE, or the target table of an INSERT, with every
// value the statement supplies named by the literal it comes from. Exec
// runs every statement through one: a miss builds it, then runs it with
// the statement's literals; a hit only runs it. A run of a SELECT, UPDATE
// or DELETE executes the template's one query with the statement's
// predicate values beside it (runWith), and an INSERT stages fresh value
// storage for its rows, so a cached template, shared by concurrent Execs,
// is never copied or written.
type stmtTemplate struct {
	verb stmtVerb
	// q is the bound selection of a SELECT, UPDATE or DELETE; preds[i] is
	// where its predicate i takes its value from.
	q     *Query
	preds []arg
	t     *Table // the target of an INSERT, UPDATE or DELETE
	// field and set are an UPDATE's SET: the column's field ordinal and
	// its value.
	field int
	set   arg
	rows  [][]arg // an INSERT's rows
	// cacheable is false when a value came from a REF lookup, which
	// every run of the statement must make again.
	cacheable bool
}

type stmtVerb uint8

const (
	verbSelect stmtVerb = iota
	verbExplain
	verbAnalyze
	verbInsert
	verbUpdate
	verbDelete
)

// arg is one value a statement supplies: a literal slot, filled from
// each run's own literals, or a value fixed when the template was built
// (NULL, TRUE, FALSE, or the tuple a REF found).
type arg struct {
	slot int   // 1-based into the statement's literals; 0 = fixed
	v    Value // the fixed value; a slot's placeholder: the building statement's literal
}

func (a arg) value(lits []sqlparser.Expr) Value {
	if a.slot == 0 {
		return a.v
	}
	return literalValue(lits[a.slot-1])
}

// arg names where a parsed expression's value comes from; a REF is
// resolved now and makes the template uncacheable. A slot keeps its
// literal as a placeholder of the value's type, which the build checks:
// every statement of the template's shape has a literal of that kind
// there (sqlparser's Matches).
func (tm *stmtTemplate) arg(db *Database, e sqlparser.Expr) (arg, error) {
	if e.Slot > 0 {
		return arg{slot: e.Slot, v: literalValue(e)}, nil
	}
	if e.Kind == sqlparser.ExprRef {
		tm.cacheable = false
	}
	v, err := db.resolveExpr(e)
	return arg{v: v}, err
}

// literalValue is the value of a number or string literal.
func literalValue(e sqlparser.Expr) Value {
	switch e.Kind {
	case sqlparser.ExprInt:
		return Int(e.Int)
	case sqlparser.ExprFloat:
		return Float(e.Float)
	}
	return Str(e.Str)
}

// resolveExpr converts a parsed expression into a Value, resolving REF
// expressions to tuple pointers by a unique lookup.
func (db *Database) resolveExpr(e sqlparser.Expr) (Value, error) {
	switch e.Kind {
	case sqlparser.ExprNull:
		return Null, nil
	case sqlparser.ExprInt, sqlparser.ExprFloat, sqlparser.ExprString:
		return literalValue(e), nil
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

// build makes the template of a parsed SELECT, INSERT, UPDATE or DELETE,
// binds its query and checks each value it writes against the target's
// schema: a name that does not resolve, or a value its column cannot
// hold, fails the build, before any lock is taken, with the error the run
// would have given. A template that builds is complete: a run of its
// shape fails only on the data (a duplicate key) or the lock manager
// (a deadlock), so Exec caches it as soon as it is built.
func (db *Database) build(st sqlparser.Statement) (*stmtTemplate, error) {
	tm := &stmtTemplate{cacheable: true}
	var err error
	var column string // an UPDATE's SET column, resolved once the query binds
	switch s := st.(type) {
	case *sqlparser.Select:
		switch {
		case s.Explain && s.Analyze:
			tm.verb = verbAnalyze
		case s.Explain:
			tm.verb = verbExplain
		}
		if err = tm.selection(db, s.From, s.FromAlias, s.Where, s.Joins, s.Cols, s.Distinct); err == nil {
			tm.q, err = applySelectShape(tm.q, s)
		}
	case *sqlparser.Insert:
		tm.verb = verbInsert
		if tm.t, err = db.target(s.Table); err != nil {
			return nil, err
		}
		tm.rows = make([][]arg, len(s.Rows))
		for i, row := range s.Rows {
			tm.rows[i] = make([]arg, len(row))
			vals := make([]Value, len(row))
			for j, e := range row {
				if tm.rows[i][j], err = tm.arg(db, e); err != nil {
					return nil, err
				}
				vals[j] = tm.rows[i][j].v
			}
			if err := tm.t.rel.Schema().Validate(vals); err != nil {
				return nil, err
			}
		}
		return tm, nil
	case *sqlparser.Update:
		tm.verb, column = verbUpdate, s.Column
		if tm.t, err = db.target(s.Table); err != nil {
			return nil, err
		}
		if tm.set, err = tm.arg(db, s.Value); err != nil {
			return nil, err
		}
		err = tm.selection(db, s.Table, "", s.Where, nil, nil, false)
	case *sqlparser.Delete:
		tm.verb = verbDelete
		if tm.t, err = db.target(s.Table); err != nil {
			return nil, err
		}
		err = tm.selection(db, s.Table, "", s.Where, nil, nil, false)
	default:
		return nil, fmt.Errorf("mmdb: unsupported statement %T", st)
	}
	if err == nil {
		var b boundQuery
		b, err = tm.q.bind()
		tm.q.bound = &b
		var dup *scopeError
		if errors.As(err, &dup) { // SQL has no JoinAs
			err = fmt.Errorf("mmdb: relation name %q already in scope; use JOIN %s AS <alias> with a distinct alias", dup.name, dup.table)
		}
	}
	if err == nil && tm.verb == verbUpdate {
		if tm.field = tm.t.ColumnIndex(column); tm.field < 0 {
			err = fmt.Errorf("mmdb: table %s has no column %q", tm.t.Name(), column)
		} else if err = tm.t.rel.Schema().CheckField(tm.field, tm.set.v); err != nil {
			err = fmt.Errorf("txn: %w", err) // as the write, txn.Update, words it
		}
	}
	if err != nil {
		return nil, err
	}
	return tm, nil
}

// target is the table a DML statement writes.
func (db *Database) target(name string) (*Table, error) {
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("mmdb: no table %q", name)
	}
	return t, nil
}

// run instantiates the template with the statement's literals and
// executes it.
func (db *Database) run(tm *stmtTemplate, lits []sqlparser.Expr) (*ExecResult, error) {
	switch tm.verb {
	case verbInsert:
		return db.execInsert(tm, lits)
	case verbUpdate, verbDelete:
		return db.execWrite(tm, lits)
	}
	return db.execSelect(tm, lits)
}

// runWith takes a pooled run of the template's query with this
// statement's predicate values, in tx (nil: a reader of its own).
func (tm *stmtTemplate) runWith(lits []sqlparser.Expr, tx *txn.Txn) *run {
	r := newRun(tm.q, tx)
	for _, a := range tm.preds {
		r.vals = append(r.vals, a.value(lits))
	}
	return r
}

// execInsert runs an INSERT in a pooled transaction: neither it nor
// anything holding it leaves Exec.
func (db *Database) execInsert(tm *stmtTemplate, lits []sqlparser.Expr) (*ExecResult, error) {
	tx := db.txns.BeginPooled()
	defer tx.Recycle()
	var buf [8]Value // Insert copies a row's values, so one of up to 8 columns is staged from here
	for _, row := range tm.rows {
		vals := buf[:0]
		for _, a := range row {
			vals = append(vals, a.value(lits))
		}
		if err := tx.Insert(tm.t.rel, vals); err != nil {
			return nil, err // Recycle aborts
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

// selection builds the template's query: the fluent query of a parsed
// SELECT, or the selection of an UPDATE or DELETE, with an arg for each
// WHERE comparand. An error the fluent API records in the query is left
// there for bind to return.
func (tm *stmtTemplate) selection(db *Database, from, fromAlias string, where []sqlparser.Cond, joins []sqlparser.Join, cols []string, distinct bool) error {
	q := db.Query(from)
	if fromAlias != "" {
		q = q.As(fromAlias)
	}
	tm.preds = make([]arg, len(where))
	for i, c := range where {
		op, err := sqlOp(c.Op)
		if err != nil {
			return err
		}
		if tm.preds[i], err = tm.arg(db, c.Value); err != nil {
			return err
		}
		q = q.Where(c.Column, op, tm.preds[i].v) // bind checks a slot's placeholder; each run brings its value
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
	tm.q = q
	return nil
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

func (db *Database) execSelect(tm *stmtTemplate, lits []sqlparser.Expr) (*ExecResult, error) {
	r := tm.runWith(lits, nil)
	defer r.release()
	switch tm.verb {
	case verbAnalyze:
		// EXPLAIN ANALYZE: execute and report the operator trace — per
		// operator rows in/out, wall time, and §3.1 counters.
		trace, err := r.execute(true, new(Result))
		if err != nil {
			return nil, err
		}
		return &ExecResult{trace: trace}, nil
	case verbExplain:
		// Plain EXPLAIN: describe the planned choices without executing.
		planned, err := r.explain()
		if err != nil {
			return nil, err
		}
		return &ExecResult{explain: planned}, nil
	}
	// The statement's outcome and its query result are one allocation.
	out := new(struct {
		ExecResult
		res Result
	})
	if _, err := r.execute(false, &out.res); err != nil {
		return nil, err
	}
	out.Result, out.RowsAffected = &out.res, out.res.Len()
	return &out.ExecResult, nil
}

// execWrite runs an UPDATE or DELETE: its selection and its writes inside
// one transaction, so no other writer can slip between finding the rows
// and writing them. The target's exclusive relation lock is taken before
// the read: had the selection taken the shared lock first, two concurrent
// statements on one table would both hold it, both ask to upgrade, and
// one would come back as a deadlock victim. The transaction is pooled, as
// an INSERT's is.
func (db *Database) execWrite(tm *stmtTemplate, lits []sqlparser.Expr) (*ExecResult, error) {
	v := tm.set.value(lits)
	tx := db.txns.BeginPooled()
	defer tx.Recycle()
	if err := tx.LockRelationExclusive(tm.t.rel); err != nil {
		return nil, err
	}
	r := tm.runWith(lits, tx)
	defer r.release()
	var res Result
	_, err := r.execute(false, &res)
	for i := 0; err == nil && i < res.Len(); i++ {
		if tm.verb == verbUpdate {
			err = tx.Update(tm.t.rel, res.Tuples(i)[0], tm.field, v)
		} else {
			err = tx.Delete(tm.t.rel, res.Tuples(i)[0])
		}
	}
	if err != nil {
		return nil, err // Recycle aborts
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return &ExecResult{RowsAffected: res.Len()}, nil
}

// stmtCacheSize bounds a database's statement cache, in shapes. A full
// cache drops an arbitrary bucket to admit a new shape. stmtChainMax
// bounds the shapes of one fingerprint a lookup compares with (LIMIT 1,
// LIMIT 2, … share one); the oldest beyond it is dropped.
const (
	stmtCacheSize = 256
	stmtChainMax  = 8
)

// stmtCache maps statement shapes to their built templates, keyed by the
// lexer's fingerprint; statements whose shapes share a fingerprint (LIMIT
// 5 and LIMIT 6 always do) chain in one bucket, and a hit is confirmed
// token by token. Nothing in the catalog can leave a template stale, so
// nothing invalidates one: a template holds its tables and column
// positions, and tables are never dropped nor their schemas changed; a
// statement naming a table that did not exist failed and was not cached;
// and the access path, the only thing a new index changes, is chosen each
// time the query runs.
type stmtCache struct {
	mu      sync.RWMutex
	buckets map[uint64]*stmtEntry
	n       int
}

type stmtEntry struct {
	shape *sqlparser.Shape
	tm    *stmtTemplate
	next  *stmtEntry // same fingerprint, another shape
}

// lookup returns the template of the statement's shape, or nil.
func (c *stmtCache) lookup(x *sqlparser.Lexed) *stmtTemplate {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for e := c.buckets[x.Fingerprint()]; e != nil; e = e.next {
		if x.Matches(e.shape) {
			return e.tm
		}
	}
	return nil
}

// add caches the template of a parsed statement, unless a concurrent
// Exec of its shape already did.
func (c *stmtCache) add(x *sqlparser.Lexed, tm *stmtTemplate) {
	shape := x.Shape()
	fp := x.Fingerprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.buckets[fp]; e != nil; e = e.next {
		if x.Matches(e.shape) {
			return
		}
	}
	if c.buckets == nil {
		c.buckets = make(map[uint64]*stmtEntry)
	}
	for k, e := range c.buckets {
		if c.n < stmtCacheSize {
			break
		}
		for ; e != nil; e = e.next {
			c.n--
		}
		delete(c.buckets, k)
	}
	head := &stmtEntry{shape: shape, tm: tm, next: c.buckets[fp]}
	c.buckets[fp] = head
	c.n++
	for e, i := head, 1; e.next != nil; e, i = e.next, i+1 {
		if i == stmtChainMax {
			e.next = nil
			c.n--
			break
		}
	}
}
