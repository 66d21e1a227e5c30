package mmdb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/index/ttree"
	"repro/internal/mem"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/radix"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// Op is a predicate operator.
type Op = plan.CmpOp

// Predicate operators.
const (
	Eq = plan.Eq
	Ne = plan.Ne
	Lt = plan.Lt
	Le = plan.Le
	Gt = plan.Gt
	Ge = plan.Ge
)

// Self joins on tuple identity instead of a column — the pointer-compare
// join of §2.1 Query 2 (the other side's column must be a Ref field).
const Self = "__self__"

// Query is a fluent query over one table, optionally joined to further
// tables. A single join edge runs the paper's preference ordering (§4)
// over its join repertoire; more edges route through the
// cost-forecasted join-order planner and a pipeline of hash-table
// stages, which also runs a two-relation hash join. Explain describes
// the expected choices, Analyze runs the query and reports what
// actually executed.
type Query struct {
	db       *Database
	from     *Table
	tx       *Txn
	rels     []qrel // rels[0] is the from-table; Join/JoinAs append
	joins    []qjoin
	preds    []qpred
	cols     []string
	distinct bool
	groupBy  []string
	aggs     []qagg
	orderBy  []qorder
	limit    int             // -1 = no limit; 0 is a real (empty-result) limit
	par      int             // requested parallelism; 0 = database default
	forced   []string        // ForceJoinOrder relation names; nil = the planner's order
	prio     int             // scheduler admission tiebreak (Priority)
	ctx      context.Context // cancellation scope (WithContext); nil = background
	err      error
	bound    *boundQuery // a statement template's query comes bound; nil = bind on each run
}

// In runs the query inside an existing transaction: its shared locks are
// acquired (and retained, per two-phase locking) by tx instead of an
// ephemeral reader. Use this whenever the surrounding transaction already
// holds locks — an independent reader could queue behind a writer that
// waits on the transaction, a cross-layer deadlock no lock manager sees.
// Use it too to update through a scan's results: outside a transaction a
// full scan of a large table returns snapshot images, which an update
// rejects, while inside one it returns the live tuples.
func (q *Query) In(tx *Txn) *Query {
	q.tx = tx
	return q
}

type qpred struct {
	column string
	op     Op
	val    Value
}

// qrel is one relation in the query's scope: the from-table at index 0,
// then one entry per Join/JoinAs in declaration order. name is the scope
// name — the alias when one was given, else the table name — and is what
// qualified columns, output descriptors, and plan lines use.
type qrel struct {
	t    *Table
	name string
}

// qjoin is one join edge as its call recorded it. scope is how many
// relations were in scope at the call: a Join edge relates rels[scope],
// the relation it added, to one of rels[:scope]; an On edge (closing: the
// cycle-closing predicate of a cyclic join graph) relates two of
// rels[:scope]. bind resolves both columns within those relations.
type qjoin struct {
	scope             int
	leftCol, rightCol string
	closing           bool
}

// AggFunc identifies an aggregate function for Query.Agg.
type AggFunc int

// The aggregate functions. AggCount with an empty column (or "*") is
// COUNT(*); every other combination skips NULL inputs, per SQL.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// aggKind maps the public function tag to the operator's kind.
func aggKind(f AggFunc) agg.Kind {
	switch f {
	case AggSum:
		return agg.Sum
	case AggMin:
		return agg.Min
	case AggMax:
		return agg.Max
	case AggAvg:
		return agg.Avg
	default:
		return agg.Count
	}
}

// qagg is one aggregate of a grouped query.
type qagg struct {
	fn   AggFunc
	col  string // input column; "" or "*" = COUNT(*)
	name string // output column name, e.g. "COUNT(*)"
}

// qorder is one ORDER BY term: an output column name or a 1-based output
// ordinal (as digits, SQL's "ORDER BY 2"), plus its direction.
type qorder struct {
	col  string
	desc bool
}

// Query starts a query over the named table.
func (db *Database) Query(table string) *Query {
	t, ok := db.Table(table)
	q := &Query{db: db, from: t, rels: []qrel{{t: t, name: table}}, limit: -1}
	if !ok {
		q.err = fmt.Errorf("mmdb: no table %q", table)
	}
	return q
}

// As renames the from-table's scope name (a table alias), so qualified
// columns and join conditions can tell multiple uses of one table
// apart: db.Query("emp").As("a").JoinAs("emp", "b", "a.boss", Self).
// Names resolve when the query binds, so As may come before or after
// any Join.
func (q *Query) As(alias string) *Query {
	q.rels[0].name = alias
	return q
}

// Where adds a predicate on a column of the from-table, named "col" or
// "table.col" (the table part must be the from-table's scope name —
// predicates on a joined table are not supported). Multiple predicates
// are conjunctive; the planner serves the most selective indexable one
// through an index and filters the rest during the scan. The column
// resolves when the query binds, before it takes any lock.
func (q *Query) Where(column string, op Op, v Value) *Query {
	q.preds = append(q.preds, qpred{column: column, op: op, val: v})
	return q
}

// Join equijoins an already-joined relation (left) with another table
// (right). leftColumn is "col" (resolved against the relations in scope
// at this call, in declaration order) or "name.col" (name = a table or
// alias in scope at this call); rightColumn is a column of the joined
// table. Either column may be Self to join on tuple identity, enabling
// pointer-compare joins against Ref columns. The columns resolve when the
// query binds, before it takes any lock. Chaining Join calls builds an
// n-way join graph; with three or more relations the planner picks the
// execution order by cost forecast (Query.ForceJoinOrder pins it).
func (q *Query) Join(table, leftColumn, rightColumn string) *Query {
	return q.JoinAs(table, "", leftColumn, rightColumn)
}

// JoinAs is Join with an alias for the newly joined table, required
// when the same table participates more than once (self-joins). It looks
// the table up at once; its columns, and the alias's uniqueness, are
// checked when the query binds.
func (q *Query) JoinAs(table, alias, leftColumn, rightColumn string) *Query {
	if q.err != nil {
		return q
	}
	t, ok := q.db.Table(table)
	if !ok {
		q.err = fmt.Errorf("mmdb: no table %q", table)
		return q
	}
	name := table
	if alias != "" {
		name = alias
	}
	q.joins = append(q.joins, qjoin{scope: len(q.rels), leftCol: leftColumn, rightCol: rightColumn})
	q.rels = append(q.rels, qrel{t: t, name: name})
	return q
}

// On adds an extra equijoin edge between two relations in scope at this
// call — the closing edge of a cyclic join graph. Each side is "col",
// "name.col", or "name.SELF" (resolved like Join's left side); the two
// sides must land on different relations, which bind checks. The
// pipeline enforces closing edges after the hash match of whichever
// stage binds their second relation, whatever order the planner picks.
func (q *Query) On(leftColumn, rightColumn string) *Query {
	q.joins = append(q.joins, qjoin{scope: len(q.rels), leftCol: leftColumn, rightCol: rightColumn, closing: true})
	return q
}

// ForceJoinOrder pins the multi-join execution order to the named
// relations (scope names — aliases where given), driver first, in place
// of the cost-forecasted enumerator's (exact DP up to plan.DPMaxRels
// relations, greedy beyond). The list must name every relation exactly
// once, and each relation after the first must share a join edge with
// the ones before it (the pipeline cannot execute cross products). A
// query with a single join edge has no order to choose and ignores it.
func (q *Query) ForceJoinOrder(names ...string) *Query {
	q.forced = append([]string{}, names...)
	return q
}

// Select names the output columns: "col" (resolved against the from-table
// first, then the joined table) or "table.col". Without Select, every
// column of every involved table is output. The names resolve when the
// query runs or is explained, before it takes any lock; a name that does
// not resolve fails Run, Analyze and Explain alike.
func (q *Query) Select(columns ...string) *Query {
	q.cols = append(q.cols, columns...)
	return q
}

// Distinct eliminates duplicate output rows (by hashing — the dominant
// method, §3.4).
func (q *Query) Distinct() *Query {
	q.distinct = true
	return q
}

// GroupBy groups the query's rows by the named columns ("col" or
// "table.col"). A grouped query's output is the group-key columns followed
// by one column per Agg call; the Select list is not used. GroupBy without
// Agg degenerates to DISTINCT over the group columns. The columns, and the
// Agg inputs, resolve as Select's do: before the query takes any lock.
func (q *Query) GroupBy(columns ...string) *Query {
	q.groupBy = append(q.groupBy, columns...)
	return q
}

// Agg adds an aggregate output column: AggCount/AggSum/AggMin/AggMax/
// AggAvg over the named input column. An empty column (or "*") with
// AggCount counts rows; every function skips NULL inputs, and a group
// whose inputs were all NULL yields NULL (0 for COUNT). Agg without
// GroupBy aggregates the whole input into one row. The output column is
// named the SQL way: "COUNT(*)", "SUM(sal)", ….
func (q *Query) Agg(fn AggFunc, column string) *Query {
	name := fn.String() + "(*)"
	if column != "" && column != "*" {
		name = fmt.Sprintf("%s(%s)", fn, column)
	}
	q.aggs = append(q.aggs, qagg{fn: fn, col: column, name: name})
	return q
}

// String spells the function as SQL does.
func (f AggFunc) String() string { return aggKind(f).String() }

// OrderBy appends one ORDER BY term: an output column (by name, or by
// 1-based output ordinal as digits — SQL's "ORDER BY 2") and its
// direction. Terms compose left to right; ties beyond the last term break
// deterministically on input order. ORDER BY with a small Limit runs the
// bounded-heap top-k operator instead of a full sort. The terms resolve
// against the output columns before the query takes any lock.
func (q *Query) OrderBy(column string, desc bool) *Query {
	q.orderBy = append(q.orderBy, qorder{col: column, desc: desc})
	return q
}

// Limit caps the number of output rows. It is pushed into execution, not
// applied after the fact: an unordered query stops its selection or join
// as soon as n rows exist (exec.JoinSpec.Limit's early exit), and an
// ordered query streams through a bounded n-element heap when n is small.
// Limit(0) returns zero rows; negative n removes the limit.
func (q *Query) Limit(n int) *Query {
	if n < 0 {
		n = -1
	}
	q.limit = n
	return q
}

// Parallel sets the degree of parallelism for this query's operators,
// overriding Options.Parallelism: n <= 0 means GOMAXPROCS, 1 runs every
// operator serially, larger values split sequential scans, join
// pipelines, radix joins, GROUP BY, DISTINCT and top-k across that many
// workers. The planner still caps the degree so each worker gets at
// least plan.MinRowsPerWorker rows; small inputs run serial regardless.
func (q *Query) Parallel(n int) *Query {
	if n <= 0 {
		n = parallel.Degree(0)
	}
	q.par = n
	return q
}

// Priority sets the query's scheduler admission priority. When several
// queries have morsels pending on the shared pool, idle workers admit
// the highest-priority query first and round-robin among equals; the
// default is 0.
func (q *Query) Priority(p int) *Query {
	q.prio = p
	return q
}

// WithContext scopes the query's execution to ctx: cancellation is
// observed at morsel boundaries, so a cancelled query stops submitting
// work and its unclaimed morsels are discarded — pool workers move on
// to other queries within one morsel. Run/Analyze then return ctx.Err().
func (q *Query) WithContext(ctx context.Context) *Query {
	q.ctx = ctx
	return q
}

// parallelism resolves the query's requested degree of parallelism:
// the per-query override, else the database default, else GOMAXPROCS.
func (q *Query) parallelism() int {
	if q.par > 0 {
		return q.par
	}
	return parallel.Degree(q.db.opts.Parallelism)
}

// snapshotMinRows is the smallest table a query will snapshot-scan.
// Below it the clone headers and the loss of live tuple handles (clone
// rows reject writes) outweigh a scan that holds no lock; the bound is
// intentionally the same row count at which the planner first grants a
// second scan worker, but holds even at degree 1 so single-core boxes
// still scan unlocked beside writers.
const snapshotMinRows = 2 * plan.MinRowsPerWorker

// snapshotShapeOK reports whether this query's shape may scan the
// from-table's published snapshot instead of the locked relation:
// read-only (not inside a user transaction), single relation, and an
// access path that is a full sequential scan — index lookups and
// pushed-down limits keep the locked protocol, because only the full
// partition scan produces output identical (row for row) to the
// snapshot's clone arrays. The caller additionally requires
// snapshotMinRows rows, so small tables — whose results are routinely fed
// back into updates — stay on locked scans of live tuples. Explain asks
// the same two questions, so it names the path the executor takes.
func (q *Query) snapshotShapeOK(ap accessPath) bool {
	if q.tx != nil || q.db.tune.noSnapshots || len(q.joins) > 0 || q.from == nil {
		return false
	}
	if q.pushedLimit() >= 0 {
		return false // the limit pushes an early exit into the selection
	}
	return ap.path == plan.PathSequentialScan
}

// pushedLimit is the LIMIT the producing operator may stop at — the
// selection of a single relation, the join otherwise — or -1. DISTINCT,
// GROUP BY and ORDER BY consume every row, so under them only LIMIT 0,
// whose output is empty whatever runs downstream, is pushed.
func (q *Query) pushedLimit() int {
	barrier := q.distinct || len(q.groupBy) > 0 || len(q.aggs) > 0 || len(q.orderBy) > 0
	if q.limit == 0 || (q.limit > 0 && !barrier) {
		return q.limit
	}
	return -1
}

// radixBits resolves the radix plan for a join that would build a hash
// table over buildRows rows, narrowed to a per-query budget of that many
// bytes (plan.ClampRadixBits; 0 = unbudgeted), and the narrowing, zero
// when the budget did not narrow it. nil bits mean "no radix join":
// whenever the build fits comfortably in cache (plan.ChooseRadixBits's
// crossover).
func (q *Query) radixBits(buildRows int, budget int64) ([]uint, budgetClamp) {
	bits := plan.ChooseRadixBits(buildRows, q.db.tune.radix)
	clamped, did := plan.ClampRadixBits(bits, q.db.tune.radix, budget)
	if !did {
		return clamped, budgetClamp{}
	}
	return clamped, budgetClamp{budget: budget, rows: buildRows, was: bits}
}

// budgetClamp is a memory budget's narrowing of a plan's radix bits: the
// budget that narrowed them (0: it did not), the rows the plan was sized
// for and, for a join, the bits before the narrowing. It travels on the
// plan, and the phase that runs the plan audits it.
type budgetClamp struct {
	budget int64
	rows   int
	was    []uint
}

// Result is a query result: a temporary list of tuple pointers plus the
// descriptor naming its output columns. Values are extracted from the
// source tuples on demand — the result holds no copied data — except the
// columns a grouped query computed (group keys and aggregates), which the
// list holds as values, one vector per column.
type Result struct {
	list *storage.TempList
	plan queryPlan
}

// Len returns the number of rows.
func (r *Result) Len() int { return r.list.Len() }

// Columns returns the output column names.
func (r *Result) Columns() []string { return r.list.ColumnNames() }

// Row materializes row i's output values.
func (r *Result) Row(i int) []Value { return r.list.RowValues(i) }

// Tuples returns row i's underlying tuple pointers, one per relation the
// query reads. For a grouped result they are the group's representative:
// an input row that carried its key, the first the aggregation saw (on a
// snapshot scan, that row's snapshot image). The row's values come from the computed columns,
// not from these tuples, so they do not follow later updates. The single
// row of a global aggregate over empty input has nil pointers.
func (r *Result) Tuples(i int) []*Tuple { return r.list.Row(i) }

// Plan describes the executed plan, one line per decision in the order
// the phases ran: the lines Query.Explain prints for the same query, each
// phase planned on the live size of its input instead of a catalog
// estimate. For per-operator rows, wall time, and §3.1 counters use
// Query.Analyze. The text is rendered from the plan values each time it
// is read; it does not change when the Query is edited after Run.
func (r *Result) Plan() string { return r.plan.text(-1) }

// Run plans and executes the query under one shared relation lock per
// distinct table it names — however many partitions the tables have — so
// queries are safe against concurrent transactions: every writer holds
// the table's exclusive relation lock. Tables are locked in name order to
// keep concurrent multi-table queries deadlock-free among themselves. A
// snapshot scan holds its one lock only while it republishes a stale
// snapshot, never while it scans; it sees every commit that returned
// before Run was called.
func (q *Query) Run() (*Result, error) {
	res := new(Result)
	if _, err := q.execute(false, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Analyze runs the query exactly as Run does and additionally returns its
// execution trace: one node per operator with the chosen access path,
// rows in/out, wall time, and the §3.1 operation counters (comparisons,
// data moves, hash calls, …) that operator accumulated. The SQL form is
// EXPLAIN ANALYZE SELECT ….
func (q *Query) Analyze() (*Result, *QueryTrace, error) {
	res := new(Result)
	tr, err := q.execute(true, res)
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// execution is one run's state, owned by execute and handed to each
// phase: the snapshot it scans, its scheduler handle, context and memory
// reservation, and what the recorder has folded so far. Explain plans
// without one, so planning for it cannot touch any of this.
type execution struct {
	snap    *storage.Snapshot // scanned with no lock held; nil = the locked relations
	refresh obs.SnapRefresh   // what republishing a stale snapshot cost; zero = it was fresh
	sq      *sched.Query      // nil until an operator asks for it (sched)
	prio    int               // the scheduler priority sched admits it at
	ctx     context.Context
	res     *mem.Reservation // nil = unbudgeted
	pg      *obs.Progress    // the live query's gauges; nil when the registry is off
	reg     *obs.Registry

	m         *meter.Counters // the running phase's §3.1 counters, pooled; nil unless collecting
	total     meter.Counters  // rollup across phases
	scanned   int64           // base-relation tuples fetched
	shape     string          // the registry's plan-shape label, built while collecting
	plan      queryPlan       // each phase records the plan it ran
	decisions []obs.Decision  // plan-vs-actual audits, kept only when tracing
	root      *obs.TraceNode  // nil unless building a trace, which implies collecting
	t0        time.Time       // when the running phase started (tracing only)
}

// step is one executed phase as the recorder takes it: the output list,
// its trace node (record adds the row count out, the wall time and the
// §3.1 counters), the base-relation tuples it fetched, and the index it
// probed. The runner records the phase's plan value in the execution's
// queryPlan, not here.
type step struct {
	list      *storage.TempList
	node      obs.TraceNode
	scanned   int64
	probeKind string // index structure probed ("" for none)
	probes    int64
}

// record folds a phase into the execution as its runner returned it —
// its counters, fetched tuples and index probes, its trace node — and
// returns its output list. It returns the runner's error, or the
// context's: a cancelled query stops at the phase boundary rather than
// planning and running the next operator (inside operators, cancellation
// is observed at morsel boundaries).
func (x *execution) record(s step, err error) (*storage.TempList, error) {
	if err != nil {
		return nil, err
	}
	if x.m != nil {
		s.node.Ops = *x.m
		x.total.Add(*x.m)
		*x.m = meter.Counters{}
		x.scanned += s.scanned
		x.reg.IndexProbe(s.probeKind, s.probes)
	}
	if x.tracing() {
		now := time.Now()
		n := s.node
		n.RowsOut, n.Wall = s.list.Len(), now.Sub(x.t0)
		x.root.Add(&n)
		x.t0 = now
	}
	return s.list, x.ctx.Err()
}

// sched is the execution's admission handle on the shared morsel
// scheduler, made when the first operator that may submit morsels asks
// for it: a serial selection, a point lookup's whole plan, never does. A
// budgeted execution's reservation mirrors its grant into the handle from
// then on.
func (x *execution) sched() *sched.Query {
	if x.sq == nil {
		x.sq = sched.NewQuery(sched.Shared(), x.ctx, x.prio)
		if x.res != nil {
			x.res.Notify = x.sq.SetMemBytes
			x.sq.SetMemBytes(x.res.Held())
		}
	}
	return x.sq
}

// countersPool recycles the executions' phase counters: an execution
// takes one while it runs and folds it into its total at every phase, so
// none is read after its query returns.
var countersPool = sync.Pool{New: func() any { return new(meter.Counters) }}

// tracing reports whether this execution builds a trace: the only reader
// of a decision's Chosen and Inputs text, which audits fill only then.
func (x *execution) tracing() bool { return x.root != nil }

// audit records a plan-vs-actual decision from its numbers: the registry
// counts it as the phase observes it (a misprediction is all it counts),
// and a trace keeps it. Only a trace shows a decision's text, so text,
// which renders Chosen and Inputs, runs only when one is built.
func (x *execution) audit(d obs.Decision, text func() (chosen, inputs string)) {
	x.reg.RecordDecision(d) // nil-safe
	if x.tracing() {
		d.Chosen, d.Inputs = text()
		x.decisions = append(x.decisions, d)
	}
}

// auditClamp audits a plan's budget clamp, if the budget narrowed the
// plan to bits. The record is informational (Threshold 0): a clamp is the
// budget working, not a misprediction.
func (x *execution) auditClamp(name string, c budgetClamp, bits []uint) {
	if c.budget == 0 {
		return
	}
	var total uint
	for _, b := range bits {
		total += b
	}
	x.audit(obs.Decision{Name: name, Estimate: float64(int(1) << total), Unit: "partitions"}, func() (string, string) {
		chosen := fmt.Sprintf("bits=%v", bits)
		if c.was != nil {
			chosen += fmt.Sprintf(" (was %v)", c.was)
		}
		return chosen, fmt.Sprintf("budget=%s rows=%s", obs.FmtBytes(c.budget), obs.FmtCount(float64(c.rows)))
	})
}

// budget is this execution's fair share of the database budget: the
// per-query byte allowance the plans clamp size against. 0 = unbudgeted.
func (x *execution) budget() int64 {
	if x.res == nil {
		return 0
	}
	return x.res.FairShare()
}

// execute is the shared Run/Analyze engine: it plans each phase on the
// live size of its input, runs it and records it, and leaves the result
// in res. With analyze set it builds the operator trace; whenever the
// database's metrics registry is enabled it also accumulates per-query
// metrics. With both disabled the overhead is a handful of nil checks and
// no allocations beyond the result's own.
func (q *Query) execute(analyze bool, res *Result) (*QueryTrace, error) {
	b, err := q.bind()
	if err != nil {
		return nil, err
	}
	ap := q.choosePath(&b)
	reg := q.db.obs
	slow := q.db.slow
	// A configured slow-query log needs the full trace — with the
	// plan-vs-actual decision audit — for any query that might cross the
	// threshold, so it forces trace building on every query. Plain Run on
	// a database without a slow log stays on the no-trace path.
	buildTrace := analyze || slow != nil
	collect := reg != nil || buildTrace

	// Live-query registration: the query is visible in ActiveQueries from
	// here until execute returns, with its phase and rows-processed gauges
	// updated as the operators run. The registry holds q itself and
	// renders its text only when a snapshot asks. aq is nil when the
	// registry is off; every downstream use is nil-safe, so the disabled
	// path costs one comparison per call site.
	var aq *obs.ActiveQuery
	if q.db.active != nil {
		aq = q.db.active.Register(q)
		defer q.db.active.Deregister(aq)
	}
	x := execution{reg: reg, pg: aq.Progress(), ctx: q.ctx, prio: q.prio}
	if x.ctx == nil {
		x.ctx = context.Background()
	}

	reader := q.tx
	if reader == nil {
		// Untracked: the ephemeral lock-holder's begin/abort pair is not a
		// user transaction and would distort txn metrics.
		reader = &Txn{db: q.db, inner: q.db.txns.BeginUntracked()}
		defer reader.Abort() // releases the shared locks
	}
	if err := q.lockOrSnapshot(&x, reader, ap); err != nil {
		return nil, err
	}

	// A context cancelled before the first phase fails the query here;
	// parallel operators observe it at morsel boundaries through the
	// scheduler handle (sched), the recorder at every phase boundary.
	if err := x.ctx.Err(); err != nil {
		return nil, err
	}

	// Memory-budget reservation: the fair-share unit every scratch-hungry
	// operator grants against, mirrored into the scheduler's grant gauge
	// so admission prefers memory-light queries at equal priority. nil
	// (no budget) keeps every downstream path on its pre-budget behavior.
	if x.res = q.db.mem.Reserve(); x.res != nil {
		defer x.res.Close()
	}

	var start time.Time
	if collect {
		start = time.Now()
		x.m = countersPool.Get().(*meter.Counters)
		*x.m = meter.Counters{} // a failed phase returns without folding its counts
		defer countersPool.Put(x.m)
	}
	if buildTrace {
		x.root = &obs.TraceNode{Op: "query", Detail: q.from.Name()}
		x.t0 = start
	}

	// A snapshot execution holds no lock: the live cardinality is being
	// written beside it, the snapshot's own row count is not.
	var card int
	var epoch uint64
	if x.snap != nil {
		card, epoch = x.snap.Rows(), x.snap.Epoch()
	} else {
		card = q.from.Cardinality()
	}
	x.plan.head = q.planHead(card)

	aq.SetPhase(obs.PhaseSelect)
	sp := q.planSelection(&b, ap, card, x.snap != nil, epoch, x.plan.head.selLimit)
	list, err := x.record(q.runSelection(&x, &b, sp), nil)
	if err != nil {
		return nil, err
	}
	if len(q.joins) > 0 {
		aq.SetPhase(obs.PhaseJoin)
		if list, err = x.record(q.runJoin(&x, &b, list, x.plan.head.joinLimit), nil); err != nil {
			return nil, err
		}
	}
	grouped, ordered := len(q.groupBy) > 0 || len(q.aggs) > 0, len(q.orderBy) > 0
	var s step
	if grouped {
		// Aggregation replaces projection: the output columns are the
		// group keys followed by the aggregates.
		aq.SetPhase(obs.PhaseGroup)
		s, err = q.runGroup(&x, list, &b)
	} else {
		aq.SetPhase(obs.PhaseProject)
		s = q.runProject(&x, list, b.cols)
	}
	if list, err = x.record(s, err); err != nil {
		return nil, err
	}
	if q.distinct {
		aq.SetPhase(obs.PhaseDistinct)
		if list, err = x.record(q.runDistinct(&x, list)); err != nil {
			return nil, err
		}
	}
	if ordered {
		aq.SetPhase(obs.PhaseOrder)
		if list, err = x.record(q.runOrder(&x, list, b.order), nil); err != nil {
			return nil, err
		}
	}

	// Residual LIMIT: the paths that could not push the limit down
	// (DISTINCT, grouped output, and LIMIT 0 under any barrier) cap here.
	// Ordered queries already cut to the limit inside the order phase.
	if q.limit >= 0 && list.Len() > q.limit {
		list = headList(list, q.limit)
	}

	var trace *QueryTrace
	if collect {
		if grouped {
			x.shape += "+group"
		}
		if q.distinct {
			x.shape += "+distinct"
		}
		if ordered {
			x.shape += "+order"
		}
		wall := time.Since(start)
		reg.RecordQuery(x.shape, x.scanned, int64(list.Len()), wall, x.total)
		if buildTrace {
			x.root.RowsIn, x.root.RowsOut = x.root.Children[0].RowsIn, list.Len() // the selection's
			trace = &QueryTrace{Root: x.root, Total: wall, Decisions: x.decisions,
				SchedSteals: x.sq.Steals(), SchedWait: x.sq.WaitTime()}
		}
		if slow != nil && wall >= slow.Threshold() {
			slow.Record(obs.SlowQuery{
				ID: aq.ID(), Text: q.String(), Start: start, Wall: wall,
				Rows: int64(list.Len()), Trace: trace,
				SchedSteals: x.sq.Steals(), SchedWait: x.sq.WaitTime(),
			})
		}
	}
	if !analyze {
		trace = nil // built only for the slow log; Run callers never see it
	}
	// Settle: the result leaves in one allocation and its pooled chunks go
	// back to the pool now, not with the caller's last reference.
	*res = Result{list: list.Settle(), plan: x.plan}
	return trace, nil
}

// lockOrSnapshot readies the execution's read of its tables. Epoch
// snapshot scans: a read-only single-relation query whose access path is
// a full sequential scan reads the published snapshot and holds no lock
// while it scans, so it never makes a writer wait for the length of a
// query. Writers publish nothing; a commit only advances the relation's
// epoch. The reader that finds the snapshot stale (or never published)
// pays: it takes S(relation) like any selection — which waits out
// in-flight writers, so every commit that returned before now is in the
// image — republishes what changed, releases at once and scans the
// result. Every other query takes a shared lock on each distinct table
// it names, in name order, and holds them until reader ends.
func (q *Query) lockOrSnapshot(x *execution, reader *Txn, ap accessPath) error {
	snapOK := q.snapshotShapeOK(ap)
	if snapOK {
		if s := q.from.rel.Snapshot(); s != nil && s.Rows() >= snapshotMinRows {
			x.snap = s
			return nil
		}
	}
	var lockStart time.Time
	if snapOK {
		lockStart = time.Now()
	}
	// The distinct tables in name order: an insertion sort into a stack
	// array, since a query names a handful of tables.
	var buf [4]*Table
	tables := buf[:0]
	for _, r := range q.rels {
		if slices.Contains(tables, r.t) {
			continue
		}
		tables = append(tables, r.t)
		for i := len(tables) - 1; i > 0 && tables[i].Name() < tables[i-1].Name(); i-- {
			tables[i], tables[i-1] = tables[i-1], tables[i]
		}
	}
	for _, t := range tables {
		if err := reader.inner.LockRelationShared(t.rel); err != nil {
			return err
		}
	}
	if snapOK && q.from.Cardinality() >= snapshotMinRows {
		locked := time.Now()
		snap, built := q.from.rel.PublishSnapshotStats()
		reader.Abort() // snapOK: the reader is this query's own, and S(from) is all it holds
		x.snap = snap
		x.refresh = obs.SnapRefresh{
			Patched: built.Patched, Cloned: built.Cloned, Tuples: built.Tuples,
			LockWait: locked.Sub(lockStart), Build: time.Since(locked),
		}
		x.reg.SnapshotRefresh(x.refresh)
	}
	return nil
}

// splitLimit places the pushed-down LIMIT: into the selection scan when
// nothing downstream needs the full input, into the join's early exit
// otherwise. LIMIT 0 always cuts the selection to nothing. -1 (selection)
// and 0 (join) mean no limit there.
func (q *Query) splitLimit() (sel, join int) {
	switch lim := q.pushedLimit(); {
	case lim == 0:
		return 0, 0
	case lim > 0 && len(q.joins) == 0:
		return lim, 0
	case lim > 0:
		return -1, lim
	}
	return -1, 0
}

// headPlan is what every plan opens with: the block size batch-at-a-time
// operators run with (pooled blocks are physically plan.DefaultBatchSize;
// tiny inputs account for smaller blocks) and where a LIMIT was pushed
// (splitLimit's placement).
type headPlan struct {
	batch               int
	selLimit, joinLimit int
}

// planHead plans the head for a from-table of card rows.
func (q *Query) planHead(card int) headPlan {
	h := headPlan{batch: plan.ChooseBatchSize(card)}
	h.selLimit, h.joinLimit = q.splitLimit()
	return h
}

// auditWorkers audits a worker count: the chooser assumed rows split
// evenly; the live registry's max-rows-per-worker gauge is what one
// worker actually absorbed (0 when the registry is off — the decision
// degrades to informational).
func (x *execution) auditWorkers(workers, rows int) {
	x.audit(obs.Decision{
		Name:      "workers",
		Estimate:  float64(rows) / float64(workers),
		Actual:    float64(x.pg.MaxWorkerRows()),
		Unit:      "rows/worker",
		Threshold: 4.0,
	}, func() (string, string) {
		return fmt.Sprintf("%d worker(s)", workers), "work rows=" + obs.FmtCount(float64(rows))
	})
}

// auditRadixBalance audits a radix plan's assumption of uniform
// partitions against the largest one observed, and feeds the registry's
// skew histogram.
func (x *execution) auditRadixBalance(st radix.Stats) {
	x.reg.ObserveRadixSkew(st.Skew())
	x.audit(obs.Decision{
		Name:      "radix balance",
		Estimate:  float64(st.Rows) / float64(st.Fanout),
		Actual:    float64(st.MaxPart),
		Unit:      "rows/partition",
		Threshold: 4.0,
	}, func() (string, string) {
		return fmt.Sprintf("%d partitions", st.Fanout), "rows=" + obs.FmtCount(float64(st.Rows))
	})
}

// traceRadix copies a radix operator's partitioning into its trace node.
func traceRadix(n *obs.TraceNode, st radix.Stats) {
	if st.Fanout > 0 {
		n.RadixPasses, n.Partitions, n.PartitionSkew = st.Passes, st.Fanout, st.Skew()
	}
}

// Explain plans the query and prints the plan without executing it: no
// locks are taken, no tuples are fetched, nothing is built or published,
// and no memory is reserved. It binds the query's names first, as Run
// does, so a name Run would reject fails Explain with the same error. It
// calls each phase's planner — the ones the executor calls — on catalog
// estimates, so after its header every line is the one Result.Plan
// records for the same query, planned on the size the executor will see. Where that size is only estimated — the
// from-table's cardinality is an upper bound once predicates or a join
// stand between it and the phase — the line says so: "(… estimated ≤ N
// rows)". For the executed plan use Result.Plan or Query.Analyze.
func (q *Query) Explain() (string, error) {
	b, err := q.bind()
	if err != nil {
		return "", err
	}
	rows := q.from.Cardinality()
	p := queryPlan{head: q.planHead(rows)}
	// The executor's own snapshot test; the epoch is the one a snapshot
	// published now would carry, read without locking or publishing.
	ap := q.choosePath(&b)
	snap := q.snapshotShapeOK(ap) && rows >= snapshotMinRows
	p.sel = q.planSelection(&b, ap, rows, snap, q.from.rel.SnapshotEpoch(), p.head.selLimit)
	if len(q.joins) > 0 {
		jp := q.planJoin(&b, rows, false, p.head.joinLimit, 0)
		p.join = &jp
	}
	if len(q.groupBy) > 0 || len(q.aggs) > 0 {
		ap := q.planAgg(rows, 0)
		p.group = &ap
	}
	if q.distinct {
		dp := q.planAgg(rows, 0)
		p.distinct = &dp
	}
	if len(q.orderBy) > 0 {
		op := q.planOrder(rows)
		p.order = &op
	}
	return "planned (catalog estimates; nothing executed):\n" + p.text(rows), nil
}

// queryPlan is a query's plan as its phases' planners returned it: the
// values are the record, and text renders them when the plan is read.
// execute fills it as each phase plans on its live input, Explain from
// catalog estimates. Each value copies what its lines need when it is
// planned, so rendering never reads the Query.
type queryPlan struct {
	head     headPlan
	sel      selPlan
	join     *joinPlan  // nil: a single relation
	group    *aggPlan   // nil: not grouped
	distinct *aggPlan   // nil: no DISTINCT; else its keys-only agg run
	order    *orderPlan // nil: no ORDER BY
}

// selPlan is the selection's plan: the access path, and for a sequential
// scan the workers that split it and whether it reads the snapshot.
// Explain prints its line and runSelection executes it, so the planned
// and the executed path cannot disagree.
type selPlan struct {
	accessPath
	// PathTreeRange only: every range predicate on the indexed column
	// folded into the one inclusive interval the index is probed with.
	// A NULL bound (the zero Value) is open. Strict bounds (<, >) fold
	// like inclusive ones; the residual filter drops the endpoint.
	lo, hi Value
	folded int // predicates the interval stands for
	// empty, on every path: no row can qualify — a predicate's value rules
	// out every row (boundQuery.empty), or a folded range has lo > hi — so
	// the selection reads nothing and probes nothing.
	empty bool
	// exact is the set of predicates (bit i = q.preds[i]) that hold for
	// every tuple the index probe returns, so the residual filter skips
	// them: the Eq a lookup served, and the inclusive bounds of a folded
	// range.
	exact uint64
	// unique: a lookup in a unique index, which returns at most one row.
	unique bool

	rows    int    // the from-table's tuples: the snapshot's when it reads one
	limit   int    // pushed-down LIMIT; -1 = none
	workers int    // scan workers the trace reports (0 = serial, locked)
	snap    bool   // the sequential scan reads the snapshot of epoch
	epoch   uint64 // meaningful with snap

	// What the access line names, copied when planned: the from-table,
	// its primary index's structure, the served predicate's column, and
	// how many predicates the query has.
	table   string
	primary IndexKind
	column  string
	preds   int
}

// guarantees reports whether the access path already guarantees
// predicate i. Predicates past the mask's width are simply re-checked.
func (sp selPlan) guarantees(i int) bool {
	return i < 64 && sp.exact&(1<<uint(i)) != 0
}

// accessPath is the selection's access path: the predicate an index
// serves and the index it probes, or a sequential scan. A run chooses it
// once (choosePath) and hands it to the lock-or-snapshot decision and to
// planSelection, so both see the same path.
type accessPath struct {
	pred int // index in q.preds of the predicate served through the index; -1 = none
	path plan.AccessPath
	ix   *Index // the index probed; nil for a sequential scan
}

// choosePath picks the indexable predicate with the best access path by
// the §4 preference order; pure planning, no execution. It reads the
// table's per-field index slots (Table.indexOn) at the bound predicate
// columns and allocates nothing.
func (q *Query) choosePath(b *boundQuery) accessPath {
	t := q.from
	ap := accessPath{pred: -1, path: plan.PathSequentialScan}
	for i, p := range q.preds {
		f := b.preds[i]
		hash, tree := t.indexOn(f, false), t.indexOn(f, true)
		path := plan.ChooseSelection(plan.SelectionInput{Op: p.op, HasHash: hash != nil, HasTree: tree != nil})
		if ap.pred == -1 || path < ap.path {
			ap.pred, ap.path, ap.ix = i, path, nil
			switch path {
			case plan.PathHashLookup:
				ap.ix = hash
			case plan.PathTreeLookup, plan.PathTreeRange:
				ap.ix = tree
			}
		}
	}
	return ap
}

// planSelection plans the selection over the access path and the
// from-table's rows tuples — of the snapshot of the given epoch when snap
// is set, of the locked relation otherwise — under a pushed-down LIMIT
// (-1 = none): the served predicate's column, whether no row can
// qualify, a range's folded interval, the predicates the probe guarantees
// and, for a sequential scan, its workers. An early exit is inherently
// sequential, so a limited scan runs serially.
func (q *Query) planSelection(b *boundQuery, ap accessPath, rows int, snap bool, epoch uint64, limit int) selPlan {
	t := q.from
	sp := selPlan{accessPath: ap, empty: b.empty, table: t.Name(), primary: t.primary.kind, preds: len(q.preds)}
	if sp.pred >= 0 {
		sp.column = q.preds[sp.pred].column
	}
	switch {
	case sp.empty:
	case sp.path == plan.PathTreeRange:
		q.foldRange(b, &sp)
	case sp.path != plan.PathSequentialScan:
		// A lookup returns exactly the tuples whose key equals the value.
		sp.exact = 1 << uint(sp.pred)
		sp.unique = sp.ix.unique
	}
	sp.rows, sp.limit = rows, limit
	if sp.path == plan.PathSequentialScan && limit < 0 && !sp.empty {
		w := plan.ChooseWorkers(q.parallelism(), rows)
		switch {
		case snap:
			sp.workers, sp.snap, sp.epoch = w, true, epoch
		case w > 1:
			sp.workers = w
		}
	}
	return sp
}

// foldRange intersects all range predicates on the indexed column:
// the tightest lower bound from >, >= and the tightest upper bound from
// <, <=. Every bound is of the column's type: bind found no other.
func (q *Query) foldRange(b *boundQuery, sp *selPlan) {
	field := b.preds[sp.pred]
	var inclusive uint64
	for i := range q.preds {
		p := &q.preds[i]
		if b.preds[i] != field || p.op == Eq || p.op == Ne {
			continue
		}
		sp.folded++
		if p.op == Ge || p.op == Le {
			inclusive |= 1 << uint(i)
		}
		switch p.op {
		case Gt, Ge:
			if sp.lo.IsNull() || storage.Compare(p.val, sp.lo) > 0 {
				sp.lo = p.val
			}
		case Lt, Le:
			if sp.hi.IsNull() || storage.Compare(p.val, sp.hi) < 0 {
				sp.hi = p.val
			}
		}
	}
	if !sp.lo.IsNull() && !sp.hi.IsNull() && storage.Compare(sp.lo, sp.hi) > 0 {
		sp.empty = true
	}
	if !sp.lo.IsNull() {
		// NULL sorts before every key, so only a lower bound keeps
		// NULL-keyed tuples — on which no predicate holds — out of the range.
		sp.exact = inclusive
	}
}

// runSelection runs the planned selection, producing a single-source temp
// list. The meter, when collecting, accumulates the §3.1 operation counts
// of the index probe and the residual filter; a pushed-down limit stops
// the selection as soon as that many rows qualify.
//
// A sequential scan evaluates the whole conjunction where the tuples are
// read — inside the workers' morsels when it runs parallel — so its
// output is final. An index path's output is final too when the probe
// already guarantees every predicate (selPlan.exact); only otherwise does
// a residual pass filter it once into a fresh list and release it.
func (q *Query) runSelection(x *execution, b *boundQuery, sp selPlan) step {
	t := q.from
	x.plan.sel = sp
	s := step{node: obs.TraceNode{Op: "select", Detail: t.Name(), Workers: sp.workers, Refresh: x.refresh}}
	if x.tracing() {
		s.node.AccessPath = sp.access()
	}
	m, desc := x.m, q.selectionDesc(b)
	spec := exec.SelectSpec{RelName: t.Name(), Schema: t.rel.Schema(), Desc: desc, Meter: m, Prog: x.pg}
	switch {
	case sp.empty:
		s.list = storage.MustTempList(desc)
	case sp.path == plan.PathSequentialScan:
		var cmps int64
		if m != nil {
			cmps = m.Comparisons
		}
		s.list = q.runScan(x, b, spec, sp)
		s.node.RowsIn = s.list.Len()
		if len(q.preds) > 0 && m != nil {
			// A filtered scan meters one comparison per tuple it examined,
			// which under a LIMIT is fewer than the relation holds.
			s.node.RowsIn = int(m.Comparisons - cmps)
		}
	default:
		p, f, ix := q.preds[sp.pred], b.preds[sp.pred], sp.ix
		if sp.unique {
			spec.Hint = 1 // the one-row list: no pooled chunk for one tuple
		}
		switch sp.path {
		case plan.PathHashLookup:
			s.list = exec.SelectEqHash(ix.hashed, f, p.val, spec)
		case plan.PathTreeLookup:
			s.list = exec.SelectEqTree(ix.ordered, f, p.val, spec)
		default: // plan.PathTreeRange
			s.list = exec.SelectRange(ix.ordered, f, rangeBound(sp.lo), rangeBound(sp.hi), spec)
		}
		s.probeKind, s.probes = ix.kind.String(), 1
		s.node.RowsIn = s.list.Len()
		s.list = q.residual(b, s.list, sp, m)
	}
	s.scanned = int64(s.node.RowsIn)
	if m != nil {
		x.shape = sp.path.String()
		if len(q.preds) == 0 {
			x.shape = "full scan"
		}
		// Audit the batch sizing: it assumed the whole table flows through
		// the pipeline, and a selective predicate makes that estimate wrong
		// by exactly the filter's factor.
		x.audit(obs.Decision{
			Name:      "batch",
			Estimate:  float64(sp.rows),
			Actual:    float64(s.list.Len()),
			Unit:      "rows",
			Threshold: 2.0,
		}, func() (string, string) {
			return fmt.Sprintf("%d-tuple blocks", plan.ChooseBatchSize(sp.rows)),
				"table card=" + obs.FmtCount(float64(sp.rows))
		})
	}
	return s
}

// rangeBound is a folded interval's bound as exec.SelectRange takes it:
// nil when open.
func rangeBound(v Value) *Value {
	if v.IsNull() {
		return nil
	}
	return &v
}

// residual filters an index path's output by the predicates the probe did
// not guarantee (strict bounds, extra conjuncts, Ne) into a fresh list and
// releases the probe's. A pushed-down limit stops the filter — and with
// it the whole selection — once enough rows qualify. With nothing to
// filter or cut, the probe's list is the selection's output.
func (q *Query) residual(b *boundQuery, list *storage.TempList, sp selPlan, m *meter.Counters) *storage.TempList {
	limit, rows := sp.limit, list.Len()
	residual := false
	for i := range q.preds {
		residual = residual || !sp.guarantees(i)
	}
	if rows == 0 || !(residual || (limit >= 0 && rows > limit)) {
		return list
	}
	hint := rows
	if limit >= 0 && limit < hint {
		hint = limit
	}
	out := storage.MustTempListHint(list.Descriptor(), hint)
	list.Scan(func(_ int, row storage.Row) bool {
		if limit >= 0 && out.Len() >= limit {
			return false
		}
		tp := row[0]
		for i := range q.preds {
			if sp.guarantees(i) {
				continue
			}
			m.AddCompare(1)
			if !predHolds(tp.Field(b.preds[i]), &q.preds[i]) {
				return true
			}
		}
		out.AppendOne(tp) // selection lists are single-source (arity 1)
		return true
	})
	list.Release()
	return out
}

// runScan is the sequential-scan access path over the planned rows of
// the from-table or, when the execution reads one, of its snapshot (every
// tuple then comes from the epoch-published clone arrays, with no lock
// held; the live relation is never touched). A serial scan of the live
// relation reads the primary index, a parallel one the relation's
// partitions. The conjunction of all predicates runs inside the scan, so
// no pass over the output follows, and a pushed-down LIMIT ends it.
func (q *Query) runScan(x *execution, b *boundQuery, spec exec.SelectSpec, sp selPlan) *storage.TempList {
	t := q.from
	pred := q.conjunction(b)
	switch {
	case sp.limit == 0:
		return storage.MustTempList(spec.Desc)
	case sp.limit > 0:
		spec.Limit, spec.Hint = sp.limit, min(sp.limit, sp.rows)
	case pred == nil:
		spec.Hint = sp.rows
	}
	var src parallel.Chunked
	switch {
	case x.snap != nil:
		src = parallel.SnapshotSource{Snap: x.snap}
	case sp.workers > 1:
		src = parallel.RelationSource{Rel: t.rel}
	default:
		return exec.SelectScan(t.scanSource(), pred, spec)
	}
	spec.Sched = x.sched()
	return parallel.SelectScan(src, pred, spec, sp.workers)
}

// conjunction returns the WHERE clause as one tuple predicate, or nil
// when the query has none. It touches no meter, so scan workers may call
// it concurrently.
func (q *Query) conjunction(b *boundQuery) func(*storage.Tuple) bool {
	if len(q.preds) == 0 {
		return nil
	}
	preds, fields := q.preds, b.preds
	return func(tp *storage.Tuple) bool {
		for i := range preds {
			if !predHolds(tp.Field(fields[i]), &preds[i]) {
				return false
			}
		}
		return true
	}
}

// predHolds evaluates one predicate on its column's value v. It never
// holds on NULL. A non-NULL v is of the predicate value's type: the
// schema fixes the column's, and bind empties the selection of a query
// whose value is NULL or of another type.
func predHolds(v Value, p *qpred) bool {
	if v.IsNull() {
		return false
	}
	c := storage.Compare(v, p.val)
	switch p.op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	default:
		return c >= 0
	}
}

// joinPlan is the join phase's plan. A single join edge keeps the
// paper's §4 choice between the two relations — the from-table drives,
// the joined table builds; more edges run the order the cost-forecasted
// planner picks. Either way a hash join, and a precomputed join's pointer
// dereference, runs as a pipeline whose stages the plan names. Explain
// prints the plan's lines and runJoin executes it, so the planned and the
// executed join cannot disagree.
type joinPlan struct {
	order []int    // execution order by relation index, driver first
	names []string // the order by scope names, copied when planned
	// The §4 method and the indices it walks (JoinRadixHash: a radix-sized
	// build upgraded JoinHash); JoinHash, the hash pipeline, for more edges.
	method       plan.JoinMethod
	bits         []uint      // JoinRadixHash: the radix plan
	clamp        budgetClamp // the budget's narrowing of bits
	innerHash    bool        // JoinHash: the inner's hash index is probed in place
	outerTT      *ttree.Tree[*storage.Tuple]
	innerTT      *ttree.Tree[*storage.Tuple]
	innerOrdered *Index
	// More edges: how the order was chosen ("dp", "greedy" or "forced")
	// and the forecast rows after each prefix of it. estRows is nil for a
	// single edge.
	algorithm  string
	estRows    []float64
	driverRows int // rows the driver streams
	workers    int
	stages     []stagePlan // the pipeline, in execution order; none for the tree and radix joins
}

// stagePlan is one pipeline stage: how it binds its relation — following
// a Ref (pointer deref, StageSpec.Deref), probing an existing hash index
// in place, or building a pooled flat table — and the edges it checks.
// The embedded spec lacks only the table, which runPipeline builds or
// borrows.
type stagePlan struct {
	exec.StageSpec
	index *Index // the hash index probed in place; nil otherwise
}

// planJoin plans the join phase for a from-table that enters with
// rel0Rows rows, under a pushed-down LIMIT (0 = none) and a per-query
// memory budget (0 = unbudgeted). locked means the caller holds shared
// locks on every relation, so the order planner may refresh statistics;
// Explain plans lock-free. b holds the bound join edges and
// ForceJoinOrder order. A single edge consults no order planner and no
// statistics.
func (q *Query) planJoin(b *boundQuery, rel0Rows int, locked bool, limit int, budget int64) joinPlan {
	p := joinPlan{method: plan.JoinHash}
	if len(q.joins) == 1 {
		p.order = []int{0, 1}
		q.chooseJoin(b.joins[0], &p, rel0Rows, limit, budget)
	} else {
		res := q.chooseOrder(q.joinGraph(b.joins, rel0Rows, locked), b.forced)
		p.order, p.algorithm, p.estRows = res.Order, res.Algorithm, res.EstRows
	}
	p.names = make([]string, len(p.order))
	for i, r := range p.order {
		p.names[i] = q.rels[r].name
	}
	p.driverRows = rel0Rows
	if p.order[0] != 0 {
		p.driverRows = q.rels[p.order[0]].t.Cardinality()
	}
	work := p.driverRows
	for _, r := range p.order[1:] {
		work += q.rels[r].t.Cardinality()
	}
	p.workers = plan.ChooseWorkers(q.parallelism(), work)
	switch {
	case limit > 0:
		p.workers = 1 // the early exit does not decompose
	case p.method == plan.JoinRadixHash, p.method == plan.JoinHash && !p.innerHash:
	default:
		// A pointer per row, one walk of an index, or a hash index probed
		// in place (never traded for a parallel build over the whole
		// inner): the §4 methods run as the paper ran them.
		p.workers = 1
	}
	if p.method == plan.JoinHash || p.method == plan.JoinPrecomputed {
		q.planStages(b.joins, &p)
	}
	return p
}

// chooseJoin makes the §4 choice for j, the single bound join edge, from
// the indices on its columns: a precomputed pointer join, whose one
// pipeline stage follows the Ref (planStages), Tree Merge when both
// columns carry a T Tree, Tree Join when the inner's T Tree is over twice
// the outer's size, and Hash otherwise — probing an existing hash index,
// or building a table, which a radix-sized build without a LIMIT upgrades
// to the radix join.
func (q *Query) chooseJoin(j boundEdge, p *joinPlan, outerRows, limit int, budget int64) {
	jt := q.rels[1].t
	if len(q.preds) == 0 && j.leftField >= 0 {
		// Only an unfiltered outer is its index's whole key order.
		if ix := q.from.indexOn(j.leftField, true); ix != nil {
			p.outerTT, _ = ix.ordered.(*ttree.Tree[*storage.Tuple])
		}
	}
	var innerHash *Index
	if j.rightField >= 0 {
		if p.innerOrdered = jt.indexOn(j.rightField, true); p.innerOrdered != nil {
			p.innerTT, _ = p.innerOrdered.ordered.(*ttree.Tree[*storage.Tuple])
		}
		innerHash = jt.indexOn(j.rightField, false)
	}
	innerRows := jt.Cardinality()
	p.method = plan.ChooseJoin(plan.JoinInput{
		Equijoin:       true,
		HasPrecomputed: j.rightField == tupleindex.SelfField && q.refInto(0, j.leftField, jt),
		OuterTree:      p.outerTT != nil,
		InnerTree:      p.innerTT != nil,
		InnerHash:      innerHash != nil,
		OuterCard:      outerRows,
		InnerCard:      innerRows,
		DuplicatePct:   -1,
		SemijoinPct:    -1,
	})
	if p.method != plan.JoinHash {
		return
	}
	if p.innerHash = innerHash != nil; p.innerHash {
		return
	}
	if limit <= 0 {
		if p.bits, p.clamp = q.radixBits(innerRows, budget); p.bits != nil {
			p.method = plan.JoinRadixHash
		}
	}
}

// planStages plans the pipeline: one stage per relation after the driver,
// in plan order, each probed by the first of the bound edges joins into
// the relations bound before it. A stage follows the probe column when it is a Ref into the
// stage's relation (§2.1's precomputed join), probes an existing hash
// index in place when the run is serial (shared index structures meter
// their probes, which would race across workers), and otherwise builds a
// pooled flat hash table. A further edge into bound relations — the
// closing edge of a cyclic graph — is checked as a residual once the
// stage matches. Every order is connected: the planner's by construction,
// a forced one because bind checked it.
func (q *Query) planStages(joins []boundEdge, p *joinPlan) {
	bound := make([]bool, len(q.rels))
	bound[p.order[0]] = true
	p.stages = make([]stagePlan, 0, len(p.order)-1)
	for _, r := range p.order[1:] {
		st := stagePlan{StageSpec: exec.StageSpec{BuildSlot: r, ProbeSlot: -1}}
		buildField := 0
		for _, j := range joins {
			var probeRel, probeField, bf int
			switch {
			case j.rightRel == r && bound[j.leftRel]:
				probeRel, probeField, bf = j.leftRel, j.leftField, j.rightField
			case j.leftRel == r && bound[j.rightRel]:
				probeRel, probeField, bf = j.rightRel, j.rightField, j.leftField
			default:
				continue
			}
			if st.ProbeSlot < 0 {
				st.ProbeSlot, st.ProbeField = probeRel, probeField
				buildField = bf
			} else {
				st.Residual = append(st.Residual, exec.ResidualEdge{
					ASlot: probeRel, AField: probeField, BSlot: r, BField: bf,
				})
			}
		}
		rt := q.rels[r].t
		filtered := r == 0 && len(q.preds) > 0 // build side is the filtered from-table
		if buildField == tupleindex.SelfField && !filtered && q.refInto(st.ProbeSlot, st.ProbeField, rt) {
			st.Deref = true
		} else {
			st.BuildField = buildField
			if ix := rt.indexOn(buildField, false); ix != nil && !filtered && p.workers <= 1 {
				st.index = ix
			}
		}
		p.stages = append(p.stages, st)
		bound[r] = true
	}
}

// runJoin plans the join phase over the selection result left on its
// live size, runs it and releases left (the join output points at
// tuples, not at the selection's rows). limit > 0 is a pushed-down
// LIMIT: the join stops after that many rows.
func (q *Query) runJoin(x *execution, b *boundQuery, left *storage.TempList, limit int) step {
	p := q.planJoin(b, left.Len(), true, limit, x.budget())
	x.plan.join = &p
	s := step{node: obs.TraceNode{Op: "join", AccessPath: p.method.String(), RowsIn: left.Len(), Workers: p.workers}}
	if x.tracing() {
		s.node.Detail = p.orderText()
	}
	workRows, buildEst := p.driverRows, 0
	var rs radix.Stats    // radix join only
	var stageRows []int64 // rows each pipeline stage emitted
	j, jt := b.joins[0], q.rels[1].t
	outer := exec.ListColumn{List: left, Column: 0}
	innerRows := jt.Cardinality()
	spec := exec.JoinSpec{
		OuterName: q.rels[0].name, InnerName: q.rels[1].name,
		OuterField: j.leftField, InnerField: j.rightField,
		Meter: x.m, Prog: x.pg, Limit: limit, Sched: x.sched(), Mem: x.res,
	}
	switch {
	case p.method == plan.JoinTreeMerge:
		s.list = exec.TreeMergeJoin(p.outerTT, p.innerTT, spec)
		s.scanned = int64(innerRows) // a full ordered merge of the inner index
	case p.method == plan.JoinTree:
		s.list = exec.TreeJoin(outer, p.innerOrdered.ordered, spec)
		s.scanned = int64(s.list.Len())
		s.probeKind, s.probes = p.innerOrdered.kind.String(), int64(outer.Len())
	case p.method == plan.JoinRadixHash:
		// Both sides partitioned to L2-resident pieces. It runs even at one
		// worker: the cache behavior, not the parallelism, is the point.
		workRows, buildEst = outer.Len()+innerRows, innerRows
		s.list, rs = parallel.RadixHashJoin(
			parallel.ListSource{List: left, Column: 0},
			parallel.RelationSource{Rel: jt.rel}, spec, p.bits, p.workers)
		s.scanned = int64(innerRows)
		traceRadix(&s.node, rs)
		if x.res != nil && rs.Fanout > 0 {
			s.node.GrantBytes, s.node.Reversed, s.node.Resplits = x.res.Peak(), rs.Reversed, rs.Repartitions
		}
	default: // hash joins, the precomputed join, and every multi-join
		s.list, stageRows, s.scanned = q.runPipeline(x, left, &p, limit)
		for k, st := range p.stages {
			if st.Deref || st.index != nil {
				s.scanned += stageRows[k] // one tuple fetched per match
			}
		}
	}
	left.Release()

	if x.m != nil {
		if p.estRows == nil {
			x.shape += "→" + p.method.String()
		} else {
			x.shape += fmt.Sprintf("→pipeline(%d)", len(q.rels))
			// Audit the order choice: forecast final cardinality vs what
			// the pipeline actually emitted.
			x.audit(obs.Decision{
				Name:      "join order",
				Estimate:  p.estRows[len(p.estRows)-1],
				Actual:    float64(s.list.Len()),
				Unit:      "rows",
				Threshold: 4.0,
			}, func() (string, string) {
				return fmt.Sprintf("%s (%s)", p.orderText(), p.algorithm),
					fmt.Sprintf("rels=%d edges=%d", len(q.rels), len(q.joins))
			})
			if x.tracing() {
				s.node.AccessPath = fmt.Sprintf("pipelined multi-join (%s order)", p.algorithm)
			}
		}
		in := int64(p.driverRows)
		for k, st := range p.stages {
			if st.index != nil {
				x.reg.IndexProbe(st.index.kind.String(), in)
			}
			if p.estRows != nil {
				x.audit(obs.Decision{
					Name:      "join stage",
					Estimate:  p.estRows[k+1],
					Actual:    float64(stageRows[k]),
					Unit:      "rows",
					Threshold: 4.0,
				}, func() (string, string) {
					return fmt.Sprintf("⋈ %s (%s)", p.names[k+1], p.stageMethod(k)), "in rows=" + obs.FmtCount(p.estRows[k])
				})
			}
			if x.tracing() {
				s.node.Add(&obs.TraceNode{
					Op: "join", Detail: "⋈ " + p.names[k+1], AccessPath: p.stagePath(k),
					RowsIn: int(in), RowsOut: int(stageRows[k]),
				})
			}
			in = stageRows[k]
		}
		if p.workers > 1 {
			x.auditWorkers(p.workers, workRows)
		}
		if rs.Fanout > 0 {
			// The radix bits were sized for the catalog's build
			// cardinality, not the rows actually partitioned.
			x.audit(obs.Decision{
				Name:      "radix bits",
				Estimate:  float64(buildEst),
				Actual:    float64(rs.Rows),
				Unit:      "build rows",
				Threshold: 2.0,
			}, func() (string, string) {
				return fmt.Sprintf("fanout=%d passes=%d", rs.Fanout, rs.Passes), "build card=" + obs.FmtCount(float64(buildEst))
			})
			x.auditRadixBalance(rs)
		}
		x.auditClamp("radix budget clamp", p.clamp, p.bits)
	}
	return s
}

// joinGraph builds the planning view of the query's join graph, the
// bound edges joins: per-relation cardinalities (the filtered from-table enters with
// rel0Rows) and per-edge distinct-value estimates from the sampled
// table statistics. locked means the caller already holds shared locks
// on every relation (execute does) and may refresh stats; Explain runs
// lock-free and only reads cached snapshots.
func (q *Query) joinGraph(joins []boundEdge, rel0Rows int, locked bool) plan.JoinGraph {
	g := plan.JoinGraph{Rels: make([]plan.JoinGraphRel, len(q.rels))}
	rows := make([]int, len(q.rels))
	for i, r := range q.rels {
		rows[i] = r.t.Cardinality()
		if i == 0 {
			rows[i] = rel0Rows
		}
		g.Rels[i] = plan.JoinGraphRel{Name: r.name, Rows: rows[i]}
	}
	ndv := func(rel, field int) float64 {
		if field == tupleindex.SelfField {
			return float64(rows[rel]) // tuple identity: one distinct value per row
		}
		var vals []float64
		if locked {
			vals = q.rels[rel].t.rel.Stats().NDV
		} else if st, ok, _ := q.rels[rel].t.rel.CachedStats(); ok {
			// Explain runs lock-free: use whatever snapshot exists rather
			// than refreshing (which would scan under a table lock).
			vals = st.NDV
		}
		if field >= len(vals) {
			return 0 // unknown: the model assumes unique keys
		}
		if d := vals[field]; d <= float64(rows[rel]) {
			return d
		}
		// A filtered from-table cannot carry more distinct values than rows.
		return float64(rows[rel])
	}
	for _, j := range joins {
		g.Edges = append(g.Edges, plan.JoinGraphEdge{
			A: j.leftRel, B: j.rightRel,
			NDVA: ndv(j.leftRel, j.leftField),
			NDVB: ndv(j.rightRel, j.rightField),
		})
	}
	return g
}

// chooseOrder resolves the execution order for a multi-join: the
// enumerator's, or forced, the bound ForceJoinOrder order, priced with the
// plan package's cost model so forecast cardinalities are always
// available for the audit.
func (q *Query) chooseOrder(g plan.JoinGraph, forced []int) plan.JoinOrderResult {
	if forced == nil {
		return plan.ChooseJoinOrder(g, q.db.tune.radix)
	}
	return plan.ForecastOrder(g, q.db.tune.radix, forced)
}

// putStageTable returns a pipeline stage table to the pool; a variable
// so a test can watch when each table comes back.
var putStageTable = radix.PutTable

// runPipeline builds what the plan's stages name — a pooled flat table
// for each built stage; an existing hash index or a Ref to follow needs
// nothing built — and streams the driver through them. Nothing between
// stages materializes; only the final rows land in the output list. left
// is the filtered from-table: the driver stream when the plan puts it
// first, a build side otherwise. It returns the rows each stage emitted
// and the tuples the table builds fetched.
func (q *Query) runPipeline(x *execution, left *storage.TempList, p *joinPlan, limit int) (*storage.TempList, []int64, int64) {
	var driver parallel.Chunked = parallel.ListSource{List: left, Column: 0}
	if p.order[0] != 0 {
		driver = parallel.RelationSource{Rel: q.rels[p.order[0]].t.rel}
	}
	names := make([]string, len(q.rels))
	for i, r := range q.rels {
		names[i] = r.name
	}
	stages := make([]exec.StageSpec, len(p.stages))
	// The stage tables this query built go back to the pool once the
	// pipeline has returned, on every exit path: RunPipeline returns only
	// after its last worker stopped probing, cancelled or not.
	built := make([]*radix.Table, 0, len(p.stages))
	defer func() {
		for _, tbl := range built {
			putStageTable(tbl)
		}
	}()
	var scanned int64
	for k, st := range p.stages {
		stages[k] = st.StageSpec
		switch {
		case st.Deref:
		case st.index != nil:
			stages[k].Table = exec.IndexStage{Index: st.index.hashed}
		default:
			var src exec.Source = q.rels[st.BuildSlot].t.scanSource()
			if st.BuildSlot == 0 && len(q.preds) > 0 {
				src = exec.ListColumn{List: left, Column: 0}
			}
			tbl := exec.BuildStageTable(src, st.BuildField, 0, x.m)
			built = append(built, tbl)
			stages[k].Table = tbl
			scanned += int64(src.Len())
		}
	}
	spec := exec.PipelineSpec{
		Slots:      len(q.rels),
		DriverSlot: p.order[0],
		Stages:     stages,
		BatchRows:  plan.ChooseBatchSize(p.driverRows),
		Limit:      limit,
		Meter:      x.m,
		Prog:       x.pg,
		Sched:      x.sched(),
	}
	hint := 0 // one hash edge: no forecast
	switch e := len(p.estRows) - 1; {
	case p.method == plan.JoinPrecomputed:
		hint = p.driverRows // a pointer per driver tuple: at most one row each
	case e >= 0 && p.estRows[e] >= 0 && p.estRows[e] <= 1<<30:
		hint = int(p.estRows[e])
	}
	list, stageRows, _ := parallel.RunPipeline(driver, spec, storage.Descriptor{Sources: names}, hint, p.workers)
	return list, stageRows, scanned
}

// refInto reports whether the probe column is a Ref foreign key into
// table rt — the precondition for the pointer-dereference stage.
func (q *Query) refInto(probeRel, probeField int, rt *Table) bool {
	if probeField < 0 {
		return false
	}
	def := q.rels[probeRel].t.rel.Schema().Field(probeField)
	return def.Type == storage.Ref && def.ForeignKey == rt.Name()
}

// selectionProjects reports whether the selection emits under the bound
// output columns, so that the projection has nothing left to rewrite: a
// single relation's ungrouped query. selectionDesc and runProject both
// follow it.
func (q *Query) selectionProjects() bool {
	return len(q.joins) == 0 && len(q.groupBy) == 0 && len(q.aggs) == 0
}

// selectionDesc is the descriptor the selection emits under: the output
// columns when the selection projects (selectionProjects), else every
// column of the from-table.
func (q *Query) selectionDesc(b *boundQuery) storage.Descriptor {
	if !q.selectionProjects() {
		return q.from.sel
	}
	return storage.Descriptor{Sources: q.from.sel.Sources, Cols: b.cols}
}

// runProject puts the temp list under a descriptor of the bound output
// columns (§2.3: projection is the descriptor). A list the selection
// already emitted under them (selectionProjects) passes on as it is;
// any other moves under them (Redescribe), leaving list empty.
func (q *Query) runProject(x *execution, list *storage.TempList, cols []storage.ColRef) step {
	s := step{list: list, node: obs.TraceNode{Op: "project", AccessPath: "descriptor rewrite", RowsIn: list.Len()}}
	if !q.selectionProjects() {
		s.list = list.Redescribe(storage.Descriptor{Sources: list.Descriptor().Sources, Cols: cols})
	}
	if x.tracing() {
		s.node.Detail = fmt.Sprintf("%d column(s)", len(cols))
	}
	return s
}

// runGroup executes GROUP BY + aggregates: project the group-key and
// aggregate-input columns into a working list, aggregate it on the shape
// planAgg picks for its size (flat table below the crossover,
// radix-partitioned above; per-worker partial tables merged at the
// barrier when the worker chooser grants parallelism), and emit one
// output row per group: its representative input row, with the keys and
// aggregates as computed columns (agg.Emit). b holds the bound working
// projection, keys, aggregates and output names.
func (q *Query) runGroup(x *execution, list *storage.TempList, b *boundQuery) (step, error) {
	work := list.Redescribe(storage.Descriptor{Sources: list.Descriptor().Sources, Cols: b.wcols})
	n := work.Len()
	ar, err := x.beginAgg(q.planAgg(n, x.budget()), n)
	if err != nil {
		return step{}, err
	}
	defer x.closeAgg(ar)
	groups := parallel.HashAgg(x.sched(), x.pg, ar.g, work, b.gcols, b.specs, ar.bits, ar.workers, x.m)
	out := agg.Emit(work, b.gcols, b.specs, b.names, groups)
	work.Release() // the output took its representative rows and copied every key and aggregate
	gp := ar.aggPlan
	x.plan.group = &gp
	s := step{list: out, node: obs.TraceNode{Op: "group", RowsIn: n, Workers: ar.workers, GrantBytes: ar.grant}}
	traceRadix(&s.node, groups.Stats)
	if x.m != nil {
		// Audit the agg-method crossover: the chooser sized for the worst
		// case (every input row its own group) because group cardinality
		// is unknown before execution; the record shows how far off that
		// was. Informational (Threshold 0) — the worst-case sizing is
		// intentional, not a misprediction.
		x.audit(obs.Decision{Name: "agg method", Estimate: float64(n), Actual: float64(out.Len()), Unit: "groups"},
			func() (string, string) { return gp.path(), "rows=" + obs.FmtCount(float64(n)) })
		if ar.workers > 1 {
			x.auditWorkers(ar.workers, n)
		}
		if groups.Stats.Fanout > 0 {
			x.auditRadixBalance(groups.Stats)
		}
		gp.auditClamp(x)
	}
	if x.tracing() {
		s.node.AccessPath = gp.path()
		s.node.Detail = "global"
		if len(q.groupBy) > 0 {
			s.node.Detail = "BY " + strings.Join(q.groupBy, ", ")
		}
		if len(q.aggs) > 0 {
			s.node.Detail += fmt.Sprintf(" (%d aggregate(s))", len(q.aggs))
		}
	}
	return s, nil
}

// aggPlan is how the aggregation engine will run over an input: the
// crossover's shape, its radix plan, and the worker count. GROUP BY and
// DISTINCT execute it and Explain prints it, so plan and run agree.
type aggPlan struct {
	method  plan.AggMethod
	bits    []uint
	clamp   budgetClamp // the budget's narrowing of bits
	workers int
}

// planAgg sizes the engine for n input rows under a per-query memory
// budget (0 = unbudgeted).
func (q *Query) planAgg(n int, budget int64) aggPlan {
	p := aggPlan{workers: plan.ChooseWorkers(q.parallelism(), n)}
	var clamped bool
	p.method, p.bits, clamped = plan.BudgetedAggBits(n, q.db.tune.agg, budget)
	if clamped {
		p.clamp = budgetClamp{budget: budget, rows: n}
	}
	return p
}

// auditClamp records the budget's narrowing of the radix plan, when one
// ran: the parallel path takes no radix plan, so it clamps nothing.
func (p *aggPlan) auditClamp(x *execution) {
	if p.workers <= 1 {
		x.auditClamp("agg budget clamp", p.clamp, p.bits)
	}
}

// aggExec is one run of the aggregation engine: its plan, the pooled
// grouper whose scratch the result aliases, and the memory grant.
type aggExec struct {
	aggPlan
	g     *agg.Grouper
	grant int64 // bytes granted before the table build (0 = unbudgeted)
}

// beginAgg readies a planned run over n input rows: it takes the grant
// and borrows a grouper. closeAgg undoes both once the result is consumed.
func (x *execution) beginAgg(ap aggPlan, n int) (aggExec, error) {
	ar := aggExec{aggPlan: ap}
	if x.res != nil {
		// Grant-before-build: reserve the worst-case table footprint
		// (every input row its own group, so no key repeats and a flat
		// table's slot array is all of it) before allocating, waiting for
		// sibling queries to release when the budget is tight. The wait
		// honors the query's context, so cancellation propagates as an
		// error instead of a stuck build.
		ar.grant = radix.SlotBytes(n)
		if err := x.res.Grant(x.ctx, ar.grant); err != nil {
			return aggExec{}, err
		}
	}
	ar.g = agg.Get()
	return ar, nil
}

// closeAgg recycles the run's grouper and returns its grant.
func (x *execution) closeAgg(ar aggExec) {
	agg.Put(ar.g)
	x.res.Release(ar.grant) // nil- and zero-safe
}

// runDistinct eliminates duplicate rows of list — first occurrences, in
// input order — and releases it.
func (q *Query) runDistinct(x *execution, list *storage.TempList) (step, error) {
	dp := q.planAgg(list.Len(), x.budget())
	x.plan.distinct = &dp
	s := step{node: obs.TraceNode{Op: "distinct", RowsIn: list.Len()}}
	if x.tracing() {
		s.node.AccessPath = distinctPath(&dp)
	}
	ar, err := x.beginAgg(dp, list.Len())
	if err != nil {
		return step{}, err
	}
	var rs radix.Stats
	s.list, rs = parallel.Distinct(x.sched(), x.pg, ar.g, list, ar.bits, ar.workers, x.m)
	s.node.Workers, s.node.GrantBytes = ar.workers, ar.grant
	traceRadix(&s.node, rs)
	x.closeAgg(ar)
	if x.m != nil {
		if rs.Fanout > 0 {
			x.auditRadixBalance(rs)
		}
		dp.auditClamp(x)
	}
	list.Release()
	return s, nil
}

// orderPlan is how ORDER BY (+ LIMIT) will run over an input: bounded-heap
// top-k or a full sort, on the substrate and worker count it picks.
// Explain prints path and runOrder executes the plan.
type orderPlan struct {
	method  plan.TopKMethod
	k       int             // the heap's bound: the LIMIT, or 0
	sort    plan.SortMethod // the full sort's substrate
	workers int             // the heap's workers; 0 for a full sort
}

// planOrder picks between bounded-heap top-k and a full sort for rows
// input rows (plan.ChooseTopK), and the full sort's substrate from the
// sort-method crossover (§3.1 quicksort or the normalized-key radix
// kernel) over one encoded prefix per ORDER BY term.
func (q *Query) planOrder(rows int) orderPlan {
	p := orderPlan{k: max(q.limit, 0)}
	p.method = plan.ChooseTopK(rows, p.k)
	if p.method == plan.TopKHeap {
		p.workers = plan.ChooseWorkers(q.parallelism(), rows)
		return p
	}
	p.sort = plan.ChooseSortMethod(rows, len(q.orderBy)*plan.DefaultSortPrefixBytes, q.db.tune.sort)
	return p
}

// runOrder executes ORDER BY (+ LIMIT) on the bound keys: run the plan
// and rebuild the list in output order, cut to the limit; the input list
// is released. Both shapes produce the identical deterministic order
// (ordinal tie-break).
func (q *Query) runOrder(x *execution, list *storage.TempList, keys []exec.OrderKey) step {
	n := list.Len()
	p := q.planOrder(n)
	x.plan.order = &p
	var rows []int32
	if p.method == plan.TopKHeap {
		rows = parallel.TopK(x.sched(), x.pg, list, keys, p.k, p.workers, x.m)
	} else {
		rows = exec.OrderRows(list, keys, p.sort, x.m)
		if q.limit >= 0 && len(rows) > q.limit {
			rows = rows[:q.limit]
		}
	}
	s := step{list: list.Take(rows), node: obs.TraceNode{Op: "order", RowsIn: n, Workers: p.workers}}
	list.Release()
	if x.m != nil {
		// Informational (Threshold 0): records the heap-vs-sort
		// crossover's pick and the input size and k it rested on.
		x.audit(obs.Decision{Name: "top-k method", Estimate: float64(n), Unit: "rows"}, func() (string, string) {
			return p.method.String(), fmt.Sprintf("rows=%s k=%d", obs.FmtCount(float64(n)), p.k)
		})
	}
	if x.tracing() {
		s.node.AccessPath = p.path()
		s.node.Detail = "BY " + q.orderByText()
	}
	return s
}

// headList cuts list to its first n rows: they are taken into a fresh
// exact-fit list and list is released.
func headList(list *storage.TempList, n int) *storage.TempList {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	out := list.Take(rows)
	list.Release()
	return out
}
