package mmdb

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/plan"
)

// text renders the plan, one line per decision in the order the phases
// run: the lines Result.Plan returns (estimate < 0) and, after its
// header, the ones Explain prints. Explain passes the from-table's
// catalog cardinality, and a line planned on a size that is only
// estimated — a phase after a filter or a join — says so: "(… estimated
// ≤ N rows)".
func (p *queryPlan) text(estimate int) string {
	explain := estimate >= 0
	lines := p.head.lines(make([]string, 0, 8))
	lines = append(lines, "access "+p.sel.table+": "+p.sel.access())
	estimated := explain && p.sel.preds > 0
	if j := p.join; j != nil {
		head := j.head()
		switch {
		case !estimated:
		case j.estRows == nil:
			head += fmt.Sprintf(" (outer estimated ≤ %d rows; runtime may switch methods on the live size)", estimate)
		default:
			head += fmt.Sprintf(" (driver estimated ≤ %d rows)", estimate)
		}
		lines = append(lines, head)
		for k := range j.stages {
			lines = append(lines, "join ⋈ "+j.names[k+1]+": "+j.stagePath(k))
		}
		estimated = explain
	}
	// A phase after the first consumes an earlier phase's output.
	phase := func(name, path string) {
		if estimated {
			path += fmt.Sprintf(" (input estimated ≤ %d rows)", estimate)
		}
		lines, estimated = append(lines, name+": "+path), explain
	}
	if p.group != nil {
		phase("group", p.group.path())
	}
	if p.distinct != nil {
		phase("distinct", distinctPath(p.distinct))
	}
	if p.order != nil {
		phase("order", p.order.path())
	}
	return strings.Join(lines, "\n")
}

// lines appends the head's plan lines.
func (h headPlan) lines(out []string) []string {
	out = append(out, fmt.Sprintf("batch: %d-tuple pointer blocks", h.batch))
	switch {
	case h.selLimit > 0:
		out = append(out, fmt.Sprintf("limit: %d pushed into selection", h.selLimit))
	case h.joinLimit > 0:
		out = append(out, fmt.Sprintf("limit: %d pushed into join (early exit)", h.joinLimit))
	}
	return out
}

// access renders the selection's access path, the text after "access
// <table>: " on its plan line and its trace node's path: what runs (the
// planned path's name, or what the executor runs in its place — a
// parallel or snapshot scan), then with predicates the column, the
// folded interval — "(empty interval)" when no row can qualify — and how
// many predicates are left to the residual filter, and a pushed LIMIT's
// early exit.
func (sp *selPlan) access() string {
	desc := sp.path.String()
	switch {
	case sp.snap:
		desc = fmt.Sprintf("snapshot scan @ epoch %d (%d workers, no lock held)", sp.epoch, sp.workers)
	case sp.workers > 1:
		desc = fmt.Sprintf("parallel partition scan (%d workers)", sp.workers)
	}
	switch {
	case sp.preds > 0:
		desc = fmt.Sprintf("%s on %q", desc, sp.column)
		served := 1
		switch {
		case sp.empty:
			desc, served = desc+" (empty interval)", sp.preds // nothing is left to filter
		case sp.path == plan.PathTreeRange:
			served = sp.folded
			lo, hi := "(-inf", "+inf)"
			if !sp.lo.IsNull() {
				lo = "[" + sp.lo.String()
			}
			if !sp.hi.IsNull() {
				hi = sp.hi.String() + "]"
			}
			desc += " " + lo + ", " + hi
		}
		if n := sp.preds - served; n > 0 {
			desc += fmt.Sprintf(" + %d residual filter(s)", n)
		}
	case sp.workers == 0:
		desc = fmt.Sprintf("full scan via %s index", sp.primary)
	}
	if sp.limit >= 0 {
		desc += fmt.Sprintf(" (early exit at LIMIT %d)", sp.limit)
	}
	return desc
}

// orderText renders the join order by scope names: "fact ⋈ d1 ⋈ d2".
func (p *joinPlan) orderText() string { return strings.Join(p.names, " ⋈ ") }

// head is the join phase's first plan line: the method between two
// relations, or the order of several.
func (p *joinPlan) head() string {
	if p.estRows == nil {
		return fmt.Sprintf("join %s: %s", p.orderText(), p.method)
	}
	return fmt.Sprintf("join order: %s (%s)", p.orderText(), p.algorithm)
}

// stageMethod names how stage k binds its relation: "pointer deref",
// "hash probe (<kind> index)" or "hash probe (built table)".
func (p *joinPlan) stageMethod(k int) string {
	switch st := p.stages[k]; {
	case st.Deref:
		return "pointer deref"
	case st.index != nil:
		return "hash probe (" + st.index.kind.String() + " index)"
	}
	return "hash probe (built table)"
}

// stagePath is stage k's access path, the text after "join ⋈ <name>: "
// on its plan line: its method and, for a multi-join, the rows forecast
// after it.
func (p *joinPlan) stagePath(k int) string {
	if p.estRows == nil {
		return p.stageMethod(k)
	}
	return fmt.Sprintf("%s (forecast %s rows)", p.stageMethod(k), obs.FmtCount(p.estRows[k+1]))
}

// path names what runs: workers > 1 fold per-worker flat tables and
// merge them in one hash partition per worker, whatever the crossover
// picked.
func (p *aggPlan) path() string {
	if p.workers > 1 {
		return fmt.Sprintf("parallel partial agg, %d-partition merge (%d workers)", p.workers, p.workers)
	}
	return p.method.String()
}

// distinctPath names how DISTINCT runs: §3.4's conclusion, hashing
// dominates, as a keys-only run of the aggregation engine.
func distinctPath(p *aggPlan) string {
	return "hash duplicate elimination, keys-only " + p.path()
}

// path names what runs: "bounded-heap top-k (k=10)" or "full sort (…)".
func (p *orderPlan) path() string {
	if p.method == plan.TopKHeap {
		return fmt.Sprintf("bounded-heap top-k (k=%d)", p.k)
	}
	return "full sort (" + p.sort.String() + ")"
}

// String renders the query in a compact SQL-ish form: the text the live
// registry and the slow-query log show. Neither builds it while the query
// runs; the registry renders it when a snapshot is taken, the slow log
// when the query crossed its threshold.
func (q *Query) String() string {
	if q.from == nil {
		return "invalid query: " + q.err.Error()
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.distinct {
		b.WriteString("DISTINCT ")
	}
	switch {
	case len(q.groupBy) > 0 || len(q.aggs) > 0:
		// Grouped output: group keys then aggregates, Select list unused.
		items := make([]string, 0, len(q.groupBy)+len(q.aggs))
		items = append(items, q.groupBy...)
		for _, a := range q.aggs {
			items = append(items, a.name)
		}
		b.WriteString(strings.Join(items, ", "))
	case len(q.cols) == 0:
		b.WriteString("*")
	default:
		b.WriteString(strings.Join(q.cols, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(q.from.Name())
	if q.rels[0].name != q.from.Name() {
		b.WriteString(" " + q.rels[0].name)
	}
	for _, j := range q.joins {
		if j.closing {
			// Closing edge of a cycle: continuation of the last JOIN clause.
			fmt.Fprintf(&b, " AND %s=%s", joinSide(j.leftCol, ""), joinSide(j.rightCol, ""))
			continue
		}
		r, first := q.rels[j.scope], ""
		if j.scope == 1 {
			first = q.rels[0].name // the one relation a bare left side can name
		}
		fmt.Fprintf(&b, " JOIN %s", r.t.Name())
		if r.name != r.t.Name() {
			b.WriteString(" " + r.name)
		}
		fmt.Fprintf(&b, " ON %s=%s", joinSide(j.leftCol, first), joinSide(j.rightCol, r.name))
	}
	for i, p := range q.preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s %s %s", p.column, p.op, p.val)
	}
	if len(q.groupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.groupBy, ", "))
	}
	if len(q.orderBy) > 0 {
		b.WriteString(" ORDER BY ")
		b.WriteString(q.orderByText())
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String()
}

// joinSide renders a join column as its call wrote it, SELF for tuple
// identity, and a bare column qualified by rel: the one relation it can
// name, or "" when the call leaves it several.
func joinSide(col, rel string) string {
	if scope, c, ok := strings.Cut(col, "."); ok {
		rel, col = scope, c
	}
	if col == Self {
		col = "SELF"
	}
	if rel == "" {
		return col
	}
	return rel + "." + col
}

// orderByText renders the ORDER BY list ("sal DESC, name").
func (q *Query) orderByText() string {
	var b strings.Builder
	for i, o := range q.orderBy {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.col)
		if o.desc {
			b.WriteString(" DESC")
		}
	}
	return b.String()
}
