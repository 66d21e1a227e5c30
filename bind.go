package mmdb

import (
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// boundQuery is what the query's names resolve to, decided before it
// takes any lock: the predicate columns, and whether a predicate's value
// rules out every row; the join edges; the output
// columns, or a grouped query's working columns, keys and aggregates; the
// ORDER BY terms; and a forced join order. Nothing writes it once bound,
// so a statement template's one bound query serves every run of its
// shape, concurrent ones included.
type boundQuery struct {
	preds []int            // each predicate's field of the from-table, in q.preds order
	empty bool             // a predicate's value is NULL or not of its column's type: no row qualifies
	joins []boundEdge      // each join edge, in q.joins order
	cols  []storage.ColRef // the projection's output columns; nil when grouped
	// Grouped: the working projection (group keys, then aggregate inputs),
	// the keys' ordinals in it, the aggregates and the output names.
	wcols  []storage.ColRef
	gcols  []int
	specs  []agg.Spec
	names  []string
	order  []exec.OrderKey // the ORDER BY terms as output-column ordinals
	forced []int           // ForceJoinOrder as relation indices; nil = the planner's order
}

// boundEdge is one join edge resolved: field leftField of rels[leftRel]
// equi-joined to field rightField of rels[rightRel]. A field of
// tupleindex.SelfField joins on tuple identity.
type boundEdge struct {
	leftRel, leftField, rightRel, rightField int
}

// bind resolves every name the query's phases use: the scope names, which
// must be distinct; each predicate's column in the from-table, against
// whose type it checks the predicate's value; both sides
// of each join edge in the relations in scope at its call; the Select list
// (every column of every relation without one) or the GROUP BY keys and
// aggregate inputs; the ORDER BY terms against the output those produce;
// and, with more than one join edge, ForceJoinOrder's names. An error the
// fluent calls recorded comes first. A template's query returns its bound
// value.
func (q *Query) bind() (b boundQuery, err error) {
	if q.err != nil {
		return b, q.err
	}
	if q.bound != nil {
		return *q.bound, nil
	}
	for i, r := range q.rels {
		if q.relNamed(r.name) != i {
			return b, &scopeError{name: r.name, table: r.t.Name()}
		}
	}
	b.preds = make([]int, len(q.preds))
	for i, p := range q.preds {
		if _, b.preds[i], err = q.resolve(0, 1, p.column, false); err != nil {
			return b, err
		}
		// A NULL value, or one of another type, compares with no value of
		// the column: the conjunction cannot hold. Nothing is coerced.
		b.empty = b.empty || p.val.IsNull() || p.val.Type() != q.from.rel.Schema().Field(b.preds[i]).Type
	}
	b.joins = make([]boundEdge, len(q.joins))
	for i, j := range q.joins {
		if j.closing && j.scope < 2 {
			return b, fmt.Errorf("mmdb: On needs at least two relations in scope")
		}
		lo, hi := j.scope, j.scope+1 // a Join edge's right side is the relation it added
		if j.closing {
			lo, hi = 0, j.scope
		}
		e := &b.joins[i]
		if e.leftRel, e.leftField, err = q.resolve(0, j.scope, j.leftCol, true); err == nil {
			e.rightRel, e.rightField, err = q.resolve(lo, hi, j.rightCol, true)
		}
		if err != nil {
			return b, err
		}
		if e.leftRel == e.rightRel {
			return b, fmt.Errorf("mmdb: On must relate two different relations (both sides resolve to %s)",
				q.rels[e.leftRel].name)
		}
	}
	// col appends the output column name resolves to, over every relation.
	col := func(refs []storage.ColRef, name string) ([]storage.ColRef, error) {
		rel, f, err := q.resolve(0, len(q.rels), name, false)
		return append(refs, storage.ColRef{Source: rel, Field: f, Name: name}), err
	}
	var out []storage.ColRef // the output columns ORDER BY resolves against, by name
	if len(q.groupBy) > 0 || len(q.aggs) > 0 {
		// Working projection: group columns first, aggregate inputs after,
		// so the operator addresses both as ordinals of one descriptor.
		b.wcols = make([]storage.ColRef, 0, len(q.groupBy)+len(q.aggs))
		for _, name := range q.groupBy {
			if b.wcols, err = col(b.wcols, name); err != nil {
				return b, err
			}
		}
		b.gcols = make([]int, len(q.groupBy))
		for i := range b.gcols {
			b.gcols[i] = i
		}
		b.specs = make([]agg.Spec, len(q.aggs))
		for i, a := range q.aggs {
			b.specs[i] = agg.Spec{Kind: aggKind(a.fn), Col: -1, Name: a.name}
			if a.col != "" && a.col != "*" {
				b.specs[i].Col = len(b.wcols)
				if b.wcols, err = col(b.wcols, a.col); err != nil {
					return b, err
				}
			} else if a.fn != AggCount {
				return b, fmt.Errorf("mmdb: %s requires a column", a.fn)
			}
		}
		b.names = agg.Names(q.groupBy, b.specs)
		if len(q.orderBy) > 0 {
			out = make([]storage.ColRef, len(b.names))
			for i, name := range b.names {
				out[i].Name = name
			}
		}
	} else {
		b.cols = make([]storage.ColRef, 0, len(q.cols))
		for _, name := range q.cols {
			if b.cols, err = col(b.cols, name); err != nil {
				return b, err
			}
		}
		if len(q.cols) == 0 {
			// All columns of all relations, qualified by scope name (the
			// alias where one was given) so self-joined uses stay distinct.
			for si, r := range q.rels {
				for fi, f := range r.t.Schema() {
					b.cols = append(b.cols, storage.ColRef{Source: si, Field: fi, Name: r.name + "." + f.Name})
				}
			}
		}
		out = b.cols
	}
	b.order = make([]exec.OrderKey, len(q.orderBy))
	for i, o := range q.orderBy {
		c, err := resolveOrderColumn(out, o.col)
		if err != nil {
			return b, err
		}
		b.order[i] = exec.OrderKey{Col: c, Desc: o.desc}
	}
	if len(q.joins) > 1 && q.forced != nil {
		// A single edge has no order to choose, so it ignores the names.
		b.forced, err = q.forcedOrder(b.joins)
	}
	return b, err
}

// scopeError is bind's answer to a scope name given twice: name, the
// second time to a relation of table. Its text names the fluent remedy;
// a SQL statement's build names the SQL one.
type scopeError struct{ name, table string }

func (e *scopeError) Error() string {
	return fmt.Sprintf("mmdb: relation name %q already in scope; use JoinAs with a distinct alias", e.name)
}

// resolve resolves a column name in rels[lo:hi], the relations in its
// scope: "name.col" in the one whose scope name is name, a bare "col" in
// the first that has it. With self, Self — bare, naming rels[lo], or
// qualified — is tuple identity (tupleindex.SelfField). Only bind calls
// it, so no name resolves after the query takes a lock.
func (q *Query) resolve(lo, hi int, name string, self bool) (rel, field int, err error) {
	col := name
	if scope, c, ok := strings.Cut(name, "."); ok {
		if rel = q.relNamed(scope); rel < lo || rel >= hi {
			return 0, 0, fmt.Errorf("mmdb: cannot resolve column %q", name)
		}
		lo, hi, col = rel, rel+1, c
	}
	if self && col == Self {
		return lo, tupleindex.SelfField, nil
	}
	for rel = lo; rel < hi; rel++ {
		if field = q.rels[rel].t.ColumnIndex(col); field >= 0 {
			return rel, field, nil
		}
	}
	return 0, 0, fmt.Errorf("mmdb: cannot resolve column %q", name)
}

// relNamed is the index of the first relation whose scope name is name,
// or -1.
func (q *Query) relNamed(name string) int {
	for i, r := range q.rels {
		if r.name == name {
			return i
		}
	}
	return -1
}

// forcedOrder validates ForceJoinOrder's names: every relation exactly
// once, and each one after the driver connected by one of the bound join
// edges to the ones before it (the pipeline cannot execute cross
// products).
func (q *Query) forcedOrder(joins []boundEdge) ([]int, error) {
	if len(q.forced) != len(q.rels) {
		return nil, fmt.Errorf("mmdb: ForceJoinOrder must name all %d relations exactly once (got %d)",
			len(q.rels), len(q.forced))
	}
	order := make([]int, 0, len(q.forced))
	used := make([]bool, len(q.rels))
	for _, name := range q.forced {
		idx := q.relNamed(name)
		if idx < 0 {
			return nil, fmt.Errorf("mmdb: ForceJoinOrder: no relation %q in scope", name)
		}
		if used[idx] {
			return nil, fmt.Errorf("mmdb: ForceJoinOrder names %q twice", name)
		}
		used[idx] = true
		order = append(order, idx)
	}
	var mask uint32 = 1 << uint(order[0])
	for _, r := range order[1:] {
		connected := false
		for _, j := range joins {
			if (j.leftRel == r && mask&(1<<uint(j.rightRel)) != 0) ||
				(j.rightRel == r && mask&(1<<uint(j.leftRel)) != 0) {
				connected = true
				break
			}
		}
		if !connected {
			return nil, fmt.Errorf("mmdb: ForceJoinOrder: %s does not join any earlier relation (cross product)",
				q.rels[r].name)
		}
		mask |= 1 << uint(r)
	}
	return order, nil
}

// resolveOrderColumn resolves one ORDER BY term against the output
// descriptor: a string of digits is SQL's 1-based output ordinal
// ("ORDER BY 2"); a name matches an output column exactly, or — as the
// unqualified form of a qualified output name — the part after its dot,
// if unambiguous.
func resolveOrderColumn(cols []storage.ColRef, name string) (int, error) {
	if n, ok := parseOrdinal(name); ok {
		if n < 1 || n > len(cols) {
			return 0, fmt.Errorf("mmdb: ORDER BY ordinal %d out of range (1..%d)", n, len(cols))
		}
		return n - 1, nil
	}
	for i, c := range cols {
		if c.Name == name {
			return i, nil
		}
	}
	match := -1
	for i, c := range cols {
		if j := strings.IndexByte(c.Name, '.'); j >= 0 && c.Name[j+1:] == name {
			if match >= 0 {
				return 0, fmt.Errorf("mmdb: ORDER BY column %q is ambiguous", name)
			}
			match = i
		}
	}
	if match < 0 {
		return 0, fmt.Errorf("mmdb: ORDER BY column %q is not an output column", name)
	}
	return match, nil
}

// parseOrdinal parses an all-digits ORDER BY ordinal.
func parseOrdinal(s string) (int, bool) {
	if s == "" || len(s) > 6 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}
