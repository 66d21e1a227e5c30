package main

import (
	"fmt"
	"time"

	mmdb "repro"
	"repro/internal/sqlparser"
)

// traceTotals accumulates, over the traced ops of one pass, the times the
// per-layer metrics are ratios of.
type traceTotals struct {
	ops, queries         int
	opNS, coveredNS      int64 // op spans, and what their children plus glue account for
	parseNS, planNS      int64
	totalNS, wallNS      int64 // Σ QueryTrace.Total and Σ top-level operator Wall
	analyzeNS, outsideNS int64 // Σ Analyze spans, and the part of them Total does not cover
	selectNS, joinNS     int64 // operator Wall by class
	aggSortNS            int64
	steals               int64
	schedWaitNS          int64
	layerSpans           map[string]int // operator spans per layer
}

// executor runs ops against one engine: untraced for the measured window,
// traced (tr set) for the per-layer pass.
type executor struct {
	e      *Engine
	tr     *Tracer
	verify bool // full checksum; otherwise only errors and row counts
	tot    traceTotals
	// kindCost, when set, collects every op's cost under its kind.
	kindCost map[kindID][]time.Duration
}

// do executes one op and returns the time the engine spent on it and the
// first thing wrong with its outcome. Verification runs after the clock
// stops.
func (x *executor) do(op *Op) (time.Duration, error) {
	var (
		res      *mmdb.Result
		affected int
		cost     time.Duration
		err      error
	)
	if x.tr == nil {
		t0 := time.Now()
		if op.SQL != "" {
			var r *mmdb.ExecResult
			if r, err = x.e.db.Exec(op.SQL); err == nil {
				res, affected = r.Result, r.RowsAffected
			}
		} else {
			res, err = op.Query(x.e.db).Run()
		}
		cost = time.Since(t0)
	} else {
		res, affected, cost, err = x.traced(op)
	}
	if x.kindCost != nil {
		x.kindCost[op.Kind] = append(x.kindCost[op.Kind], cost)
	}
	if err != nil {
		return cost, fmt.Errorf("%v: %w", op.Kind, err)
	}
	if op.Query == nil {
		if affected != op.Want.Affected {
			return cost, fmt.Errorf("%v: %d rows affected, want %d", op.Kind, affected, op.Want.Affected)
		}
		return cost, nil
	}
	if x.verify || op.Want.Check != nil {
		err = verify(res, op.Want)
	} else if res == nil || res.Len() != op.Want.Rows {
		err = fmt.Errorf("row count differs from %d", op.Want.Rows)
	}
	if err != nil {
		return cost, fmt.Errorf("%v: %w", op.Kind, err)
	}
	return cost, nil
}

// traced runs one op as spans: sqlparser.Parse over the statement text,
// Explain, then Analyze with its operator tree as child spans (DML runs
// through Exec under one span). The returned cost leaves out the spans a
// plain Exec or Run would not have paid: Explain always, and the separate
// parse of a DML statement, which Exec parses again.
func (x *executor) traced(op *Op) (res *mmdb.Result, affected int, cost time.Duration, err error) {
	t, db := x.tr, x.e.db
	id := t.newOp()
	root := t.begin(-1, id, "mmdb", op.Kind.String())
	var parse, covered int64
	if op.SQL != "" {
		s := t.begin(root, id, "sqlparser", "parse")
		// A statement that does not parse fails again, visibly, in Exec.
		_, _ = sqlparser.Parse(op.SQL)
		t.end(s, 0)
		parse = t.Spans[s].dur()
		x.tot.parseNS += parse
		covered += parse
	}
	if op.Query == nil {
		s := t.begin(root, id, "mmdb", "exec")
		var r *mmdb.ExecResult
		if r, err = db.Exec(op.SQL); err == nil {
			affected = r.RowsAffected
		}
		t.end(s, affected)
		cost = time.Duration(t.Spans[s].dur())
		covered += int64(cost)
	} else {
		s := t.begin(root, id, "plan", "explain")
		_, err = op.Query(db).Explain()
		t.end(s, 0)
		x.tot.planNS += t.Spans[s].dur()
		covered += t.Spans[s].dur()
		if err == nil {
			s = t.begin(root, id, "mmdb", "analyze")
			var tr *mmdb.QueryTrace
			res, tr, err = op.Query(db).Analyze()
			rows := 0
			if res != nil {
				rows = res.Len()
			}
			t.end(s, rows)
			sp := t.Spans[s]
			cost = time.Duration(parse + sp.dur())
			if tr != nil && tr.Root != nil {
				t.addOperators(s, id, tr.Root.Children, sp.StartNS, sp.EndNS)
				x.account(tr)
				// What the Analyze call took beyond its own Total is
				// measured from out here and attributed to nothing: it
				// stays in the Analyze span's self time, and counts as not
				// covered.
				x.tot.analyzeNS += sp.dur()
				x.tot.outsideNS += max(sp.dur()-int64(tr.Total), 0)
				// Operators plus glue are exactly Total.
				covered += int64(tr.Total)
			}
		}
	}
	t.end(root, 0)
	x.tot.ops++
	x.tot.opNS += t.Spans[root].dur()
	x.tot.coveredNS += covered
	return res, affected, cost, err
}

// account folds one query trace into the pass totals.
func (x *executor) account(tr *mmdb.QueryTrace) {
	tot := &x.tot
	tot.queries++
	tot.totalNS += int64(tr.Total)
	tot.wallNS += int64(operatorWall(tr))
	tot.steals += tr.SchedSteals
	tot.schedWaitNS += int64(tr.SchedWait)
	if tot.layerSpans == nil {
		tot.layerSpans = map[string]int{}
	}
	for _, n := range tr.Root.Children {
		tot.layerSpans[operatorLayer(n)]++
		switch n.Op {
		case "select":
			tot.selectNS += int64(n.Wall)
		case "join":
			tot.joinNS += int64(n.Wall)
		case "group", "order", "distinct":
			tot.aggSortNS += int64(n.Wall)
		}
	}
}
