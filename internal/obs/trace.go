package obs

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/meter"
)

// TraceNode is one operator of an executed query plan: what the planner
// chose, how many rows flowed through, how long it took, and the §3.1
// operation counts it accumulated. Children are sub-operators: the
// query's phases hang off the trace's root in execution order (select,
// join, group, project, …), and a pipelined multi-way join carries one
// child per probe stage.
type TraceNode struct {
	Op         string        // operator: "select", "join", "project", "distinct"
	Detail     string        // human description: tables, columns, predicates
	AccessPath string        // the planner's choice: access path or join method
	RowsIn     int           // tuples entering the operator
	RowsOut    int           // rows the operator emitted
	Workers    int           // parallel workers used (0 or 1 = serial)
	Wall       time.Duration // operator wall time

	// Radix-execution detail, populated only when the operator ran on the
	// cache-conscious radix path: how many scatter passes the kernel
	// executed, the final partition fan-out, and the partition skew (max
	// partition size over mean; 1.0 = perfectly balanced).
	RadixPasses   int
	Partitions    int
	PartitionSkew float64

	// Memory-budget detail, populated only when the operator ran under a
	// grant-manager reservation: the peak bytes granted for this
	// operator's tables, and the dynamic-hybrid defense counts — pairs
	// whose build/probe roles were reversed, and fat partitions
	// recursively re-split. GrantBytes > 0 turns on the "budget:" trace
	// line even when both defenses stayed at zero.
	GrantBytes int64
	Reversed   int
	Resplits   int

	// Refresh is what a snapshot scan paid before it could start: set only
	// when it found the published snapshot stale and republished it.
	Refresh SnapRefresh

	Ops      meter.Counters
	Children []*TraceNode
}

// SnapRefresh attributes one snapshot refresh — the one place a snapshot
// reader can wait. The reader takes S(relation), so LockWait is the time
// in-flight writers made it wait; Build is the republication itself:
// Patched partitions had only in-place updates and kept their clone array
// but for the Tuples that changed, Cloned ones were rebuilt. A reader that
// lost the race to another refresher reports the wait and builds nothing.
// The zero value means the snapshot was fresh and no lock was taken.
type SnapRefresh struct {
	Patched, Cloned int
	Tuples          int
	LockWait, Build time.Duration
}

// Add appends a child operator and returns it.
func (n *TraceNode) Add(child *TraceNode) *TraceNode {
	n.Children = append(n.Children, child)
	return child
}

// QueryTrace is the execution trace of one query: the operator tree plus
// query-level totals. It is produced by Query.Analyze / EXPLAIN ANALYZE
// and describes what actually ran — every line is an executed operator,
// not an estimate.
type QueryTrace struct {
	Root  *TraceNode
	Total time.Duration // end-to-end wall time, including locking and planning

	// Decisions is the plan-vs-actual audit: one record per cost-model
	// choice the planner made (batch size, worker count, radix bits, sort
	// method), each comparing the estimate the choice rested on against
	// the observed value.
	Decisions []Decision

	// Morsel-scheduler costs for the whole query: morsels executed by a
	// worker other than the enqueuer, and time spent waiting for pool
	// admission. Zero when no morsel was stolen or waited for.
	SchedSteals int64
	SchedWait   time.Duration
}

// TotalOps sums the §3.1 counters over the whole tree.
func (t *QueryTrace) TotalOps() meter.Counters {
	var sum meter.Counters
	if t == nil {
		return sum
	}
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		if n == nil {
			return
		}
		sum.Add(n.Ops)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return sum
}

// Format renders the trace as an indented operator tree:
//
//	executed: 3 rows in 412µs (cmp=121 move=0 hash=41 ...)
//	├─ select emp: hash lookup on "dept"  rows in=10000 out=40  wall=120µs  [cmp=41 hash=1]
//	└─ join emp ⋈ dept: Hash Join  rows in=40 out=40  wall=80µs  [cmp=80 hash=40]
func (t *QueryTrace) Format() string {
	if t == nil || t.Root == nil {
		return "executed: (no trace)"
	}
	var b strings.Builder
	ops := t.TotalOps()
	fmt.Fprintf(&b, "executed: %d rows in %s", t.Root.RowsOut, fmtDur(t.Total))
	if ops != (meter.Counters{}) {
		fmt.Fprintf(&b, " (%s)", ops.String())
	}
	b.WriteByte('\n')
	if t.SchedSteals > 0 || t.SchedWait > 0 {
		fmt.Fprintf(&b, "sched: steals=%d waited=%s\n", t.SchedSteals, fmtDur(t.SchedWait))
	}
	for _, d := range t.Decisions {
		b.WriteString("decision ")
		b.WriteString(d.Line())
		b.WriteByte('\n')
	}
	for i, c := range t.Root.Children {
		writeNode(&b, c, "", i == len(t.Root.Children)-1)
	}
	return strings.TrimRight(b.String(), "\n")
}

func writeNode(b *strings.Builder, n *TraceNode, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	b.WriteString(prefix)
	b.WriteString(branch)
	b.WriteString(n.Line())
	b.WriteByte('\n')
	for i, c := range n.Children {
		writeNode(b, c, childPrefix, i == len(n.Children)-1)
	}
}

// Line renders one operator as a single line.
func (n *TraceNode) Line() string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	if n.AccessPath != "" {
		fmt.Fprintf(&b, ": %s", n.AccessPath)
	}
	fmt.Fprintf(&b, "  rows in=%d out=%d  wall=%s", n.RowsIn, n.RowsOut, fmtDur(n.Wall))
	if n.Workers > 1 {
		fmt.Fprintf(&b, "  workers=%d", n.Workers)
	}
	if n.Partitions > 0 {
		fmt.Fprintf(&b, "  radix: passes=%d parts=%d skew=%.2f", n.RadixPasses, n.Partitions, n.PartitionSkew)
	}
	if n.GrantBytes > 0 || n.Reversed > 0 || n.Resplits > 0 {
		fmt.Fprintf(&b, "  budget: grant=%s reversed=%d resplit=%d", FmtBytes(n.GrantBytes), n.Reversed, n.Resplits)
	}
	if r := n.Refresh; r != (SnapRefresh{}) {
		fmt.Fprintf(&b, "  refreshed: %d patched + %d cloned partitions, %d tuples, lock wait %s, build %s",
			r.Patched, r.Cloned, r.Tuples, fmtDur(r.LockWait), fmtDur(r.Build))
	}
	if n.Ops.SortPasses > 0 || n.Ops.SortRuns > 0 {
		// The normalized-key sort kernel ran inside this operator:
		// scatter passes, comparator-sorted runs, and key bytes encoded.
		fmt.Fprintf(&b, "  sort: passes=%d runs=%d keyB=%d", n.Ops.SortPasses, n.Ops.SortRuns, n.Ops.KeyBytes)
	}
	if n.Ops.Groups > 0 {
		// Grouped aggregation ran here: distinct groups out and the
		// open-addressing probe steps spent locating them.
		fmt.Fprintf(&b, "  agg: GroupsOut=%d AggTableProbes=%d", n.Ops.Groups, n.Ops.AggProbes)
	}
	if n.Ops.HeapPushes > 0 {
		// A bounded top-k heap ran here: each push is one sift through
		// the k-element heap, so pushes ≪ rows-in shows the cutoff working.
		fmt.Fprintf(&b, "  topk: HeapPushes=%d", n.Ops.HeapPushes)
	}
	if n.Ops != (meter.Counters{}) {
		fmt.Fprintf(&b, "  [%s]", compactOps(n.Ops))
	}
	return b.String()
}

// compactOps renders only the non-zero §3.1 counters; Line calls it
// when at least one is.
func compactOps(c meter.Counters) string {
	var parts []string
	for i := range meter.NumFields {
		if v, f := c.At(i); *v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.Name, *v))
		}
	}
	return strings.Join(parts, " ")
}

// fmtDur rounds a duration to a readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
