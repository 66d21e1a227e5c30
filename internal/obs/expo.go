package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/meter"
)

// Snapshot is a point-in-time copy of every metric the registry tracks.
// It is a plain value: safe to retain, diff, and serialize.
type Snapshot struct {
	Queries       int64            `json:"queries"`
	QueriesByPlan map[string]int64 `json:"queries_by_plan,omitempty"`
	RowsScanned   int64            `json:"rows_scanned"`
	RowsReturned  int64            `json:"rows_returned"`
	IndexProbes   map[string]int64 `json:"index_probes,omitempty"`

	LockWaits    int64         `json:"lock_waits"`
	LockWaitTime time.Duration `json:"lock_wait_nanos"`
	Deadlocks    int64         `json:"deadlocks"`

	// Snapshot refreshes: how often a snapshot reader found the published
	// image stale, the time those readers spent on it (waiting for
	// S(relation) plus republishing), and the clone headers they built.
	SnapRefreshes      int64         `json:"snapshot_refreshes"`
	SnapRefreshTime    time.Duration `json:"snapshot_refresh_nanos"`
	SnapTuplesRecloned int64         `json:"snapshot_tuples_recloned"`

	TxnBegins  int64 `json:"txn_begins"`
	TxnCommits int64 `json:"txn_commits"`
	TxnAborts  int64 `json:"txn_aborts"`

	LogAppends int64 `json:"log_appends"`
	LogWords   int64 `json:"log_words"`
	LogFlushes int64 `json:"log_flushes"`

	Ops meter.Counters `json:"ops"`

	QueryLatency HistogramSnapshot `json:"query_latency"`

	// Plan-vs-actual audit: mispredictions per decision name, and the
	// radix partition-skew distribution.
	PlanMispredicts map[string]int64       `json:"plan_mispredicts,omitempty"`
	RadixSkew       FloatHistogramSnapshot `json:"radix_skew"`

	// Sched is the morsel scheduler's saturation snapshot, present when
	// the database runs on a work-stealing pool (SetSchedSource wired).
	Sched *SchedStats `json:"sched,omitempty"`

	// Mem is the memory grant manager's snapshot, present when the
	// database runs with a memory budget (SetMemSource wired).
	Mem *MemStats `json:"mem,omitempty"`

	// Tables carries the per-relation statistics snapshots the join-order
	// planner runs on, and each relation's byte estimate. The registry
	// itself does not track these — they come from storage through
	// SetTableSource, and the engine's Database.Stats() fills them in
	// itself when metrics are disabled.
	Tables []TableStat `json:"tables,omitempty"`
}

// TableStat is one relation's sampled statistics (see Snapshot.Tables):
// the exact row count, per-column distinct-value estimates in schema
// order, how many rows the last refresh sampled, and the bytes the rows
// occupied then (headers, field arrays, slot arrays, string payloads, the
// published snapshot's clones; indices not included). Plain data, so obs
// carries no storage dependency.
type TableStat struct {
	Name        string    `json:"name"`
	Rows        int       `json:"rows"`
	NDV         []float64 `json:"ndv,omitempty"`
	SampledRows int       `json:"sampled_rows,omitempty"`
	Bytes       int64     `json:"bytes,omitempty"`
}

// BytesPerRow is the table's storage cost per row, 0 for an empty table.
func (t TableStat) BytesPerRow() float64 {
	if t.Rows == 0 {
		return 0
	}
	return float64(t.Bytes) / float64(t.Rows)
}

// Snapshot copies the registry's current state. Safe on a nil receiver
// (returns the zero Snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var sched *SchedStats
	if r.schedSource != nil {
		s := r.schedSource()
		sched = &s
	}
	var gm *MemStats
	if r.memSource != nil {
		m := r.memSource()
		gm = &m
	}
	var tables []TableStat
	if r.tableSource != nil {
		tables = r.tableSource()
	}
	r.opsMu.Lock()
	ops := r.ops
	r.opsMu.Unlock()
	return Snapshot{
		Sched:              sched,
		Mem:                gm,
		Tables:             tables,
		Queries:            r.queries.Load(),
		QueriesByPlan:      r.planShapes.snapshot(),
		RowsScanned:        r.rowsScanned.Load(),
		RowsReturned:       r.rowsReturned.Load(),
		IndexProbes:        r.indexProbes.snapshot(),
		LockWaits:          r.lockWaits.Load(),
		LockWaitTime:       time.Duration(r.lockWaitNanos.Load()),
		Deadlocks:          r.deadlocks.Load(),
		SnapRefreshes:      r.snapRefreshes.Load(),
		SnapRefreshTime:    time.Duration(r.snapRefreshNanos.Load()),
		SnapTuplesRecloned: r.snapTuplesRecloned.Load(),
		TxnBegins:          r.txnBegins.Load(),
		TxnCommits:         r.txnCommits.Load(),
		TxnAborts:          r.txnAborts.Load(),
		LogAppends:         r.logAppends.Load(),
		LogWords:           r.logWords.Load(),
		LogFlushes:         r.logFlushes.Load(),
		Ops:                ops,
		QueryLatency:       r.queryLatency.Snapshot(),
		PlanMispredicts:    r.planMispredicts.snapshot(),
		RadixSkew:          r.radixSkew.Snapshot(),
	}
}

// String renders the snapshot as an aligned human-readable block — the
// shell's \stats output.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries           %d (scanned=%d returned=%d, mean latency %s)\n",
		s.Queries, s.RowsScanned, s.RowsReturned, s.QueryLatency.Mean())
	for _, k := range sortedKeys(s.QueriesByPlan) {
		fmt.Fprintf(&b, "  plan %-24s %d\n", k, s.QueriesByPlan[k])
	}
	for _, k := range sortedKeys(s.IndexProbes) {
		fmt.Fprintf(&b, "  probes %-22s %d\n", k, s.IndexProbes[k])
	}
	for _, k := range sortedKeys(s.PlanMispredicts) {
		fmt.Fprintf(&b, "  mispredict %-18s %d\n", k, s.PlanMispredicts[k])
	}
	if s.RadixSkew.Count > 0 {
		fmt.Fprintf(&b, "radix skew        n=%d mean=%.2f max=%.2f\n",
			s.RadixSkew.Count, s.RadixSkew.Mean(), s.RadixSkew.Max)
	}
	if s.Sched != nil {
		fmt.Fprintf(&b, "scheduler         workers=%d queue=%d busy=%d steals=%d parks=%d\n",
			s.Sched.Workers, s.Sched.QueueDepth, s.Sched.Busy, s.Sched.Steals, s.Sched.Parks)
	}
	if s.Mem != nil {
		fmt.Fprintf(&b, "memory budget     total=%d granted=%d waiting=%d forced=%d reversals=%d repartitions=%d\n",
			s.Mem.Total, s.Mem.Granted, s.Mem.Waiting, s.Mem.Forced, s.Mem.Reversals, s.Mem.Repartitions)
	}
	fmt.Fprintf(&b, "transactions      begin=%d commit=%d abort=%d\n", s.TxnBegins, s.TxnCommits, s.TxnAborts)
	fmt.Fprintf(&b, "locks             waits=%d wait time=%s deadlocks=%d\n", s.LockWaits, s.LockWaitTime, s.Deadlocks)
	fmt.Fprintf(&b, "snapshots         refreshes=%d refresh time=%s tuples recloned=%d\n", s.SnapRefreshes, s.SnapRefreshTime, s.SnapTuplesRecloned)
	fmt.Fprintf(&b, "log               appends=%d words=%d flushes=%d\n", s.LogAppends, s.LogWords, s.LogFlushes)
	fmt.Fprintf(&b, "ops (§3.1)        %s", s.Ops.String())
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "\ntable %-11s rows=%d bytes=%d (%.0f B/row)", t.Name, t.Rows, t.Bytes, t.BytesPerRow())
	}
	return b.String()
}

// Sub returns the element-wise difference s - prev (histograms excluded;
// the latency snapshot is carried from s). Useful for per-interval or
// per-experiment deltas. The scheduler's and memory manager's gauges are
// carried from s, in copies that do not alias it.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := s
	d.Queries -= prev.Queries
	d.RowsScanned -= prev.RowsScanned
	d.RowsReturned -= prev.RowsReturned
	d.LockWaits -= prev.LockWaits
	d.LockWaitTime -= prev.LockWaitTime
	d.Deadlocks -= prev.Deadlocks
	d.SnapRefreshes -= prev.SnapRefreshes
	d.SnapRefreshTime -= prev.SnapRefreshTime
	d.SnapTuplesRecloned -= prev.SnapTuplesRecloned
	d.TxnBegins -= prev.TxnBegins
	d.TxnCommits -= prev.TxnCommits
	d.TxnAborts -= prev.TxnAborts
	d.LogAppends -= prev.LogAppends
	d.LogWords -= prev.LogWords
	d.LogFlushes -= prev.LogFlushes
	for i := range meter.NumFields {
		p, _ := d.Ops.At(i)
		q, _ := prev.Ops.At(i)
		*p -= *q
	}
	if s.Sched != nil {
		sc, p := *s.Sched, cmp.Or(prev.Sched, &SchedStats{})
		sc.Steals, sc.Parks = sc.Steals-p.Steals, sc.Parks-p.Parks
		d.Sched = &sc
	}
	if s.Mem != nil {
		m, p := *s.Mem, cmp.Or(prev.Mem, &MemStats{})
		m.Forced, m.Reversals, m.Repartitions = m.Forced-p.Forced, m.Reversals-p.Reversals, m.Repartitions-p.Repartitions
		d.Mem = &m
	}
	d.QueriesByPlan = subMap(s.QueriesByPlan, prev.QueriesByPlan)
	d.IndexProbes = subMap(s.IndexProbes, prev.IndexProbes)
	d.PlanMispredicts = subMap(s.PlanMispredicts, prev.PlanMispredicts)
	return d
}

func subMap(cur, prev map[string]int64) map[string]int64 {
	if len(cur) == 0 {
		return nil
	}
	out := make(map[string]int64, len(cur))
	for k, v := range cur {
		if n := v - prev[k]; n != 0 {
			out[k] = n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// WritePrometheus writes the registry's state in the Prometheus text
// exposition format (metric names under the mmdb_ prefix). Safe on a nil
// receiver (writes nothing but a comment).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "# mmdb metrics disabled")
		return
	}
	s := r.Snapshot()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("mmdb_queries_total", "Queries executed.", s.Queries)
	counter("mmdb_rows_scanned_total", "Base-relation tuples fetched by queries.", s.RowsScanned)
	counter("mmdb_rows_returned_total", "Result rows returned by queries.", s.RowsReturned)
	labeled := func(name, help, label string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, m[k])
		}
	}
	labeled("mmdb_queries_by_plan_total", "Queries by plan shape.", "plan", s.QueriesByPlan)
	labeled("mmdb_index_probes_total", "Index probes by structure kind.", "kind", s.IndexProbes)
	labeled("mmdb_plan_mispredict_total", "Cost-model decisions whose estimate error crossed the audit threshold.", "decision", s.PlanMispredicts)
	counter("mmdb_lock_waits_total", "Lock requests that had to queue.", s.LockWaits)
	counter("mmdb_lock_wait_nanoseconds_total", "Total time spent waiting for locks.", int64(s.LockWaitTime))
	counter("mmdb_deadlocks_total", "Deadlock-victim aborts.", s.Deadlocks)
	counter("mmdb_snapshot_refreshes_total", "Snapshot scans that found the published snapshot stale and republished it.", s.SnapRefreshes)
	counter("mmdb_snapshot_refresh_nanoseconds_total", "Total time snapshot readers spent refreshing (lock wait plus build).", int64(s.SnapRefreshTime))
	counter("mmdb_snapshot_tuples_recloned_total", "Clone headers built by snapshot refreshes.", s.SnapTuplesRecloned)
	counter("mmdb_txn_begins_total", "Transactions begun.", s.TxnBegins)
	counter("mmdb_txn_commits_total", "Transactions committed.", s.TxnCommits)
	counter("mmdb_txn_aborts_total", "Transactions aborted.", s.TxnAborts)
	counter("mmdb_log_appends_total", "Records appended to the stable log buffer.", s.LogAppends)
	counter("mmdb_log_words_total", "4-byte words written to the stable log buffer.", s.LogWords)
	counter("mmdb_log_flushes_total", "Commit releases to the active log device.", s.LogFlushes)
	for i := range meter.NumFields {
		v, f := s.Ops.At(i)
		counter(f.Prom, f.Help, *v)
	}

	// Morsel-scheduler saturation, present only when the database runs on
	// a work-stealing pool.
	if s.Sched != nil {
		gauge("mmdb_sched_workers", "Morsel-scheduler worker goroutines.", int64(s.Sched.Workers))
		gauge("mmdb_sched_queue_depth", "Morsels accepted but not yet started.", s.Sched.QueueDepth)
		gauge("mmdb_sched_busy_workers", "Workers executing a morsel right now.", s.Sched.Busy)
		counter("mmdb_sched_steals_total", "Morsels executed by a worker other than the enqueuer.", s.Sched.Steals)
		counter("mmdb_sched_park_total", "Times a scheduler worker went idle.", s.Sched.Parks)
	}

	// Memory grant manager, present only when a budget is configured.
	if s.Mem != nil {
		gauge("mmdb_mem_budget_bytes", "Configured engine memory budget.", s.Mem.Total)
		gauge("mmdb_mem_granted", "Bytes currently granted across all reservations.", s.Mem.Granted)
		gauge("mmdb_mem_waiting", "Reservations blocked waiting for a grant.", s.Mem.Waiting)
		counter("mmdb_mem_forced_total", "Grants that overcommitted past the budget.", s.Mem.Forced)
		counter("mmdb_mem_reversals_total", "Radix join build/probe role reversals.", s.Mem.Reversals)
		counter("mmdb_mem_repartitions_total", "Fat-partition recursive re-splits.", s.Mem.Repartitions)
	}

	// Storage cost per relation (the paper's third axis, §3.2.2), as of the
	// relation's last statistics refresh.
	if len(s.Tables) > 0 {
		fmt.Fprintf(w, "# HELP mmdb_table_bytes Estimated bytes a table's rows occupy (headers, fields, slots, strings, snapshot clones; indices excluded).\n# TYPE mmdb_table_bytes gauge\n")
		for _, t := range s.Tables {
			fmt.Fprintf(w, "mmdb_table_bytes{table=%q} %d\n", t.Name, t.Bytes)
		}
		fmt.Fprintf(w, "# HELP mmdb_table_bytes_per_row mmdb_table_bytes over the table's row count.\n# TYPE mmdb_table_bytes_per_row gauge\n")
		for _, t := range s.Tables {
			fmt.Fprintf(w, "mmdb_table_bytes_per_row{table=%q} %g\n", t.Name, t.BytesPerRow())
		}
	}

	// Histogram in cumulative Prometheus form.
	h := s.QueryLatency
	fmt.Fprintf(w, "# HELP mmdb_query_seconds Query wall time.\n# TYPE mmdb_query_seconds histogram\n")
	cum := int64(0)
	for _, b := range h.Buckets {
		cum += b.N
		le := "+Inf"
		if b.Le != 0 {
			le = fmt.Sprintf("%g", b.Le.Seconds())
		}
		fmt.Fprintf(w, "mmdb_query_seconds_bucket{le=%q} %d\n", le, cum)
	}
	if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].Le != 0 {
		fmt.Fprintf(w, "mmdb_query_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	}
	fmt.Fprintf(w, "mmdb_query_seconds_sum %g\n", h.Sum.Seconds())
	fmt.Fprintf(w, "mmdb_query_seconds_count %d\n", h.Count)

	// Radix partition skew: histogram plus a max gauge, so the worst
	// partitioning since start is alertable without quantile math.
	sk := s.RadixSkew
	fmt.Fprintf(w, "# HELP mmdb_radix_skew Radix partition skew (max partition over mean; 1 = balanced).\n# TYPE mmdb_radix_skew histogram\n")
	cum = 0
	for _, b := range sk.Buckets {
		cum += b.N
		le := "+Inf"
		if b.Le != 0 {
			le = fmt.Sprintf("%g", b.Le)
		}
		fmt.Fprintf(w, "mmdb_radix_skew_bucket{le=%q} %d\n", le, cum)
	}
	if len(sk.Buckets) == 0 || sk.Buckets[len(sk.Buckets)-1].Le != 0 {
		fmt.Fprintf(w, "mmdb_radix_skew_bucket{le=\"+Inf\"} %d\n", cum)
	}
	fmt.Fprintf(w, "mmdb_radix_skew_sum %g\n", sk.Sum)
	fmt.Fprintf(w, "mmdb_radix_skew_count %d\n", sk.Count)
	fmt.Fprintf(w, "# HELP mmdb_radix_skew_max Largest radix partition skew observed.\n# TYPE mmdb_radix_skew_max gauge\nmmdb_radix_skew_max %g\n", sk.Max)
}

// Handler returns an HTTP handler exposing the registry: Prometheus text
// format by default, the JSON snapshot (expvar-style) with ?format=json.
// Safe on a nil receiver.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(w)
	})
}
