package mmdb

import (
	"net/http"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of the engine metrics registry:
// queries by plan shape, rows scanned/returned, index probes per
// structure, lock waits, transaction outcomes, log traffic, the query
// latency histogram, and the paper's §3.1 operation counters rolled up
// from internal/meter.
type Stats = obs.Snapshot

// QueryTrace is the per-query execution trace produced by Query.Analyze
// and EXPLAIN ANALYZE: an operator tree where each node records the
// access path the planner chose, rows in/out, wall time, and the §3.1
// operation counters that operator accumulated.
type QueryTrace = obs.QueryTrace

// TraceNode is one operator of a QueryTrace.
type TraceNode = obs.TraceNode

// Decision is one plan-vs-actual audit record from QueryTrace.Decisions:
// what the chooser picked, the estimate it picked on, and the actual the
// execution observed.
type Decision = obs.Decision

// TableStat is one relation's sampled statistics from Stats().Tables:
// exact row count plus per-column distinct-value estimates, refreshed
// lazily as DML accumulates. The join-order planner costs n-way joins
// from these numbers. Bytes estimates the memory the rows occupied at the
// same refresh (indices excluded) and BytesPerRow the paper's storage cost
// per row; the metrics endpoint exports them as mmdb_table_bytes{table}
// and mmdb_table_bytes_per_row{table}.
type TableStat = obs.TableStat

// Stats snapshots the engine metrics plus per-relation statistics. With
// metrics disabled (Options.DisableMetrics) the registry portion is the
// zero Stats, but Tables is still populated — the planner's statistics
// live in storage, not in the metrics registry. The counters are read
// without a lock, and so is a table's statistics snapshot while it is
// fresh; only a missing or stale one is refreshed, under the shared lock
// Table.Stats tries for.
func (db *Database) Stats() Stats {
	s := db.obs.Snapshot() // Tables included: Open wired tableStats as the registry's source
	if db.obs == nil {
		s.Tables = db.tableStats()
	}
	return s
}

// tableStats snapshots every relation's statistics (Table.Stats).
func (db *Database) tableStats() []obs.TableStat {
	var stats []obs.TableStat
	for _, name := range db.Tables() {
		t, ok := db.Table(name)
		if !ok {
			continue
		}
		ts, err := t.Stats()
		if err != nil {
			continue
		}
		stats = append(stats, obs.TableStat(ts))
	}
	return stats
}

// Metrics returns the engine metrics registry, or nil when metrics are
// disabled. All registry methods are safe on a nil receiver, so callers
// may use the result unconditionally.
func (db *Database) Metrics() *obs.Registry { return db.obs }

// MetricsHandler returns an HTTP handler exposing the engine metrics:
// Prometheus text format by default, a JSON snapshot with ?format=json.
//
//	mux.Handle("/metrics", db.MetricsHandler())
//	// curl localhost:8080/metrics | grep mmdb_queries_total
//
// With metrics disabled the handler serves a single comment line.
func (db *Database) MetricsHandler() http.Handler { return db.obs.Handler() }

// ActiveQueryInfo is one in-flight query as reported by ActiveQueries:
// its text, phase, start time, and live progress gauges (rows processed,
// busy/peak workers, max rows one worker absorbed).
type ActiveQueryInfo = obs.ActiveQueryInfo

// SlowQuery is one slow-query log entry: the query text, wall time, row
// count, and the full execution trace with the plan-vs-actual decision
// audit.
type SlowQuery = obs.SlowQuery

// ActiveQueries snapshots the queries executing right now, oldest first.
// Live introspection is on whenever metrics are (Options.DisableMetrics
// turns both off); disabled it returns nil.
func (db *Database) ActiveQueries() []ActiveQueryInfo { return db.active.Snapshot() }

// SlowQueries returns the slow-query log, newest first. The log is on
// when Options.SlowQueryThreshold is set; off, this returns nil.
func (db *Database) SlowQueries() []SlowQuery { return db.slow.Snapshot() }

// DebugHandler returns an HTTP handler serving live-query introspection:
// /debug/queries lists in-flight queries, /debug/slow dumps the
// slow-query log (text by default, ?format=json for machines).
//
//	mux.Handle("/debug/", db.DebugHandler())
func (db *Database) DebugHandler() http.Handler { return obs.DebugHandler(db.active, db.slow) }
