// Package obs is the engine's observability layer: a thread-safe metrics
// registry and a per-query execution trace.
//
// Lehman & Carey validated every algorithm by "recording and examining the
// number of comparisons, the amount of data movement, the number of hash
// function calls, and other miscellaneous operations" (§3.1). The meter
// package carries that discipline inside operators; obs makes it visible
// outside unit tests: the Registry sums each finished query's
// meter.Counters into an engine-wide total and adds the operational
// signals a serving system needs — queries by plan shape, rows scanned
// and returned, index probes per structure, lock waits, transaction
// outcomes, and log traffic — while QueryTrace records, per operator,
// the access path the planner chose, rows in/out, wall time, and the
// §3.1 counter deltas.
//
// Cost model: every Registry method is safe on a nil receiver and returns
// immediately, so a database opened with metrics disabled pays one
// predictable branch per event and allocates nothing (verified by
// BenchmarkObsOverhead / TestDisabledRegistryAllocs). With the registry
// enabled the hot path is a handful of uncontended atomic adds plus two
// short locks: an RWMutex read inside labeled counters, and the mutex
// under which a query's §3.1 counters are added to the engine total.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meter"
)

// Registry is the engine-wide metrics accumulator. One Registry serves one
// Database; all methods are safe for concurrent use and safe on a nil
// receiver (the disabled state).
type Registry struct {
	// Query layer.
	queries      atomic.Int64
	rowsScanned  atomic.Int64
	rowsReturned atomic.Int64
	queryLatency Histogram
	planShapes   LabeledCounter
	indexProbes  LabeledCounter

	// Plan-vs-actual decision audit: mispredictions by decision name,
	// and the radix partition-skew distribution (max partition over mean;
	// 1.0 = perfectly balanced).
	planMispredicts LabeledCounter
	radixSkew       FloatHistogram

	// Concurrency control (internal/lock).
	lockWaits     atomic.Int64
	lockWaitNanos atomic.Int64
	deadlocks     atomic.Int64

	// Snapshot refreshes paid by readers (query layer).
	snapRefreshes      atomic.Int64
	snapRefreshNanos   atomic.Int64
	snapTuplesRecloned atomic.Int64

	// Transactions (internal/txn).
	txnBegins  atomic.Int64
	txnCommits atomic.Int64
	txnAborts  atomic.Int64

	// Recovery log (internal/recovery).
	logAppends atomic.Int64
	logWords   atomic.Int64
	logFlushes atomic.Int64

	// §3.1 operation counters summed over finished queries, under opsMu.
	opsMu sync.Mutex
	ops   meter.Counters

	// schedSource, when non-nil, supplies the work-stealing morsel
	// scheduler's saturation snapshot at exposition time. Wired once by
	// Database.Open before the registry serves traffic; read without
	// synchronization afterwards (the same contract as txn.Manager.Obs).
	schedSource func() SchedStats

	// memSource supplies the memory grant manager's snapshot at
	// exposition time; same wiring contract as schedSource. Nil when no
	// memory budget is configured.
	memSource func() MemStats

	// tableSource supplies the per-relation statistics (row counts, NDV,
	// bytes) at exposition time; same wiring contract as schedSource.
	tableSource func() []TableStat
}

// SchedStats mirrors the morsel scheduler's point-in-time saturation
// snapshot (internal/sched.Stats) as plain data, so obs carries no
// scheduler dependency. Workers/QueueDepth/Busy are gauges; Steals and
// Parks are monotonic counters.
type SchedStats struct {
	Workers    int   `json:"workers"`
	QueueDepth int64 `json:"queue_depth"`
	Busy       int64 `json:"busy"`
	Steals     int64 `json:"steals"`
	Parks      int64 `json:"parks"`
}

// SetSchedSource wires the scheduler-stats hook (see schedSource). Safe
// on a nil receiver.
func (r *Registry) SetSchedSource(fn func() SchedStats) {
	if r == nil {
		return
	}
	r.schedSource = fn
}

// MemStats mirrors the grant manager's point-in-time snapshot
// (internal/mem.Stats) as plain data, so obs carries no mem dependency.
// Total/Granted/Waiting are gauges; Forced, Reversals, and Repartitions
// are monotonic counters.
type MemStats struct {
	Total        int64 `json:"total"`
	Granted      int64 `json:"granted"`
	Waiting      int64 `json:"waiting"`
	Forced       int64 `json:"forced"`
	Reversals    int64 `json:"reversals"`
	Repartitions int64 `json:"repartitions"`
}

// SetMemSource wires the grant-manager-stats hook (see memSource). Safe
// on a nil receiver.
func (r *Registry) SetMemSource(fn func() MemStats) {
	if r == nil {
		return
	}
	r.memSource = fn
}

// SetTableSource wires the per-relation statistics hook (see
// tableSource). Safe on a nil receiver.
func (r *Registry) SetTableSource(fn func() []TableStat) {
	if r == nil {
		return
	}
	r.tableSource = fn
}

// NewRegistry creates an enabled registry with the default query-latency
// bucket layout (1µs … ~8s, doubling).
func NewRegistry() *Registry {
	r := &Registry{}
	r.queryLatency.init(DefaultLatencyBounds())
	r.radixSkew.init(DefaultSkewBounds())
	return r
}

// RecordQuery accumulates one executed query: its plan shape (a compact
// label like "hash lookup→Hash Join"), base-relation tuples fetched, rows
// returned, total wall time, and the §3.1 operation counters its operators
// accumulated. Safe on a nil receiver.
func (r *Registry) RecordQuery(shape string, scanned, returned int64, wall time.Duration, ops meter.Counters) {
	if r == nil {
		return
	}
	r.queries.Add(1)
	r.rowsScanned.Add(scanned)
	r.rowsReturned.Add(returned)
	r.queryLatency.Observe(wall)
	r.planShapes.Add(shape, 1)
	r.opsMu.Lock()
	r.ops.Add(ops)
	r.opsMu.Unlock()
}

// RecordDecision folds one plan-vs-actual audit record into the
// registry: a decision whose observed error crossed its threshold bumps
// mmdb_plan_mispredict_total{decision=...}. Safe on a nil receiver.
func (r *Registry) RecordDecision(d Decision) {
	if r == nil {
		return
	}
	if d.Mispredicted() {
		r.planMispredicts.Add(d.Name, 1)
	}
}

// MispredictCount returns the misprediction count for one decision name.
// Safe on a nil receiver.
func (r *Registry) MispredictCount(decision string) int64 {
	if r == nil {
		return 0
	}
	return r.planMispredicts.Get(decision)
}

// ObserveRadixSkew records one radix partitioning's skew (max partition
// size over mean). Safe on a nil receiver.
func (r *Registry) ObserveRadixSkew(skew float64) {
	if r == nil || skew <= 0 {
		return
	}
	r.radixSkew.Observe(skew)
}

// IndexProbe records n probes of a persistent index structure of the given
// kind (e.g. "TTree", "ModLinearHash"). Safe on a nil receiver.
func (r *Registry) IndexProbe(kind string, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.indexProbes.Add(kind, n)
}

// LockWait records one lock wait of duration d — the lock manager calls
// this whenever a request had to queue. Safe on a nil receiver.
func (r *Registry) LockWait(d time.Duration) {
	if r == nil {
		return
	}
	r.lockWaits.Add(1)
	r.lockWaitNanos.Add(int64(d))
}

// SnapshotRefresh records one snapshot refresh a reader paid for: the time
// it spent (lock wait and build) and the clone headers it built. Safe on a
// nil receiver.
func (r *Registry) SnapshotRefresh(s SnapRefresh) {
	if r == nil {
		return
	}
	r.snapRefreshes.Add(1)
	r.snapRefreshNanos.Add(int64(s.LockWait + s.Build))
	r.snapTuplesRecloned.Add(int64(s.Tuples))
}

// Deadlock records one deadlock-victim abort. Safe on a nil receiver.
func (r *Registry) Deadlock() {
	if r == nil {
		return
	}
	r.deadlocks.Add(1)
}

// TxnBegin records a transaction start. Safe on a nil receiver.
func (r *Registry) TxnBegin() {
	if r == nil {
		return
	}
	r.txnBegins.Add(1)
}

// TxnCommit records a transaction commit. Safe on a nil receiver.
func (r *Registry) TxnCommit() {
	if r == nil {
		return
	}
	r.txnCommits.Add(1)
}

// TxnAbort records a transaction abort. Safe on a nil receiver.
func (r *Registry) TxnAbort() {
	if r == nil {
		return
	}
	r.txnAborts.Add(1)
}

// LogAppend records records written into the stable log buffer and their
// size in 4-byte words. Safe on a nil receiver.
func (r *Registry) LogAppend(records, words int) {
	if r == nil {
		return
	}
	r.logAppends.Add(int64(records))
	r.logWords.Add(int64(words))
}

// LogFlush records the release of n committed records to the log device.
// Safe on a nil receiver.
func (r *Registry) LogFlush(records int) {
	if r == nil {
		return
	}
	r.logFlushes.Add(1)
	_ = records
}

// LabeledCounter is a set of atomic counters keyed by a small, low-
// cardinality label (plan shapes, index kinds). The common path — label
// already registered — takes one RWMutex read lock and one atomic add,
// with no allocation.
type LabeledCounter struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64
}

// Add increments the labelled counter by n.
func (c *LabeledCounter) Add(label string, n int64) {
	c.mu.RLock()
	ctr := c.m[label]
	c.mu.RUnlock()
	if ctr == nil {
		c.mu.Lock()
		if c.m == nil {
			c.m = make(map[string]*atomic.Int64)
		}
		if ctr = c.m[label]; ctr == nil {
			ctr = new(atomic.Int64)
			c.m[label] = ctr
		}
		c.mu.Unlock()
	}
	ctr.Add(n)
}

// Get returns the labelled counter's current value.
func (c *LabeledCounter) Get(label string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ctr := c.m[label]; ctr != nil {
		return ctr.Load()
	}
	return 0
}

// snapshot copies every label's value.
func (c *LabeledCounter) snapshot() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load()
	}
	return out
}

// sortedKeys returns map keys in deterministic order for exposition.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
