package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
)

func TestRegistryRecordsQueries(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery("hash lookup", 100, 10, 5*time.Microsecond,
		meter.Counters{Comparisons: 7, HashCalls: 1})
	r.RecordQuery("hash lookup", 50, 5, 3*time.Microsecond,
		meter.Counters{Comparisons: 3})
	r.RecordQuery("full scan", 1000, 1000, 90*time.Microsecond, meter.Counters{})
	r.IndexProbe("T Tree", 2)
	r.IndexProbe("Mod Linear Hash", 1)
	r.IndexProbe("Array", 0) // no-op

	s := r.Snapshot()
	if s.Queries != 3 {
		t.Fatalf("Queries = %d, want 3", s.Queries)
	}
	if s.RowsScanned != 1150 || s.RowsReturned != 1015 {
		t.Fatalf("rows scanned/returned = %d/%d, want 1150/1015", s.RowsScanned, s.RowsReturned)
	}
	if got := s.QueriesByPlan["hash lookup"]; got != 2 {
		t.Fatalf("plan[hash lookup] = %d, want 2", got)
	}
	if got := s.QueriesByPlan["full scan"]; got != 1 {
		t.Fatalf("plan[full scan] = %d, want 1", got)
	}
	if got := s.IndexProbes["T Tree"]; got != 2 {
		t.Fatalf("probes[T Tree] = %d, want 2", got)
	}
	if _, ok := s.IndexProbes["Array"]; ok {
		t.Fatal("zero probe count should not register a label")
	}
	if s.Ops.Comparisons != 10 || s.Ops.HashCalls != 1 {
		t.Fatalf("ops = %+v, want cmp=10 hash=1", s.Ops)
	}
	if s.QueryLatency.Count != 3 {
		t.Fatalf("latency count = %d, want 3", s.QueryLatency.Count)
	}
	if want := 98 * time.Microsecond / 3; s.QueryLatency.Mean() != want {
		t.Fatalf("latency mean = %s, want %s", s.QueryLatency.Mean(), want)
	}
}

func TestRegistryEngineEvents(t *testing.T) {
	r := NewRegistry()
	r.TxnBegin()
	r.TxnBegin()
	r.TxnCommit()
	r.TxnAbort()
	r.LockWait(2 * time.Millisecond)
	r.LockWait(3 * time.Millisecond)
	r.Deadlock()
	r.LogAppend(1, 9)
	r.LogAppend(1, 11)
	r.LogFlush(2)
	r.SnapshotRefresh(SnapRefresh{Patched: 2, Tuples: 5, LockWait: time.Millisecond, Build: 2 * time.Millisecond})
	r.SnapshotRefresh(SnapRefresh{Cloned: 1, Tuples: 256, Build: time.Millisecond})

	s := r.Snapshot()
	if s.SnapRefreshes != 2 || s.SnapRefreshTime != 4*time.Millisecond || s.SnapTuplesRecloned != 261 {
		t.Fatalf("snapshot refreshes = %d in %s, %d tuples", s.SnapRefreshes, s.SnapRefreshTime, s.SnapTuplesRecloned)
	}
	var prom strings.Builder
	r.WritePrometheus(&prom)
	for _, line := range []string{"mmdb_snapshot_refreshes_total 2", "mmdb_snapshot_refresh_nanoseconds_total 4000000", "mmdb_snapshot_tuples_recloned_total 261"} {
		if !strings.Contains(prom.String(), line) {
			t.Fatalf("exposition lacks %q", line)
		}
	}
	if s.TxnBegins != 2 || s.TxnCommits != 1 || s.TxnAborts != 1 {
		t.Fatalf("txn = %d/%d/%d, want 2/1/1", s.TxnBegins, s.TxnCommits, s.TxnAborts)
	}
	if s.LockWaits != 2 || s.LockWaitTime != 5*time.Millisecond || s.Deadlocks != 1 {
		t.Fatalf("locks = %d waits %s deadlocks=%d", s.LockWaits, s.LockWaitTime, s.Deadlocks)
	}
	if s.LogAppends != 2 || s.LogWords != 20 || s.LogFlushes != 1 {
		t.Fatalf("log = appends=%d words=%d flushes=%d", s.LogAppends, s.LogWords, s.LogFlushes)
	}
}

// TestNilRegistry exercises the disabled state: every method must be a
// no-op on a nil receiver, and a nil snapshot must be the zero value.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.RecordQuery("x", 1, 1, time.Second, meter.Counters{Comparisons: 1})
	r.IndexProbe("T Tree", 1)
	r.LockWait(time.Second)
	r.SnapshotRefresh(SnapRefresh{Patched: 1, Tuples: 1, Build: time.Second})
	r.Deadlock()
	r.TxnBegin()
	r.TxnCommit()
	r.TxnAbort()
	r.LogAppend(1, 4)
	r.LogFlush(1)
	r.SetTableSource(func() []TableStat { return []TableStat{{Name: "t"}} })
	if s := r.Snapshot(); s.Tables != nil || s.Queries != 0 || s.Ops != (meter.Counters{}) ||
		s.QueriesByPlan != nil || s.QueryLatency.Count != 0 {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "disabled") {
		t.Fatalf("nil WritePrometheus = %q", b.String())
	}
}

// TestDisabledRegistryAllocs pins the zero-cost guarantee: the disabled
// hot path allocates nothing.
func TestDisabledRegistryAllocs(t *testing.T) {
	var r *Registry
	ops := meter.Counters{Comparisons: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordQuery("shape", 10, 5, time.Microsecond, ops)
		r.IndexProbe("T Tree", 1)
		r.LockWait(time.Microsecond)
		r.SnapshotRefresh(SnapRefresh{Patched: 1, Tuples: 1, Build: time.Microsecond})
		r.TxnBegin()
		r.LogAppend(1, 8)
	})
	if allocs != 0 {
		t.Fatalf("disabled registry allocates %.1f objects per event batch, want 0", allocs)
	}
}

// TestRegistryConcurrent hammers every mutator from many goroutines; run
// with -race. Totals must come out exact — atomic counters lose nothing.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shape := [2]string{"hash lookup", "full scan"}[g%2]
			for i := 0; i < iters; i++ {
				r.RecordQuery(shape, 10, 1, time.Duration(i)*time.Microsecond,
					meter.Counters{Comparisons: 2, NodesVisited: 1})
				r.IndexProbe("T Tree", 1)
				r.TxnBegin()
				r.TxnCommit()
				r.LockWait(time.Microsecond)
				r.LogAppend(1, 4)
				if i%100 == 0 {
					_ = r.Snapshot() // readers never block writers
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(g)
	}
	wg.Wait()

	s := r.Snapshot()
	total := int64(goroutines * iters)
	if s.Queries != total {
		t.Fatalf("Queries = %d, want %d", s.Queries, total)
	}
	if got := s.QueriesByPlan["hash lookup"] + s.QueriesByPlan["full scan"]; got != total {
		t.Fatalf("plan counts sum to %d, want %d", got, total)
	}
	if s.IndexProbes["T Tree"] != total {
		t.Fatalf("probes = %d, want %d", s.IndexProbes["T Tree"], total)
	}
	if s.Ops.Comparisons != 2*total || s.Ops.NodesVisited != total {
		t.Fatalf("ops = %+v", s.Ops)
	}
	if s.TxnBegins != total || s.TxnCommits != total {
		t.Fatalf("txn = %d/%d, want %d each", s.TxnBegins, s.TxnCommits, total)
	}
	if s.QueryLatency.Count != total {
		t.Fatalf("latency count = %d, want %d", s.QueryLatency.Count, total)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.init([]time.Duration{time.Microsecond, 10 * time.Microsecond, time.Millisecond})
	h.Observe(500 * time.Nanosecond) // bucket le=1µs
	h.Observe(time.Microsecond)      // le=1µs (inclusive upper bound)
	h.Observe(2 * time.Microsecond)  // le=10µs
	h.Observe(time.Second)           // overflow

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	want := []Bucket{
		{Le: time.Microsecond, N: 2},
		{Le: 10 * time.Microsecond, N: 1},
		{Le: 0, N: 1}, // overflow
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery("full scan", 100, 100, time.Millisecond, meter.Counters{Comparisons: 5})
	before := r.Snapshot()
	r.RecordQuery("hash lookup", 10, 1, time.Microsecond, meter.Counters{Comparisons: 2, HashCalls: 1})
	r.TxnBegin()
	d := r.Snapshot().Sub(before)
	if d.Queries != 1 || d.RowsScanned != 10 || d.RowsReturned != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Ops.Comparisons != 2 || d.Ops.HashCalls != 1 {
		t.Fatalf("delta ops = %+v", d.Ops)
	}
	if d.QueriesByPlan["hash lookup"] != 1 || d.QueriesByPlan["full scan"] != 0 {
		t.Fatalf("delta plans = %+v", d.QueriesByPlan)
	}
	if d.TxnBegins != 1 {
		t.Fatalf("delta txn begins = %d", d.TxnBegins)
	}

	// The scheduler's and the memory manager's monotonic counters are
	// subtracted too; their gauges are carried from the later snapshot,
	// and the delta shares no struct with either snapshot.
	r = NewRegistry()
	sched := SchedStats{Workers: 4, QueueDepth: 3, Busy: 2, Steals: 10, Parks: 20}
	mem := MemStats{Total: 1 << 20, Granted: 4096, Waiting: 1, Forced: 5, Reversals: 6, Repartitions: 7}
	r.SetSchedSource(func() SchedStats { return sched })
	r.SetMemSource(func() MemStats { return mem })
	before = r.Snapshot()
	sched = SchedStats{Workers: 4, QueueDepth: 1, Busy: 3, Steals: 15, Parks: 22}
	mem = MemStats{Total: 1 << 20, Granted: 8192, Waiting: 0, Forced: 6, Reversals: 9, Repartitions: 7}
	s := r.Snapshot()
	d = s.Sub(before)
	if want := (SchedStats{Workers: 4, QueueDepth: 1, Busy: 3, Steals: 5, Parks: 2}); d.Sched == nil || *d.Sched != want {
		t.Fatalf("delta sched = %+v, want %+v", d.Sched, want)
	}
	if want := (MemStats{Total: 1 << 20, Granted: 8192, Waiting: 0, Forced: 1, Reversals: 3, Repartitions: 0}); d.Mem == nil || *d.Mem != want {
		t.Fatalf("delta mem = %+v, want %+v", d.Mem, want)
	}
	if d.Sched == s.Sched || d.Mem == s.Mem || s.Sched.Steals != 15 || s.Mem.Forced != 6 {
		t.Fatalf("delta aliases or changed its snapshot: sched %+v, mem %+v", s.Sched, s.Mem)
	}
	if z := s.Sub(Snapshot{}); *z.Sched != *s.Sched || *z.Mem != *s.Mem {
		t.Fatalf("delta from the zero snapshot = %+v, %+v; want %+v, %+v", z.Sched, z.Mem, s.Sched, s.Mem)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery("tree lookup→Hash Join", 100, 10, 3*time.Microsecond,
		meter.Counters{Comparisons: 12, HashCalls: 4})
	r.IndexProbe("T Tree", 1)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"mmdb_queries_total 1",
		"mmdb_rows_scanned_total 100",
		"mmdb_rows_returned_total 10",
		`mmdb_queries_by_plan_total{plan="tree lookup→Hash Join"} 1`,
		`mmdb_index_probes_total{kind="T Tree"} 1`,
		"mmdb_ops_comparisons_total 12",
		"mmdb_ops_hash_calls_total 4",
		"mmdb_query_seconds_count 1",
		`mmdb_query_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery("full scan", 5, 5, time.Microsecond, meter.Counters{})

	// Default: Prometheus text.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "mmdb_queries_total 1") {
		t.Fatalf("prometheus body = %q", rec.Body.String())
	}

	// ?format=json: the snapshot.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	if s.Queries != 1 || s.RowsScanned != 5 {
		t.Fatalf("json snapshot = %+v", s)
	}
}

// BenchmarkObsOverhead is the CI guard for the disabled-path cost: a nil
// registry — and nil lifecycle surfaces (live registry, progress, slow
// log, decision audit) — must add zero allocations per recorded event.
func BenchmarkObsOverhead(b *testing.B) {
	var (
		r      *Registry
		active *ActiveSet
		slow   *SlowLog
	)
	ops := meter.Counters{Comparisons: 3, NodesVisited: 2}
	d := Decision{Name: "batch", Estimate: 100, Actual: 10, Threshold: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordQuery("shape", 100, 10, time.Microsecond, ops)
		r.IndexProbe("T Tree", 1)
		r.TxnBegin()
		r.RecordDecision(d)
		r.ObserveRadixSkew(1.5)
		aq := active.Register(sqlText("q"))
		pg := aq.Progress()
		pg.AddRows(256)
		pg.WorkerStart()
		pg.WorkerDone(256)
		slow.Record(SlowQuery{})
		active.Deregister(aq)
	}
}

// BenchmarkObsEnabled measures the enabled hot path for comparison: a few
// atomic adds plus a read-locked map hit.
func BenchmarkObsEnabled(b *testing.B) {
	r := NewRegistry()
	ops := meter.Counters{Comparisons: 3, NodesVisited: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordQuery("shape", 100, 10, time.Microsecond, ops)
		r.IndexProbe("T Tree", 1)
		r.TxnBegin()
	}
}
