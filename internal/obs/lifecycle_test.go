package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDecisionErrRatio(t *testing.T) {
	cases := []struct {
		est, act, threshold float64
		ratio               float64
		mispredict          bool
	}{
		{1000, 1000, 2, 1, false}, // exact estimate
		{1000, 4000, 2, 4, true},  // 4x under-estimate
		{4000, 1000, 2, 4, true},  // symmetric: 4x over-estimate
		{1000, 1999, 2, 1.999, false},
		{1000, 0, 2, 0, false},    // never observed → informational
		{0, 50, 2, 50, true},      // estimate floored at 1 row
		{1000, 4000, 0, 4, false}, // zero threshold never mispredicts
	}
	for i, c := range cases {
		d := Decision{Estimate: c.est, Actual: c.act, Threshold: c.threshold}
		if got := d.ErrRatio(); got != c.ratio {
			t.Errorf("case %d: ErrRatio() = %g, want %g", i, got, c.ratio)
		}
		if got := d.Mispredicted(); got != c.mispredict {
			t.Errorf("case %d: Mispredicted() = %v, want %v", i, got, c.mispredict)
		}
	}
}

func TestDecisionLine(t *testing.T) {
	d := Decision{
		Name: "radix bits", Chosen: "fanout=256 passes=2",
		Inputs:   "build card=1.9Mi",
		Estimate: 128 << 10, Actual: 1.9 * (1 << 20),
		Unit: "build rows", Threshold: 2,
	}
	line := d.Line()
	for _, want := range []string{"radix bits:", "fanout=256", "estimate=128Ki", "actual=1.9Mi", "err=15.2x", "MISPREDICT"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line() = %q, missing %q", line, want)
		}
	}
	// Informational decision: no actual, no err, no MISPREDICT.
	info := Decision{Name: "sort method", Chosen: "quicksort", Estimate: 5000, Unit: "rows"}
	line = info.Line()
	if strings.Contains(line, "actual") || strings.Contains(line, "MISPREDICT") {
		t.Errorf("informational Line() = %q, should have no actual/MISPREDICT", line)
	}
}

func TestFmtCount(t *testing.T) {
	cases := map[float64]string{
		0:         "0",
		42:        "42",
		9999:      "9999",
		20.0 / 3:  "6.7",
		7.02:      "7",
		128 << 10: "128Ki",
		1 << 20:   "1Mi",
		3 << 30:   "3Gi",
	}
	for v, want := range cases {
		if got := FmtCount(v); got != want {
			t.Errorf("FmtCount(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestProgressGauges(t *testing.T) {
	var p Progress
	p.AddRows(100)
	p.AddRows(28)
	if p.Rows() != 128 {
		t.Fatalf("Rows() = %d, want 128", p.Rows())
	}
	p.WorkerStart()
	p.WorkerStart()
	if p.BusyWorkers() != 2 || p.PeakWorkers() != 2 {
		t.Fatalf("busy/peak = %d/%d, want 2/2", p.BusyWorkers(), p.PeakWorkers())
	}
	p.WorkerDone(90)
	p.WorkerDone(38)
	if p.BusyWorkers() != 0 || p.PeakWorkers() != 2 {
		t.Fatalf("after done: busy/peak = %d/%d, want 0/2", p.BusyWorkers(), p.PeakWorkers())
	}
	if p.MaxWorkerRows() != 90 {
		t.Fatalf("MaxWorkerRows() = %d, want 90", p.MaxWorkerRows())
	}
}

// sqlText is a query the registry renders by calling String.
type sqlText string

func (s sqlText) String() string { return string(s) }

func TestActiveSetRegisterSnapshot(t *testing.T) {
	s := NewActiveSet()
	q1 := s.Register(sqlText("SELECT * FROM emp"))
	q2 := s.Register(sqlText("SELECT * FROM dept"))
	q2.SetPhase(PhaseJoin)
	q2.Progress().AddRows(42)

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot() has %d entries, want 2", len(snap))
	}
	if snap[0].ID != q1.ID() || snap[1].ID != q2.ID() {
		t.Fatalf("snapshot order = %d,%d — want oldest first", snap[0].ID, snap[1].ID)
	}
	if snap[0].Text != "SELECT * FROM emp" || snap[1].Text != "SELECT * FROM dept" {
		t.Fatalf("texts = %q,%q", snap[0].Text, snap[1].Text)
	}
	if snap[0].Phase != "plan" || snap[1].Phase != "join" {
		t.Fatalf("phases = %q,%q", snap[0].Phase, snap[1].Phase)
	}
	if snap[1].Rows != 42 {
		t.Fatalf("rows = %d, want 42", snap[1].Rows)
	}
	if q1.Progress().Label() != fmt.Sprintf("q%d", q1.ID()) {
		t.Fatalf("label = %q", q1.Progress().Label())
	}

	id2 := q2.ID() // capture before deregister: the record is recycled
	s.Deregister(q1)
	s.Deregister(q2)
	if got := s.Snapshot(); len(got) != 0 {
		t.Fatalf("after deregister: %d entries", len(got))
	}
	// Pooled record reuse must fully reset the gauges.
	q3 := s.Register(sqlText("SELECT 1"))
	if q3.Progress().Rows() != 0 || q3.Progress().PeakWorkers() != 0 || q3.Progress().MaxWorkerRows() != 0 {
		t.Fatalf("recycled record not reset: rows=%d peak=%d max=%d",
			q3.Progress().Rows(), q3.Progress().PeakWorkers(), q3.Progress().MaxWorkerRows())
	}
	if q3.ID() <= id2 {
		t.Fatalf("ids must keep increasing: %d after %d", q3.ID(), id2)
	}
	if want := fmt.Sprintf("q%d", q3.ID()); q3.Progress().Label() != want {
		t.Fatalf("recycled record's label = %q, want %q", q3.Progress().Label(), want)
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(time.Millisecond, 3)
	if l.Threshold() != time.Millisecond {
		t.Fatalf("Threshold() = %s", l.Threshold())
	}
	for i := 1; i <= 5; i++ {
		l.Record(SlowQuery{ID: uint64(i), Wall: time.Duration(i) * time.Millisecond})
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot() has %d entries, want 3 (ring capacity)", len(snap))
	}
	// Newest first; the two oldest were evicted.
	for i, want := range []uint64{5, 4, 3} {
		if snap[i].ID != want {
			t.Fatalf("snap[%d].ID = %d, want %d", i, snap[i].ID, want)
		}
	}
}

func TestFloatHistogram(t *testing.T) {
	var h FloatHistogram
	h.init(DefaultSkewBounds())
	h.Observe(1.0) // le=1.1
	h.Observe(1.3) // le=1.5
	h.Observe(2.0) // le=2 (inclusive)
	h.Observe(100) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Max != 100 {
		t.Fatalf("max = %g, want 100", s.Max)
	}
	if want := (1.0 + 1.3 + 2.0 + 100) / 4; s.Mean() < want-0.001 || s.Mean() > want+0.001 {
		t.Fatalf("mean = %g, want ≈%g", s.Mean(), want)
	}
	want := []FloatBucket{{Le: 1.1, N: 1}, {Le: 1.5, N: 1}, {Le: 2, N: 1}, {Le: 0, N: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestRegistryDecisionsAndSkew(t *testing.T) {
	r := NewRegistry()
	r.RecordDecision(Decision{Name: "batch", Estimate: 1000, Actual: 10, Threshold: 2})  // 100x → mispredict
	r.RecordDecision(Decision{Name: "batch", Estimate: 1000, Actual: 900, Threshold: 2}) // fine
	r.RecordDecision(Decision{Name: "radix bits", Estimate: 10, Actual: 100, Threshold: 2})
	r.ObserveRadixSkew(1.5)
	r.ObserveRadixSkew(8)
	r.ObserveRadixSkew(0) // ignored: no partitions

	if got := r.MispredictCount("batch"); got != 1 {
		t.Fatalf("MispredictCount(batch) = %d, want 1", got)
	}
	if got := r.MispredictCount("radix bits"); got != 1 {
		t.Fatalf("MispredictCount(radix bits) = %d, want 1", got)
	}
	s := r.Snapshot()
	if s.PlanMispredicts["batch"] != 1 {
		t.Fatalf("snapshot mispredicts = %+v", s.PlanMispredicts)
	}
	if s.RadixSkew.Count != 2 || s.RadixSkew.Max != 8 {
		t.Fatalf("skew = %+v", s.RadixSkew)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`mmdb_plan_mispredict_total{decision="batch"} 1`,
		`mmdb_radix_skew_bucket{le="1.5"} 1`,
		`mmdb_radix_skew_bucket{le="+Inf"} 2`,
		"mmdb_radix_skew_count 2",
		"mmdb_radix_skew_max 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

func TestTraceFormatDecisions(t *testing.T) {
	tr := &QueryTrace{
		Root: &TraceNode{Op: "query", Detail: "emp"},
		Decisions: []Decision{
			{Name: "batch", Chosen: "256-tuple blocks", Estimate: 5000, Actual: 49, Unit: "rows", Threshold: 2},
		},
	}
	out := tr.Format()
	if !strings.Contains(out, "decision batch:") || !strings.Contains(out, "MISPREDICT") {
		t.Fatalf("Format() = %q, missing decision line", out)
	}
}

func TestDebugHandler(t *testing.T) {
	active := NewActiveSet()
	slow := NewSlowLog(time.Millisecond, 4)
	q := active.Register(sqlText("SELECT * FROM emp WHERE salary > 100"))
	q.SetPhase(PhaseSelect)
	slow.Record(SlowQuery{ID: 7, Text: "SELECT DISTINCT dept FROM emp", Wall: 5 * time.Millisecond, Rows: 12,
		Trace: &QueryTrace{Root: &TraceNode{Op: "query", Detail: "emp"}}})
	h := DebugHandler(active, slow)

	get := func(url string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Body.String()
	}
	if body := get("/debug/queries"); !strings.Contains(body, "SELECT * FROM emp") || !strings.Contains(body, "select") {
		t.Fatalf("/debug/queries = %q", body)
	}
	if body := get("/debug/slow"); !strings.Contains(body, "SELECT DISTINCT dept") || !strings.Contains(body, "executed:") {
		t.Fatalf("/debug/slow = %q", body)
	}
	var infos []ActiveQueryInfo
	if err := json.Unmarshal([]byte(get("/debug/queries?format=json")), &infos); err != nil || len(infos) != 1 {
		t.Fatalf("json queries: err=%v n=%d", err, len(infos))
	}
	var slows []SlowQuery
	if err := json.Unmarshal([]byte(get("/debug/slow?format=json")), &slows); err != nil || len(slows) != 1 || slows[0].ID != 7 {
		t.Fatalf("json slow: err=%v %+v", err, slows)
	}

	// Disabled surfaces degrade to the "no ..." placeholders.
	h = DebugHandler(nil, nil)
	if body := get("/debug/queries"); !strings.Contains(body, "no active queries") {
		t.Fatalf("disabled /debug/queries = %q", body)
	}
	if body := get("/debug/slow"); !strings.Contains(body, "no slow queries") {
		t.Fatalf("disabled /debug/slow = %q", body)
	}
}

// TestDisabledLifecycleAllocs pins the PR 1 contract for the new
// surfaces: with telemetry off (nil receivers everywhere), registering,
// progress updates, decision recording, skew observation, and slow-log
// writes must all be free.
func TestDisabledLifecycleAllocs(t *testing.T) {
	var (
		reg    *Registry
		active *ActiveSet
		slow   *SlowLog
		pg     *Progress
	)
	d := Decision{Name: "batch", Estimate: 100, Actual: 10, Threshold: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		aq := active.Register(sqlText("q"))
		pg2 := aq.Progress()
		aq.SetPhase(PhaseJoin)
		pg2.AddRows(128)
		pg2.WorkerStart()
		pg2.WorkerDone(128)
		_ = pg2.MaxWorkerRows()
		_ = pg.Rows()
		reg.RecordDecision(d)
		reg.ObserveRadixSkew(1.5)
		_ = slow.Threshold()
		slow.Record(SlowQuery{})
		active.Deregister(aq)
	})
	if allocs != 0 {
		t.Fatalf("disabled lifecycle allocates %.1f objects per query, want 0", allocs)
	}
}

// TestLifecycleConcurrent hammers the live registry and slow log from
// many goroutines while snapshotting; run with -race.
func TestLifecycleConcurrent(t *testing.T) {
	active := NewActiveSet()
	slow := NewSlowLog(time.Microsecond, 8)
	const goroutines, iters = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := active.Register(sqlText("SELECT 1"))
				pg := q.Progress()
				pg.WorkerStart()
				pg.AddRows(10)
				pg.WorkerDone(10)
				q.SetPhase(PhaseDistinct)
				slow.Record(SlowQuery{ID: q.ID(), Wall: time.Millisecond})
				if i%50 == 0 {
					_ = active.Snapshot()
					_ = slow.Snapshot()
				}
				active.Deregister(q)
			}
		}()
	}
	wg.Wait()
	if got := active.Snapshot(); len(got) != 0 {
		t.Fatalf("%d queries left registered", len(got))
	}
	if got := slow.Snapshot(); len(got) != 8 {
		t.Fatalf("slow ring has %d entries, want 8", len(got))
	}
}
