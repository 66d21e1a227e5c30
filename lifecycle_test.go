package mmdb

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
)

// findDecision returns the first audit record with the given name, or nil.
func findDecision(tr *QueryTrace, name string) *Decision {
	for i := range tr.Decisions {
		if tr.Decisions[i].Name == name {
			return &tr.Decisions[i]
		}
	}
	return nil
}

// TestDecisionAuditInTrace: EXPLAIN ANALYZE on a parallel radix join must
// carry the plan-vs-actual audit — the batch sizing, the worker count,
// the radix bits, and the partition balance — each with an estimate and
// the observed actual.
func TestDecisionAuditInTrace(t *testing.T) {
	const rows = 12000
	db := tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	_, tr, err := db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
		Select("a.id", "b.id").Parallel(4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Decisions) == 0 {
		t.Fatal("trace carries no decisions")
	}
	for _, name := range []string{"batch", "workers", "radix bits", "radix balance"} {
		d := findDecision(tr, name)
		if d == nil {
			t.Fatalf("trace missing %q decision; have %+v", name, tr.Decisions)
		}
		if d.Estimate <= 0 {
			t.Fatalf("%q decision has no estimate: %+v", name, d)
		}
	}
	// The join ran with live progress, so the worker decision observed the
	// real per-worker load and the radix decisions the real partitioning.
	if d := findDecision(tr, "workers"); d.Actual <= 0 {
		t.Fatalf("workers decision never observed an actual: %+v", d)
	}
	if d := findDecision(tr, "radix bits"); d.Actual != float64(rows/2) {
		t.Fatalf("radix bits actual = %g, want the %d build rows", d.Actual, rows/2)
	}
	out := tr.Format()
	for _, want := range []string{"decision batch:", "decision workers:", "decision radix bits:", "estimate=", "actual="} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted trace missing %q:\n%s", want, out)
		}
	}
}

// TestMispredictCounter: a deliberately mis-estimated query — the batch
// sizing assumes the full table, a selective predicate keeps a sliver —
// must increment mmdb_plan_mispredict_total{decision="batch"}.
func TestMispredictCounter(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{}, rows)
	if got := db.Metrics().MispredictCount("batch"); got != 0 {
		t.Fatalf("fresh database has %d mispredicts", got)
	}
	// k is un-indexed: sequential scan over 12000 rows, ~124 survive the
	// filter — a ~97x batch-sizing error, far past the 2x threshold.
	if _, err := db.Query("a").Where("k", Eq, Int(5)).Run(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().MispredictCount("batch"); got != 1 {
		t.Fatalf("MispredictCount(batch) = %d, want 1", got)
	}
	// An unfiltered scan estimates exactly and must not count.
	if _, err := db.Query("a").Run(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().MispredictCount("batch"); got != 1 {
		t.Fatalf("exact estimate counted as mispredict: %d", got)
	}
	var b strings.Builder
	db.Metrics().WritePrometheus(&b)
	if !strings.Contains(b.String(), `mmdb_plan_mispredict_total{decision="batch"} 1`) {
		t.Fatalf("Prometheus output missing mispredict counter:\n%s", b.String())
	}
}

// TestParallelCountersSurviveFolding: the §3.1 counters (partitioning
// passes, fan-out, hash calls, comparisons and table probes) are
// accumulated in per-worker private counters and added into one
// meter.Counters after the workers join — the fold must lose nothing
// under the parallel radix join, the per-worker-table DISTINCT, and the
// join pipeline.
func TestParallelCountersSurviveFolding(t *testing.T) {
	const rows = 12000
	db := tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})

	_, tr, err := db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
		Select("a.id", "b.id").Parallel(4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var jn *TraceNode
	for _, n := range tr.Root.Children {
		if n.Op == "join" {
			jn = n
		}
	}
	if jn == nil || jn.Ops.RadixPasses == 0 || jn.Ops.Partitions == 0 {
		t.Fatalf("parallel radix join counters lost in fold: %+v", jn)
	}
	if jn.PartitionSkew <= 0 {
		t.Fatalf("parallel radix join reports no partition skew: %+v", jn)
	}

	_, trd, err := db.Query("a").Select("k").Distinct().Parallel(4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var dn *TraceNode
	for _, n := range trd.Root.Children {
		if n.Op == "distinct" {
			dn = n
		}
	}
	// Every row is hashed and probed by exactly one worker's private table;
	// only the barrier merge counts groups.
	if dn == nil || dn.Workers != 4 || dn.Ops.HashCalls < rows || dn.Ops.AggProbes < rows || dn.Ops.Groups != 97 {
		t.Fatalf("parallel distinct counters lost in fold: %+v", dn)
	}

	// At the default crossover the same join runs as the pipeline.
	_, trp, err := tuned(db, tuning{}).Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
		Select("a.id", "b.id").Parallel(4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pn := joinNode(t, trp)
	// Every outer row is hashed and probed once, by one worker; every
	// emitted row took at least one key comparison.
	if pn.Workers != 4 || pn.Ops.HashCalls != rows || pn.Ops.Comparisons < int64(pn.RowsOut) {
		t.Fatalf("join pipeline counters lost in fold: %+v", pn)
	}
}

// TestActiveQueriesLiveVisibility: while a parallel join runs, it must be
// visible in ActiveQueries with its text and a rows-processed gauge that
// only ever grows.
func TestActiveQueriesLiveVisibility(t *testing.T) {
	const rows = 12000
	db := tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	if got := db.ActiveQueries(); len(got) != 0 {
		t.Fatalf("idle database lists %d active queries", len(got))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
				Select("a.id", "b.id").Parallel(4).Run(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	lastRows := map[uint64]int64{}
	sawProgress := false
	deadline := time.Now().Add(10 * time.Second)
	for !sawProgress && time.Now().Before(deadline) {
		for _, q := range db.ActiveQueries() {
			if !strings.Contains(q.Text, "FROM a JOIN b") {
				t.Errorf("unexpected active query text %q", q.Text)
			}
			if prev, ok := lastRows[q.ID]; ok && q.Rows < prev {
				t.Errorf("q%d progress went backwards: %d -> %d", q.ID, prev, q.Rows)
			}
			lastRows[q.ID] = q.Rows
			if q.Rows > 0 {
				sawProgress = true
			}
		}
	}
	close(stop)
	wg.Wait()
	if !sawProgress {
		t.Fatal("never observed an in-flight query with progress > 0")
	}
	if got := db.ActiveQueries(); len(got) != 0 {
		t.Fatalf("%d queries still registered after completion", len(got))
	}
}

// TestSlowQueryLog: queries crossing Options.SlowQueryThreshold land in
// the slow log with their text, timing, and full trace — including the
// decision audit — even through plain Run; the ring stays bounded,
// newest first.
func TestSlowQueryLog(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLogSize: 2}, rows)
	if got := db.SlowQueries(); len(got) != 0 {
		t.Fatalf("fresh database has %d slow queries", len(got))
	}
	run := func(k int64) {
		t.Helper()
		if _, err := db.Query("a").Where("k", Eq, Int(k)).Run(); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	run(2)
	run(3)
	slow := db.SlowQueries()
	if len(slow) != 2 {
		t.Fatalf("slow log has %d entries, want ring capacity 2", len(slow))
	}
	if !strings.Contains(slow[0].Text, "k = 3") || !strings.Contains(slow[1].Text, "k = 2") {
		t.Fatalf("slow log not newest-first: %q, %q", slow[0].Text, slow[1].Text)
	}
	for _, s := range slow {
		if s.Wall <= 0 || s.Trace == nil {
			t.Fatalf("slow entry missing wall/trace: %+v", s)
		}
		if findDecision(s.Trace, "batch") == nil {
			t.Fatalf("slow entry trace has no decision audit: %+v", s.Trace.Decisions)
		}
		if len(s.Trace.Root.Children) == 0 {
			t.Fatal("slow entry trace has no operator nodes")
		}
	}

	// A threshold nothing crosses captures nothing.
	calm := openBig(t, Options{SlowQueryThreshold: time.Hour}, 100)
	if _, err := calm.Query("a").Run(); err != nil {
		t.Fatal(err)
	}
	if got := calm.SlowQueries(); len(got) != 0 {
		t.Fatalf("sub-threshold query captured: %+v", got)
	}
}

// TestIntrospectionDisabled: DisableMetrics turns the live registry off
// (nil snapshots) and without a threshold there is no slow log; queries
// still run.
func TestIntrospectionDisabled(t *testing.T) {
	db := openBig(t, Options{DisableMetrics: true}, 200)
	if _, err := db.Query("a").Where("k", Eq, Int(1)).Run(); err != nil {
		t.Fatal(err)
	}
	if db.ActiveQueries() != nil {
		t.Fatal("disabled database returned an active-query snapshot")
	}
	if db.SlowQueries() != nil {
		t.Fatal("database without a threshold returned slow queries")
	}
}

// TestIntrospectionUnderParallelQueries hammers ActiveQueries and
// SlowQueries while parallel queries execute on several goroutines — the
// -race guard for the live registry and the slow ring.
func TestIntrospectionUnderParallelQueries(t *testing.T) {
	const rows = 8000
	db := tuned(openBig(t, Options{SlowQueryThreshold: time.Nanosecond}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = db.ActiveQueries()
					_ = db.SlowQueries()
					_ = db.Stats()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5; i++ {
				if _, err := db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
					Select("a.id").Parallel(4).Run(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := db.ActiveQueries(); len(got) != 0 {
		t.Fatalf("%d queries left registered", len(got))
	}
	if got := db.SlowQueries(); len(got) == 0 {
		t.Fatal("no slow queries captured")
	}
}

// TestIntrospectionRendersTextOnRead: the registry and the slow log keep
// the query, not its text, and render it when read — byte for byte the
// text built eagerly before, for a running join + WHERE + GROUP BY +
// ORDER BY + LIMIT. A Result's plan is rendered from the values the
// phases planned, so extending the Query after Run does not change it.
func TestIntrospectionRendersTextOnRead(t *testing.T) {
	const want = "SELECT b.grp, COUNT(*), SUM(a.id) FROM a JOIN b ON a.k=b.k WHERE id > -1 AND k < 90 GROUP BY b.grp ORDER BY 2 DESC LIMIT 3"
	db := tuned(openBig(t, Options{SlowQueryThreshold: time.Nanosecond}, 12000), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	query := func() *Query {
		return db.Query("a").Where("id", Gt, Int(-1)).Where("k", Lt, Int(90)).Join("b", "k", "k").
			GroupBy("b.grp").Agg(AggCount, "").Agg(AggSum, "a.id").OrderBy("2", true).Limit(3).
			Parallel(4)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := query().Run(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := false
	for deadline := time.Now().Add(10 * time.Second); !seen && time.Now().Before(deadline); {
		for _, q := range db.ActiveQueries() {
			if q.Text != want {
				t.Errorf("active query text\n got %q\nwant %q", q.Text, want)
			}
			seen = true
		}
	}
	close(stop)
	wg.Wait()
	if !seen {
		t.Fatal("never observed the query in flight")
	}
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow-log entry")
	}
	for _, s := range slow {
		if s.Text != want {
			t.Errorf("slow-log text\n got %q\nwant %q", s.Text, want)
		}
	}

	q := query()
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	executed := res.Plan()
	if !strings.Contains(executed, `access a: tree range scan on "id" [0, +inf) + 1 residual filter(s)`) {
		t.Fatalf("unexpected executed plan:\n%s", executed)
	}
	q.Where("id", Lt, Int(5))
	if got := res.Plan(); got != executed {
		t.Fatalf("plan changed when the query was extended after Run:\n%s\nwas\n%s", got, executed)
	}
}

// TestRegistryAllocOverhead: the metrics registry, the live-query
// registry and the decision audit record numbers and a pointer to the
// query; text is formatted only when read. So a primary-key Run with
// metrics on allocates at most three objects more than the same Run
// with them off.
func TestRegistryAllocOverhead(t *testing.T) {
	measure := func(opts Options) float64 {
		db := protoDBWith(t, opts, 1000)
		run := func() {
			r, err := db.Query("fact").Where("id", Eq, Int(500)).Select("id", "v").Run()
			if err != nil || r.Len() != 1 {
				t.Fatalf("pk Run: %v", err)
			}
		}
		run()
		return testing.AllocsPerRun(200, run)
	}
	on, off := measure(Options{}), measure(Options{DisableMetrics: true})
	t.Logf("pk Run allocates %.0f times with metrics on, %.0f with them off", on, off)
	if on-off > 3 {
		t.Errorf("metrics on cost %.0f allocations a query (%.0f vs %.0f), want at most 3", on-off, on, off)
	}
}
