// Package concbench measures what PR 9 is for: concurrent-query
// throughput on the shared work-stealing morsel pool with lock-free
// snapshot scans, against the per-query-goroutine baseline it replaced.
//
// Two exhibits:
//
//   - Read-only sweep: C identical analytical scans run concurrently,
//     C = 1..64, on three databases over identical data, all configured
//     for the same intra-query parallelism — the shared pool with
//     snapshot scans (the default), the compat mode (per-query
//     goroutine fleets clamped by active-query count, locked scans),
//     and the pre-scheduler baseline (unclamped fleets: N queries run
//     N×degree goroutines). Every query's result cardinality is
//     asserted identical to the serial run; the curves are
//     queries/second.
//
//   - Mixed readers/writers: one writer streams single-row Zipf point
//     updates (internal/workload.UpdateSpec — hot rows keep the same
//     partitions permanently dirty, the worst case for snapshot
//     republication) while C readers scan. Readers must observe the
//     invariant row count on every scan (updates never change
//     cardinality), and the series reports reader and writer
//     throughput plus the lock waits the mix produced. A snapshot reader
//     holds S(relation) only while it refreshes a stale snapshot, never
//     while it scans; the acceptance note says whether the time both
//     sides spent waiting for locks stayed within maxLockWaitShare of the
//     mix's wall time. A refresh costs what changed since the last one,
//     and this writer is not throttled: it dirties most partitions
//     between two scans, which is the case the bound is hardest for.
//
// The experiment lives outside internal/bench because it exercises the
// public Database API, which internal/bench cannot import (the engine's
// own tests import it); it registers itself at init time.
package concbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	mmdb "repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

func init() {
	bench.Register(bench.Experiment{
		ID:      "concurrency",
		Exhibit: "Extension — shared morsel pool + snapshot scans: concurrent-query throughput",
		Run:     ConcurrencySweep,
	})
}

// concLevels is the concurrency sweep: 1..64 doubling.
var concLevels = []int{1, 2, 4, 8, 16, 32, 64}

// maxLockWaitShare is the most of the mixed workload's wall time that may
// be spent waiting for locks, summed over the writer and every reader.
const maxLockWaitShare = 0.05

// ConcurrencySweep runs both exhibits and applies the acceptance
// gates, each emitted as a PASS/SKIP/FAIL note for CI to grep. Bounded
// lock waiting in the mixed workload (lock-wait time within
// maxLockWaitShare of the mix's wall time) does not stop the run when it
// fails: no machine measured so far meets it beside the unthrottled
// writer, and -experiment all must still finish. The throughput-ratio
// gate is pooled ≥ 2× the pre-scheduler baseline at 16+ concurrent: the
// pre-scheduler penalty is
// oversubscription — N queries × degree goroutines fighting over the
// cores — which a serial machine cannot express (every arm is
// timesliced onto one core and the clamp floor is 1 anyway), so the
// gate is SKIP below 4 CPUs.
func ConcurrencySweep(env bench.Env) []bench.Series {
	rows := env.N(60000)
	if rows < 8192 {
		// Below the engine's snapshot-eligibility floor the pooled arm
		// would silently fall back to locked scans and gate nothing.
		rows = 8192
	}
	readOnly, ratio := readOnlySweep(env, rows)
	mixed, waitTime, wall := mixedWorkload(env, rows)
	verdict := "PASS"
	if waitTime.Seconds() > maxLockWaitShare*wall.Seconds() {
		verdict = "FAIL"
	}
	mixed.Notes = append(mixed.Notes, fmt.Sprintf("acceptance bounded-lock-wait: %s — lock waits took %s of %s wall time (%.1f%%, bound %.0f%%)",
		verdict, waitTime.Round(time.Microsecond), wall.Round(time.Millisecond), 100*waitTime.Seconds()/wall.Seconds(), 100*maxLockWaitShare))
	readOnly.Notes = append(readOnly.Notes,
		fmt.Sprintf("shared pool / pre-scheduler per-query baseline, best at >=16 concurrent: %.2fx", ratio))
	switch {
	case ratio >= 2:
		readOnly.Notes = append(readOnly.Notes, "acceptance throughput-ratio (>=2x): PASS")
	case runtime.NumCPU() < 4:
		readOnly.Notes = append(readOnly.Notes,
			fmt.Sprintf("acceptance throughput-ratio (>=2x): SKIP — %d CPU(s) cannot express per-query-fleet oversubscription", runtime.NumCPU()))
	default:
		readOnly.Notes = append(readOnly.Notes, "acceptance throughput-ratio (>=2x): FAIL")
	}
	return []bench.Series{readOnly, mixed}
}

// loadTable creates m(id, k, v) with rows tuples, k = i mod 97.
func loadTable(db *mmdb.Database, rows int) (*mmdb.Table, []*mmdb.Tuple) {
	tab, err := db.CreateTable("m", []mmdb.Field{
		{Name: "id", Type: mmdb.TypeInt},
		{Name: "k", Type: mmdb.TypeInt},
		{Name: "v", Type: mmdb.TypeInt},
	}, "id", mmdb.TTree)
	if err != nil {
		panic(err)
	}
	tuples := make([]*mmdb.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		tp, err := tab.Insert(mmdb.Int(int64(i)), mmdb.Int(int64(i%97)), mmdb.Int(0))
		if err != nil {
			panic(err)
		}
		tuples = append(tuples, tp)
	}
	return tab, tuples
}

// scanOnce runs one full analytical scan and asserts its cardinality.
func scanOnce(db *mmdb.Database, want int) {
	res, err := db.Query("m").Select("k").Run()
	if err != nil {
		panic(err)
	}
	if res.Len() != want {
		panic(fmt.Sprintf("concbench: scan returned %d rows, want %d", res.Len(), want))
	}
}

// selectiveCount is the cardinality of k = 13 over rows tuples with
// k = i mod 97 — the expected result of every sweep query.
func selectiveCount(rows int) int {
	want := rows / 97
	if rows%97 > 13 {
		want++
	}
	return want
}

// scanSelective runs one selective analytical scan — k is not indexed,
// so this is a full sequential scan with a predicate, but the result it
// materializes is ~1% of the relation. That keeps the measurement on
// the scan itself (where locking discipline matters) instead of on
// allocating 60,000-row result lists, which is the same cost in both
// arms and GC-bounds the whole comparison on small machines.
func scanSelective(db *mmdb.Database, want int) {
	res, err := db.Query("m").Where("k", mmdb.Eq, mmdb.Int(13)).Select("k").Run()
	if err != nil {
		panic(err)
	}
	if res.Len() != want {
		panic(fmt.Sprintf("concbench: selective scan returned %d rows, want %d", res.Len(), want))
	}
}

// throughput runs level goroutines, each issuing queries until the
// shared budget of total queries drains, and returns queries/second.
// The GC runs first so one arm's allocation debt is not collected on
// the other arm's clock — on small machines the collector's share of
// the CPU otherwise dominates the comparison.
func throughput(level, total int, scan func()) float64 {
	runtime.GC()
	var remaining atomic.Int64
	remaining.Store(int64(total))
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < level; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				scan()
			}
		}()
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds()
}

// sweepParallelism is the intra-query degree every sweep arm is
// configured with — a server provisioned for parallel analytics,
// independent of this machine's core count. The pooled arm executes it
// on the fixed shared worker set; the pre-scheduler arm spawns it per
// query, which is exactly the N×degree oversubscription the scheduler
// exists to remove.
const sweepParallelism = 4

func readOnlySweep(env bench.Env, rows int) (bench.Series, float64) {
	s := bench.Series{
		ID:     "conc-readonly",
		Title:  "Concurrent analytical scans — shared pool + snapshots vs per-query worker fleets",
		XLabel: "concurrent queries",
		YLabel: "queries/sec",
		Names:  []string{"shared pool + snapshots", "clamped fleets (compat)", "per-query fleets (pre-scheduler)"},
	}

	pooled, err := mmdb.Open(mmdb.Options{Parallelism: sweepParallelism})
	if err != nil {
		panic(err)
	}
	defer pooled.Close()
	clamped, err := mmdb.Open(mmdb.Options{
		Parallelism:      sweepParallelism,
		PoolWorkers:      mmdb.PoolDisabled,
		DisableSnapshots: true,
	})
	if err != nil {
		panic(err)
	}
	defer clamped.Close()
	unclamped, err := mmdb.Open(mmdb.Options{
		Parallelism:        sweepParallelism,
		PoolWorkers:        mmdb.PoolDisabled,
		DisableSnapshots:   true,
		DisableDegreeClamp: true,
	})
	if err != nil {
		panic(err)
	}
	defer unclamped.Close()
	arms := []*mmdb.Database{pooled, clamped, unclamped}
	for _, db := range arms {
		loadTable(db, rows)
	}

	// Warm each arm (publishing the pooled database's snapshot); the
	// serial run is the cardinality every concurrent query must
	// reproduce.
	want := selectiveCount(rows)
	for _, db := range arms {
		scanSelective(db, want)
	}

	var ratio float64
	for _, level := range concLevels {
		total := 16 * level
		if total < 64 {
			total = 64
		}
		qps := make([]float64, len(arms))
		for i, db := range arms {
			db := db
			qps[i] = throughput(level, total, func() { scanSelective(db, want) })
		}
		s.Add(fmt.Sprintf("%d", level), qps...)
		if level >= 16 && qps[0]/qps[2] > ratio {
			ratio = qps[0] / qps[2]
		}
	}
	return s, ratio
}

// mixedWorkload returns the series, the time both sides spent waiting for
// locks over all reader levels, and the wall time of those mixes.
func mixedWorkload(env bench.Env, rows int) (bench.Series, time.Duration, time.Duration) {
	s := bench.Series{
		ID:     "conc-mixed",
		Title:  "Mixed workload — Zipf point updates beside concurrent snapshot scans",
		XLabel: "concurrent readers",
		YLabel: "ops/sec",
		Names:  []string{"reader queries/sec", "writer commits/sec"},
	}

	db, err := mmdb.Open(mmdb.Options{Parallelism: env.Parallelism})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	tab, tuples := loadTable(db, rows)
	scanOnce(db, rows) // publish the snapshot

	var waitTime, wall time.Duration
	for _, level := range []int{1, 4, 16} {
		next := workload.UpdateSpec{Rows: rows}.Stream(env.Rng())
		stop := make(chan struct{})
		var commits atomic.Int64
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			r := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				if err := tx.Update(tab, tuples[next()], "v", mmdb.Int(int64(r))); err != nil {
					panic(err)
				}
				if _, err := tx.Commit(); err != nil {
					panic(err)
				}
				commits.Add(1)
				r++
			}
		}()

		before := db.Stats()
		mixStart := time.Now()
		total := 8 * level
		qps := throughput(level, total, func() { scanOnce(db, rows) })
		close(stop)
		wwg.Wait()
		mixWall := time.Since(mixStart)
		d := db.Stats().Sub(before)
		waitTime += d.LockWaitTime
		wall += mixWall

		elapsed := float64(total) / qps // reader window seconds
		s.Add(fmt.Sprintf("%d", level), qps, float64(commits.Load())/elapsed)
		s.Notes = append(s.Notes,
			fmt.Sprintf("readers=%d: %d lock waits, %s of %s wall time (snapshot readers hold S(relation) only while refreshing: %d refreshes, %s)",
				level, d.LockWaits, d.LockWaitTime.Round(time.Microsecond), mixWall.Round(time.Millisecond), d.SnapRefreshes, d.SnapRefreshTime.Round(time.Microsecond)))
	}
	return s, waitTime, wall
}
