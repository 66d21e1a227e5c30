package main

import (
	"fmt"
	"sync"
	"time"

	mmdb "repro"
	"repro/internal/sched"
	"repro/internal/sqlparser"
)

// kindReps is how many traced samples of each kind the sampling pass
// takes: few for the analytical kinds, which run for tens of milliseconds,
// more for the statements, which run for less than one.
func kindReps(k kindID) int {
	switch k {
	case kPoint, kInsert, kDelete:
		return 200
	case kRange100:
		return 40
	}
	return 5
}

// busySampler samples the shared morsel pool while the traced window runs;
// Busy is a gauge, so the ratio has to be sampled and cannot be a delta.
type busySampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	busy int64
	n    int64
}

func startBusySampler() *busySampler {
	s := &busySampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.busy += sched.Shared().SnapshotStats().Busy
				s.n++
			}
		}
	}()
	return s
}

// ratio stops the sampler and returns mean busy workers over pool size.
func (s *busySampler) ratio() float64 {
	close(s.stop)
	s.wg.Wait()
	if s.n == 0 {
		return 0
	}
	return float64(s.busy) / float64(s.n) / float64(sched.Shared().Workers())
}

func sumMispredicts(s mmdb.Stats) int64 {
	var n int64
	for _, v := range s.PlanMispredicts {
		n += v
	}
	return n
}

// runTraced is the traced run: per-layer metrics only. It loads every
// table under the workload's own options, then
//
//  1. samples each read-only analytical kind, traced, on the fresh data;
//  2. runs the workload untraced and then traced for a third of the window
//     each, which gives the tracing overhead, the span shares and the
//     Stats() deltas of the lock, txn, plan and sched layers;
//  3. samples the statement kinds and, beside a writer, the two HTAP kinds;
//  4. replays every layer over the same generated data.
//
// Every per-layer metric of BENCHMARK.json comes out of every traced run;
// those of step 2 are the only ones that depend on the workload.
func runTraced(cfg *config, def *workloadDef, d *Data, sc *scratch) (*outcome, error) {
	o := newOracle(d)
	s, err := setUp(def, tAll, d, o, sc, 0)
	if err != nil {
		return nil, err
	}
	in := s.in
	defer func() { in.e.Close() }()
	out := &outcome{Workload: def.name, Trace: true, Metrics: map[string]Metric{}, Samples: map[string]int{}, Extra: map[string]float64{}}
	put := func(name string, v float64, unit string) { out.Metrics[name] = Metric{Value: v, Unit: unit} }
	count := func(w windowResult) {
		out.Attempted += w.attempted()
		out.fail(w.failed(), w.err())
	}

	tr := newTracer()
	kinds := map[kindID][]time.Duration{}
	xs := &executor{e: in.e, tr: tr, verify: true, kindCost: kinds}
	sample := func(op *Op) {
		out.Attempted++
		if _, err := xs.do(op); err != nil {
			out.fail(1, err)
		}
	}

	// 1. Analytical kinds, on data no statement has changed yet.
	for k := kJoinUniform; k <= kDistinct; k++ {
		for i := 0; i < kindReps(k); i++ {
			sample(o.op(k))
		}
	}

	// 2. The workload itself: warm-up, then untraced, then traced.
	third := cfg.window / 3
	xu := &executor{e: in.e, verify: true}
	count(in.run(xu, forOps(def.warmOps)))
	untraced := in.run(xu, forDuration(third, 1))
	count(untraced)
	xt := &executor{e: in.e, tr: tr, verify: true}
	before := in.e.db.Stats()
	busy := startBusySampler()
	t0 := time.Now()
	traced := in.run(xt, forDuration(third, 1))
	wall := time.Since(t0).Seconds()
	busyRatio := busy.ratio()
	delta := in.e.db.Stats().Sub(before)
	count(traced)
	tot := xt.tot
	ops := float64(len(traced.fg.lat))
	// The workload's own speed, untraced: end-to-end numbers by nature, kept
	// among the per-layer metrics because they do not repeat from run to
	// run within any bound (README.md has the spreads). Throughput counts
	// the writer's commits where there is a writer.
	tp := &untraced.fg
	if in.writer != nil {
		tp = &untraced.writer
	}
	put("mmdb.ops_per_s", float64(len(tp.lat))/max(tp.busy().Seconds(), 1e-9), "1/s")
	put("mmdb.lat_p50_ms", millis(durMedian(perSample(untraced.fg.lat, def.latOps))), "ms")
	out.Samples["mmdb.ops_per_s"], out.Samples["mmdb.lat_p50_ms"] = len(tp.lat), len(untraced.fg.lat)
	put("obs.trace_overhead_ratio", float64(durMedian(traced.fg.lat))/float64(durMedian(untraced.fg.lat)), "ratio")
	put("obs.trace_unattributed_ratio", 1-float64(tot.wallNS)/float64(max(tot.totalNS, 1)), "ratio")
	put("obs.trace_outside_total_ratio", float64(tot.outsideNS)/float64(max(tot.analyzeNS, 1)), "ratio")
	put("obs.trace_span_cover_ratio", float64(tot.coveredNS)/float64(max(tot.opNS, 1)), "ratio")
	put("mmdb.glue_us_per_query", float64(tot.totalNS-tot.wallNS)/1e3/float64(max(tot.queries, 1)), "us")
	opNS := float64(max(tot.opNS, 1))
	put("trace.share_select", float64(tot.selectNS)/opNS, "ratio")
	put("trace.share_join", float64(tot.joinNS)/opNS, "ratio")
	put("trace.share_agg_sort", float64(tot.aggSortNS)/opNS, "ratio")
	put("trace.share_parse_plan", float64(tot.parseNS+tot.planNS)/opNS, "ratio")
	put("trace.radix_agg_sortkey_spans", float64(tot.layerSpans["radix"]+tot.layerSpans["agg"]+tot.layerSpans["sortkey"]), "count")
	put("lock.waits_per_s", float64(delta.LockWaits)/wall, "1/s")
	put("lock.wait_ms_per_s", millis(delta.LockWaitTime)/wall, "ms/s")
	put("lock.deadlocks", float64(delta.Deadlocks), "count")
	put("txn.commits", float64(delta.TxnCommits), "count")
	put("txn.aborts", float64(delta.TxnAborts), "count")
	put("plan.mispredicts_per_round", float64(sumMispredicts(delta))/ops, "count")
	put("sched.steals_per_query", float64(tot.steals)/float64(max(tot.queries, 1)), "count")
	put("sched.wait_us_per_query", float64(tot.schedWaitNS)/1e3/float64(max(tot.queries, 1)), "us")
	put("sched.busy_ratio", busyRatio, "ratio")

	// 3. Statement kinds through the statement generator, then the HTAP
	// kinds beside a writer, on the same engine and shadow.
	gen := in.gen
	if gen == nil {
		gen = newStmtGen(d.Seed, in.shadow)
	}
	for _, k := range []kindID{kPoint, kRange100, kInsert, kDelete} {
		for i := 0; i < kindReps(k); i++ {
			sample(gen.nextOf(k))
		}
	}
	htap := in
	if htap.writer == nil {
		htap = newInstance(findWorkload("htap_mixed"), in.e, d, o, in.shadow)
	}
	count(htap.run(xs, forOps(kindReps(kSnapGroup))))

	for k := kindID(0); k < numKinds; k++ {
		unit, v := "ms", millis(durMedian(kinds[k]))
		if kindMicros[k] {
			unit, v = "us", micros(durMedian(kinds[k]))
		}
		put("mmdb."+kindNames[k]+"_"+unit, v, unit)
		out.Samples["mmdb."+kindNames[k]+"_"+unit] = len(kinds[k])
	}
	perRow := func(k kindID, rows int) float64 { return float64(durMedian(kinds[k])) / float64(rows) }
	put("mmdb.zipf_over_uniform", perRow(kJoinZipf, o.want[kJoinZipf].Rows)/perRow(kJoinUniform, o.want[kJoinUniform].Rows), "ratio")

	stmts, parseNS, parseAllocs, err := parseReplay(d)
	if err != nil {
		return nil, err
	}
	put("sqlparser.parse_us_per_stmt", float64(parseNS)/1e3/float64(stmts), "us")
	put("sqlparser.parse_allocs_per_stmt", float64(parseAllocs)/float64(stmts), "count")
	explain := func(q func(*mmdb.Database) *mmdb.Query) (time.Duration, error) {
		var err error
		took := medianTime(100, func() {
			if _, e := q(in.e.db).Explain(); e != nil {
				err = e
			}
		})
		return took, err
	}
	ep, err := explain(pointQuery(int64(d.Fact / 2)))
	if err != nil {
		return nil, fmt.Errorf("explain point: %w", err)
	}
	es, err := explain(olapQueries[kStar4])
	if err != nil {
		return nil, fmt.Errorf("explain star4: %w", err)
	}
	put("plan.explain_us_point", micros(ep), "us")
	put("plan.explain_us_star4", micros(es), "us")
	put("obs.stats_snapshot_us", micros(medianTime(20, func() { in.e.db.Stats() })), "us")

	att, failed, _, err := in.finalChecks()
	out.Attempted += att
	out.fail(failed, err)

	// Restart time through the public API, whatever the workload: a durable
	// fact table loaded into a running log device, logged statements after
	// it, then Close, reopen and Recover(nil), checked against the shadow.
	rec, err := recoverReplay(d, sc)
	if err != nil {
		return nil, err
	}
	out.Attempted += rec.attempted
	out.fail(rec.failed, rec.err)
	put("mmdb.recover_ms", millis(rec.took), "ms")

	// 4. Layer replays.
	if err := runLayers(d, sc, put); err != nil {
		return nil, err
	}

	// The resident-set high-water mark depends on when the collector last
	// ran; it repeats to within a seventh, not a tenth, so it is a per-layer
	// number of the traced run and not an end-to-end metric.
	put("mmdb.peak_rss_mb", peakRSSMB(), "MiB")

	if err := checkNesting(tr.Spans); err != nil {
		out.Attempted++
		out.fail(1, fmt.Errorf("trace: %w", err))
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, tr.Spans); err != nil {
			return nil, err
		}
	}
	out.Extra["spans"] = float64(len(tr.Spans))
	out.Extra["traced_ops"] = float64(tot.ops)
	out.Correct = out.Failed == 0
	return out, nil
}

type recoverResult struct {
	took              time.Duration
	attempted, failed int
	err               error
}

func recoverReplay(d *Data, sc *scratch) (recoverResult, error) {
	def := findWorkload("oltp_point")
	s, err := setUp(def, tFact, d, nil, sc, def.warmOps)
	if err != nil {
		return recoverResult{}, fmt.Errorf("recover replay: %w", err)
	}
	in := s.in
	defer func() { in.e.Close() }()
	w := in.run(&executor{e: in.e, verify: true}, forOps(500))
	var r recoverResult
	r.attempted, r.failed, r.took, r.err = in.finalChecks()
	r.attempted += w.attempted()
	r.failed += w.failed()
	if r.err == nil {
		r.err = w.err()
	}
	return r, nil
}

// parseReplay times sqlparser.Parse over the head of the oltp_point
// statement stream.
func parseReplay(d *Data) (stmts int, ns int64, allocs uint64, err error) {
	gen := newStmtGen(d.Seed, newShadow(d))
	sqls := make([]string, 5000)
	for i := range sqls {
		sqls[i] = gen.next().SQL
	}
	before := mallocs()
	took := timeIt(func() {
		for _, q := range sqls {
			if _, e := sqlparser.Parse(q); e != nil {
				err = fmt.Errorf("parse %q: %w", q, e)
			}
		}
	})
	return len(sqls), took.Nanoseconds(), mallocs() - before, err
}
