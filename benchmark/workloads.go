package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	mmdb "repro"
	"repro/internal/workload"
)

// workloadDef is one named workload. The "why" lines are repeated in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name    string
	tables  tableSet
	durable bool
	round   []kindID // the analytical kinds one op runs, for the OLAP workloads
	// warmOps and allocOps are how many ops one warm-up round and the
	// allocation pass run; an OLTP "round" is a batch of statements.
	// allocCommits is how many transactions the writer, where there is
	// one, commits in the allocation pass: as many per reader round as in
	// a measured window.
	warmOps, allocOps, allocCommits int
	// latOps is how many consecutive ops make one latency sample. The
	// statements of oltp_point fall into four classes of cost and half of
	// them are point selects, so the median statement sits on the edge
	// between two classes and jumps with the noise; the mean over one cycle
	// of the mix does not.
	latOps int
}

var workloadDefs = []workloadDef{
	{name: "oltp_point", tables: tFact, durable: true, warmOps: 300, allocOps: 300, latOps: len(mixCycle)},
	{name: "olap_join", tables: tFact | tPeer | tDims | tZBuild, round: []kindID{kJoinUniform, kJoinZipf, kStar4}, warmOps: 1, allocOps: 1},
	{name: "olap_agg_sort", tables: tFact, round: []kindID{kScanFilter, kGroupLo, kGroupHi, kOrderFull, kTopK, kDistinct}, warmOps: 1, allocOps: 1},
	{name: "htap_mixed", tables: tFact, warmOps: 2, allocOps: 6, allocCommits: 1800},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// instance is a workload bound to one loaded engine.
type instance struct {
	def    *workloadDef
	e      *Engine
	d      *Data
	oracle *Oracle
	shadow *Shadow
	gen    *stmtGen
	rng    *rand.Rand
	writer *updateWriter // htap_mixed only
	// writerQuota, when set, makes the writer stop after so many commits
	// and the run last until it has.
	writerQuota int
}

func newInstance(def *workloadDef, e *Engine, d *Data, o *Oracle, sh *Shadow) *instance {
	in := &instance{def: def, e: e, d: d, oracle: o, shadow: sh, rng: subRng(d.Seed, 30)}
	switch def.name {
	case "oltp_point":
		in.gen = newStmtGen(d.Seed, sh)
	case "htap_mixed":
		in.writer = newUpdateWriter(e, sh, subRng(d.Seed, 40))
	}
	return in
}

// step runs one op of the workload's foreground client — a statement, or
// one round of queries — and returns the time spent inside the engine.
func (in *instance) step(x *executor) (time.Duration, error) {
	switch in.def.name {
	case "oltp_point":
		return x.do(in.gen.next())
	case "htap_mixed":
		return doAll(x, in.snapGroupOp(), in.lockedRangeOp())
	}
	ops := make([]*Op, len(in.def.round))
	for i, k := range in.def.round {
		ops[i] = in.oracle.op(k)
	}
	return doAll(x, ops...)
}

// doAll runs the ops of one round; the round fails with its first error
// but always runs whole.
func doAll(x *executor, ops ...*Op) (time.Duration, error) {
	var total time.Duration
	var first error
	for _, op := range ops {
		d, err := x.do(op)
		total += d
		if err != nil && first == nil {
			first = err
		}
	}
	return total, first
}

// snapGroupOp is GROUP BY glo on the lock-free snapshot path. Beside a
// writer SUM(v) has no single right answer, but every committed state has
// the same row count, so the counts must add up to it.
func (in *instance) snapGroupOp() *Op {
	live := int64(in.shadow.liveCount())
	groups := in.d.GLoDom
	return &Op{Kind: kSnapGroup, Query: olapQueries[kGroupLo], Want: Expect{Check: func(res *mmdb.Result) error {
		if res.Len() == 0 || res.Len() > groups {
			return fmt.Errorf("%d groups, want 1..%d", res.Len(), groups)
		}
		var n int64
		for i := 0; i < res.Len(); i++ {
			n += res.Row(i)[1].Int()
		}
		if n != live {
			return fmt.Errorf("COUNT(*) adds up to %d, want %d: not a committed state", n, live)
		}
		return nil
	}}}
}

// lockedRangeOp is a 100-row primary-key range on the S-lock path. A result
// points at live tuples and the query's locks are gone once Run returns, so
// it selects only id, which the writer beside it never changes.
func (in *instance) lockedRangeOp() *Op {
	lo := int64(in.rng.Intn(in.d.Fact - rangeLen))
	var want []int64
	for id := lo; id < lo+rangeLen; id++ {
		if in.shadow.alive(id) {
			want = append(want, id)
		}
	}
	return &Op{Kind: kLockedRange, Query: rangeQuery(lo, "id"), Want: Expect{Check: func(res *mmdb.Result) error {
		if res.Len() != len(want) {
			return fmt.Errorf("got %d rows, want %d", res.Len(), len(want))
		}
		got := make([]int64, res.Len())
		for i := range got {
			got[i] = res.Row(i)[0].Int()
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("row %d has id %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}}}
}

// updateWriter commits transactions of four Zipf-chosen point updates of
// fact.v through tuple pointers. The four rows are updated in row order:
// a reader S-locks partitions in that order too, so the pair can wait for
// each other but never deadlock, and no op fails.
type updateWriter struct {
	e      *Engine
	tuples []*mmdb.Tuple // by fact row
	s      *Shadow
	rng    *rand.Rand
	next   func() int
}

const updatesPerTxn = 4

func newUpdateWriter(e *Engine, s *Shadow, rng *rand.Rand) *updateWriter {
	return &updateWriter{e: e, tuples: e.factTuples, s: s, rng: rng, next: workload.UpdateSpec{Rows: s.d.Fact}.Stream(rng)}
}

// commitOne runs one transaction and, once committed, applies it to the
// shadow.
func (w *updateWriter) commitOne() (time.Duration, error) {
	var rows [updatesPerTxn]int
	var vals [updatesPerTxn]int64
	for i := range rows {
		r := w.next()
		for !w.s.alive(int64(r)) {
			r = w.next()
		}
		rows[i], vals[i] = r, w.rng.Int63n(1<<40)
	}
	sort.Ints(rows[:])
	t0 := time.Now()
	tx := w.e.db.Begin()
	for i, r := range rows {
		if err := tx.Update(w.e.fact, w.tuples[r], "v", mmdb.Int(vals[i])); err != nil {
			tx.Abort()
			return time.Since(t0), fmt.Errorf("update row %d: %w", r, err)
		}
	}
	_, err := tx.Commit()
	cost := time.Since(t0)
	if err != nil {
		return cost, fmt.Errorf("commit: %w", err)
	}
	for i, r := range rows {
		w.s.v[int64(r)] = vals[i]
	}
	return cost, nil
}

// clientStats is what one closed-loop client did in a window.
type clientStats struct {
	lat      []time.Duration // engine time per op
	failed   int
	firstErr error
}

func (c *clientStats) record(d time.Duration, err error) {
	c.lat = append(c.lat, d)
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

func (c *clientStats) busy() time.Duration {
	var t time.Duration
	for _, d := range c.lat {
		t += d
	}
	return t
}

// windowResult is one measured window: the foreground client and, on
// htap_mixed, the writer beside it.
type windowResult struct {
	fg, writer clientStats
}

func (w *windowResult) attempted() int { return len(w.fg.lat) + len(w.writer.lat) }
func (w *windowResult) failed() int    { return w.fg.failed + w.writer.failed }
func (w *windowResult) err() error {
	if w.fg.firstErr != nil {
		return w.fg.firstErr
	}
	return w.writer.firstErr
}

// run drives the workload's closed loop: the foreground client issues
// whole ops until stop says so; the writer, when there is one, commits for
// exactly as long as the foreground client runs, or until its quota is met.
func (in *instance) run(x *executor, stop func(opsDone int) bool) windowResult {
	var res windowResult
	var done chan struct{}
	quit := make(chan struct{})
	if in.writer != nil {
		done = make(chan struct{})
		go func() {
			defer close(done)
			for n := 0; in.writerQuota == 0 || n < in.writerQuota; n++ {
				select {
				case <-quit:
					return
				default:
				}
				res.writer.record(in.writer.commitOne())
			}
		}()
	}
	for n := 0; !stop(n); n++ {
		d, err := in.step(x)
		res.fg.record(d, err)
	}
	if in.writerQuota == 0 {
		close(quit)
	}
	if done != nil {
		<-done
	}
	return res
}

func forOps(n int) func(int) bool { return func(done int) bool { return done >= n } }

// forDuration runs whole ops until d has passed, and at least minOps of
// them: when the machine is slow a window holds fewer ops, and a median
// over too few means nothing, so the window grows rather than thins out.
func forDuration(d time.Duration, minOps int) func(int) bool {
	deadline := time.Now().Add(d)
	return func(done int) bool { return done >= minOps && !time.Now().Before(deadline) }
}

// finalChecks compares the whole fact table with the shadow and, on a
// durable workload, closes the database, reopens it, recovers and compares
// again. It returns the checks made, how many failed, and the Recover wall
// time. The engine in use afterwards is in.e.
func (in *instance) finalChecks() (attempted, failed int, recoverTime time.Duration, first error) {
	if in.shadow == nil {
		return
	}
	x := &executor{e: in.e, verify: true}
	check := func(what string) {
		attempted++
		if _, err := x.do(in.shadow.tableOp()); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s: %w", what, err)
			}
		}
	}
	check("table after window")
	if in.def.durable {
		attempted++
		err := in.e.Close()
		var re *Engine
		if err == nil {
			re, recoverTime, err = in.e.reopenRecovered()
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
			return
		}
		in.e, x.e = re, re
		check("table after recovery")
	}
	return
}
