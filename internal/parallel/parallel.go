// Package parallel is the partition-parallel execution layer over the
// serial operators of internal/exec. The paper's cost model (§3.1) counts
// comparisons and data movement because disk I/O is gone; on modern
// hardware the next bottleneck is a single core, so every operator here
// splits its input into independent partitions, runs the serial algorithm
// per partition on its own worker, and merges per-worker results — no
// shared mutable state, no locks on the hot path.
//
// The designs follow the multi-core literature the roadmap points at:
//
//   - Scans are morsel-driven: the scheduler's workers claim fixed-size
//     chunks (relation partitions or temp-list row ranges) one at a time,
//     so skew in one morsel never idles the other workers.
//   - Joins stream a driver through a pipeline of hash-table stages
//     (RunPipeline): the build sides are immutable before the stream
//     starts, so morsel workers share them. Builds past the radix
//     crossover take the radix join instead (RadixHashJoin): both sides
//     partitioned on the key hash, partition pairs as morsels.
//   - Grouped aggregation folds each worker's row range into a private
//     flat table, then merges the partials as a second task set: merger
//     j takes the partial groups whose key hash falls in partition j, so
//     no phase is a serial pass. Duplicate elimination is the same
//     engine run keys-only (Distinct).
//
// Every operator takes an explicit worker count; a count of 1 runs it
// serially on the calling goroutine.
// Per-worker §3.1 counters are accumulated privately and added into one
// meter.Counters after the workers join, so parallel runs report total
// work the same way serial runs do.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Degree resolves a requested parallelism: n <= 0 means "use every
// core" (GOMAXPROCS); anything else is taken as given.
func Degree(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// morselsPerWorker oversubscribes morsels so a slow morsel (skewed
// partition, cache-cold region) does not stall the whole scan: workers
// that finish early pull the remaining morsels.
const morselsPerWorker = 4

// scratch is per-worker scratch state: a private §3.1 counter block plus
// two tuple-batch blocks (an input block and a survivors block) recycled
// through scratchPool, so spinning up a worker allocates nothing on a
// warm pool. The batches stay worker-private for the worker's lifetime —
// morsel bodies slice them but never retain them.
type scratch struct {
	ctr  meter.Counters
	buf  storage.TupleBatch
	keep storage.TupleBatch
	// rows is the morsel body's rows-processed tally; run flushes it to
	// the query's live Progress after every morsel and zeroes it, so
	// progress is visible at morsel granularity without an atomic per row.
	rows int64
	// wrows accumulates the flushed rows across the morsels this scratch
	// served in one run — the per-"worker" total the Progress
	// max-rows gauge folds, with the scratch standing in for the worker.
	wrows int64
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{buf: storage.GetBatch(), keep: storage.GetBatch()}
	},
}

// getScratch returns zeroed per-worker scratch from the pool.
func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.ctr.Reset()
	sc.rows = 0
	sc.wrows = 0
	return sc
}

// putScratch clears the scratch batches (so pooled scratch does not pin
// dead tuples) and recycles it.
func putScratch(sc *scratch) {
	for i := range sc.buf[:cap(sc.buf)] {
		sc.buf[:cap(sc.buf)][i] = nil
	}
	for i := range sc.keep[:cap(sc.keep)] {
		sc.keep[:cap(sc.keep)][i] = nil
	}
	sc.buf, sc.keep = sc.buf[:0], sc.keep[:0]
	scratchPool.Put(sc)
}

// run executes n independent morsels at degree w as one task set on the
// scheduler sq (a nil sq is the shared pool with no context). Scratch is
// associated per concurrent executor rather than per goroutine: a small
// free list capped at w, created lazily, hands each executor pooled
// private scratch — its meter.Counters for §3.1 operation counts plus
// reusable tuple batches — so per-worker setup does not allocate, and
// the counters are added into the returned total on the calling
// goroutine once the set has completed. Work stealing can push
// instantaneous concurrency slightly above w; the excess executor
// briefly blocks on the free list, which is safe (every holder returns
// its scratch at morsel end) and keeps the per-"worker" gauge semantics
// intact. fn must not touch state shared between morsels and must not
// retain sc's batches past the morsel. The run's own bookkeeping (the
// scratch list, the free list and the morsel body handed to the
// scheduler) is pooled too, so a run allocates nothing of its own on a
// warm pool.
//
// pg, when non-nil, is the owning query's live Progress: workers raise
// its saturation gauges, flush sc.rows after every morsel, fold their
// row totals into the max-rows-per-worker gauge, and run under pprof
// labels (mmdb_query=<id>, mmdb_op=<op>) so CPU profiles attribute
// worker time to queries. A nil pg skips all of it — the labels, the
// gauges, and the context — so the disabled path stays allocation-free.
//
// Cancellation is observed at morsel boundaries: the pool discards a
// cancelled set's unclaimed morsels.
func run(sq *sched.Query, pg *obs.Progress, op string, w, n int, fn func(morsel int, sc *scratch)) meter.Counters {
	if n == 0 {
		return meter.Counters{}
	}
	if w > n {
		w = n
	}
	rs := runStates.Get().(*runState)
	rs.w, rs.pg, rs.fn = w, pg, fn
	if cap(rs.free) < w {
		rs.free = make(chan *scratch, w)
	}
	// The labelled context is built once per run; a morsel only sets and
	// clears its goroutine's labels, which allocates nothing (pprof.Do
	// would cost two objects a morsel).
	if pg != nil {
		rs.labelled = pprof.WithLabels(context.Background(), pprof.Labels("mmdb_query", pg.Label(), "mmdb_op", op))
	}
	st := sq.Run(w, n, rs.body)
	// Every executed morsel returned its scratch before the set
	// completed, so the free list holds exactly the scratches created.
	for range rs.scratches {
		<-rs.free
	}
	var total meter.Counters
	for _, sc := range rs.scratches {
		pg.WorkerDone(sc.wrows)
		total.Add(sc.ctr)
		putScratch(sc)
	}
	pg.AddSched(st.Steals, st.Wait)
	clear(rs.scratches)
	rs.scratches = rs.scratches[:0]
	rs.pg, rs.fn, rs.labelled = nil, nil, nil
	runStates.Put(rs)
	return total
}

// runState is one run's executor bookkeeping, recycled through
// runStates. body is the morsel method bound once, when the state is
// made, so handing it to the scheduler allocates no closure.
type runState struct {
	mu        sync.Mutex
	scratches []*scratch    // created so far, at most w
	free      chan *scratch // idle scratches; capacity ≥ w, so a return never blocks
	w         int
	pg        *obs.Progress
	fn        func(morsel int, sc *scratch)
	labelled  context.Context
	body      func(morsel int)
}

var runStates = sync.Pool{New: func() any {
	rs := new(runState)
	rs.body = rs.morsel
	return rs
}}

// morsel runs one morsel of the set on a free (or newly made) scratch.
func (rs *runState) morsel(m int) {
	var sc *scratch
	select {
	case sc = <-rs.free:
	default:
		rs.mu.Lock()
		if len(rs.scratches) < rs.w {
			sc = getScratch()
			rs.scratches = append(rs.scratches, sc)
			rs.mu.Unlock()
			rs.pg.WorkerStart()
		} else {
			rs.mu.Unlock()
			sc = <-rs.free
		}
	}
	if rs.labelled != nil {
		pprof.SetGoroutineLabels(rs.labelled)
	}
	rs.fn(m, sc)
	if rs.labelled != nil {
		pprof.SetGoroutineLabels(context.Background())
	}
	if d := sc.rows; d != 0 {
		sc.rows = 0
		sc.wrows += d
		rs.pg.AddRows(d)
	}
	rs.free <- sc
}

// Chunked is a tuple source divisible into independently scannable
// chunks. Chunks(n) returns up to n sources that together cover the
// original exactly once, in source order.
type Chunked interface {
	exec.Source
	Chunks(n int) []exec.Source
}

// RelationSource adapts a relation into a Chunked source at partition
// granularity (§2.1's unit of recovery and locking doubles as the
// morsel). The caller must hold at least a shared lock on the relation.
type RelationSource struct{ Rel *storage.Relation }

// Len returns the live tuple count.
func (s RelationSource) Len() int { return s.Rel.Cardinality() }

// ScanBatches hands out every live tuple in partition order.
func (s RelationSource) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	partitionRun(s.Rel.Partitions()).ScanBatches(buf, fn)
}

// Chunks groups the relation's partitions into at most n contiguous runs
// of near-equal partition count. The runs are carved from one array and
// handed out by pointer, as every Chunks here does: boxing each into a
// Source would allocate once a morsel.
func (s RelationSource) Chunks(n int) []exec.Source {
	parts := s.Rel.Partitions()
	if len(parts) == 0 {
		return nil
	}
	if n > len(parts) {
		n = len(parts)
	}
	out, runs := make([]exec.Source, n), make([]partitionRun, n)
	for i := range out {
		runs[i] = parts[len(parts)*i/n : len(parts)*(i+1)/n]
		out[i] = &runs[i]
	}
	return out
}

// partitionRun is a contiguous run of relation partitions as a Source.
type partitionRun []*storage.Partition

// Len returns the live tuple count of the run.
func (r partitionRun) Len() int {
	n := 0
	for _, p := range r {
		n += p.Live()
	}
	return n
}

// ScanBatches hands out the run's live tuples in partition order,
// gathered into buf; blocks run full across partition boundaries.
func (r partitionRun) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	buf, ok := buf[:0], true
	for _, p := range r {
		if buf, ok = p.Gather(buf, fn); !ok {
			return
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// ListSource adapts one column of a temp list into a Chunked source —
// the pipeline where a selection result feeds a parallel join.
type ListSource struct {
	List   *storage.TempList
	Column int
}

// Len returns the row count.
func (s ListSource) Len() int { return s.List.Len() }

// ScanBatches hands the column out the way exec.ListColumn does, so a
// serial consumer of the whole list (a one-worker pipeline's driver)
// takes a single-source list's chunks zero-copy.
func (s ListSource) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	exec.ListColumn{List: s.List, Column: s.Column}.ScanBatches(buf, fn)
}

// Chunks splits the rows into at most n near-equal contiguous ranges.
func (s ListSource) Chunks(n int) []exec.Source {
	total := s.List.Len()
	if total == 0 {
		return nil
	}
	if n > total {
		n = total
	}
	out, ranges := make([]exec.Source, n), make([]listRange, n)
	for i := range out {
		ranges[i] = listRange{list: s.List, col: s.Column, lo: total * i / n, hi: total * (i + 1) / n}
		out[i] = &ranges[i]
	}
	return out
}

// listRange is rows [lo, hi) of one temp-list column.
type listRange struct {
	list   *storage.TempList
	col    int
	lo, hi int
}

func (r listRange) Len() int { return r.hi - r.lo }

// ScanBatches gathers the column of rows [lo, hi) into buf.
func (r listRange) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	if cap(buf) == 0 {
		buf = make(storage.TupleBatch, 0, storage.BatchSize)
	}
	buf = buf[:0]
	for i := r.lo; i < r.hi; i++ {
		buf = append(buf, r.list.Row(i)[r.col])
		if len(buf) == cap(buf) {
			if !fn(buf) {
				return
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// SliceSource is a materialized tuple slice as a Chunked source — the
// fallback for sources with no native partition structure.
type SliceSource []*storage.Tuple

// Len returns the slice length.
func (s SliceSource) Len() int { return len(s) }

// ScanBatches hands out the slice zero-copy: blocks are subslices of the
// materialized slice itself. fn must not retain or mutate a block.
func (s SliceSource) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	scanPartBatches(s, fn)
}

// Chunks splits the slice into at most n near-equal contiguous ranges.
func (s SliceSource) Chunks(n int) []exec.Source {
	if len(s) == 0 {
		return nil
	}
	if n > len(s) {
		n = len(s)
	}
	out, runs := make([]exec.Source, n), make([]SliceSource, n)
	for i := range out {
		runs[i] = s[len(s)*i/n : len(s)*(i+1)/n]
		out[i] = &runs[i]
	}
	return out
}

// mergeListsRecycle combines per-morsel partial lists in morsel order,
// for parts the operator owns outright: each part's arena chunks go back
// to the storage chunk pool as soon as its rows are copied out, so a
// w-worker operator's transient lists stop costing w× the result's
// memory. Parts must have no outstanding views; it panics only on
// programmer error (mismatched descriptors).
func mergeListsRecycle(desc storage.Descriptor, parts []*storage.TempList) *storage.TempList {
	out, err := storage.MergeListsRecycle(desc, parts)
	if err != nil {
		panic(err)
	}
	return out
}
