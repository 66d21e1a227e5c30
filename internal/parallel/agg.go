package parallel

import (
	"slices"
	"sync"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/radix"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Parallel grouped aggregation: partial-aggregate, then merge, both
// phases on every worker. Every aggregate the engine supports
// (COUNT/SUM/MIN/MAX/AVG) is decomposable, so in the first phase each
// worker folds its contiguous row chunk into a private flat agg table —
// no shared mutable state, no locks. In the second, the partial groups
// are split into w merge partitions by the top bits of their key hash
// (agg.Grouper.MergePartition), and merger j folds partition j of every
// partial, in chunk order, into its own table, reading each group's hash
// and key from the partial's cached arrays. A key lives in one partition
// only, so the mergers share nothing either; the coordinator concatenates
// their results in partition order (agg.Grouper.Concat). For G groups
// and W workers the merge touches at most W·G partial groups, spread over
// W mergers — independent of the input cardinality the workers just
// split, and with no serial pass over it.

// aggCall is one parallel HashAgg's state, pooled with its two phase
// bodies bound once, so a warm call allocates nothing of its own.
type aggCall struct {
	list      *storage.TempList
	groupCols []int
	specs     []agg.Spec
	n, w      int
	workers   []*agg.Grouper // per chunk, the grouper holding its partial
	partials  []agg.Result
	mergers   []*agg.Grouper // per merge partition; mergers[0] is the caller's
	merged    []agg.Result
	partial   func(chunk int, sc *scratch)
	merge     func(part int, sc *scratch)
}

var aggCalls = sync.Pool{New: func() any {
	c := new(aggCall)
	c.partial, c.merge = c.runPartial, c.runMerge
	return c
}}

// runPartial is the first phase's morsel: chunk's rows into a private table.
func (c *aggCall) runPartial(chunk int, sc *scratch) {
	lo, hi := c.n*chunk/c.w, c.n*(chunk+1)/c.w
	c.workers[chunk] = agg.Get()
	c.partials[chunk] = c.workers[chunk].RunRange(c.list, lo, hi, c.groupCols, c.specs, &sc.ctr)
	sc.rows += int64(hi - lo)
}

// runMerge is the second phase's morsel: merge partition part of every
// partial. The caller's grouper merges partition 0, so its result is the
// head Concat appends the others to.
func (c *aggCall) runMerge(part int, sc *scratch) {
	if part > 0 {
		c.mergers[part] = agg.Get()
	}
	c.merged[part] = c.mergers[part].MergePartition(c.partials, part, c.w, len(c.groupCols), c.specs, &sc.ctr)
}

// HashAgg aggregates list grouped by groupCols on w workers. w <= 1 (or
// an empty input) delegates to the serial grouper, which applies the
// radix-partitioned plan in bits; the parallel path uses per-worker flat
// tables (each worker's chunk is 1/w of the input, so its table is
// proportionally smaller — the same cache effect the radix plan buys
// serially) and merges them in w hash partitions. A group's
// representative is its first occurrence in the input either way. The
// result aliases g's scratch, exactly like g.Run.
func HashAgg(sq *sched.Query, pg *obs.Progress, g *agg.Grouper, list *storage.TempList, groupCols []int, specs []agg.Spec, bits []uint, w int, m *meter.Counters) agg.Result {
	n := list.Len()
	if w <= 1 || n == 0 {
		return g.Run(list, groupCols, specs, bits, m)
	}
	c := aggCalls.Get().(*aggCall)
	c.list, c.groupCols, c.specs, c.n, c.w = list, groupCols, specs, n, w
	c.workers = slices.Grow(c.workers[:0], w)[:w]
	c.partials = slices.Grow(c.partials[:0], w)[:w]
	c.mergers = slices.Grow(c.mergers[:0], w)[:w]
	c.merged = slices.Grow(c.merged[:0], w)[:w]
	c.mergers[0] = g
	// The serial run counts Groups once per distinct group; each worker
	// counted its chunk's groups, so only the mergers' tallies stand.
	partial := run(sq, pg, "agg", w, w, c.partial)
	partial.Groups = 0
	m.Add(partial)
	m.Add(run(sq, pg, "agg-merge", w, w, c.merge))
	var res agg.Result
	if sq.Err() == nil { // a cancelled set discards morsels: its results are incomplete
		res = g.Concat(c.merged, len(specs))
	}
	for _, wg := range c.workers {
		if wg != nil {
			agg.Put(wg)
		}
	}
	for _, mg := range c.mergers[1:] {
		if mg != nil {
			agg.Put(mg)
		}
	}
	clear(c.workers)
	clear(c.partials)
	clear(c.mergers)
	clear(c.merged)
	c.list, c.groupCols, c.specs = nil, nil, nil
	aggCalls.Put(c)
	return res
}

// Distinct is §3.4 duplicate elimination as a keys-only run of the
// aggregation engine: every output column of list is a group key and no
// aggregate is folded, so the engine's group representatives — the first
// input row of each distinct key, on the flat, the partitioned and the
// parallel partitioned-merge shapes alike — are the survivors. Sorted
// ascending they are exec.ProjectHash's output row for row, and they are
// taken from list (TempList.Take, which carries any computed columns
// along): no key is materialized and no relation is built. g, bits and w
// are HashAgg's.
func Distinct(sq *sched.Query, pg *obs.Progress, g *agg.Grouper, list *storage.TempList, bits []uint, w int, m *meter.Counters) (*storage.TempList, radix.Stats) {
	keys := make([]int, len(list.Descriptor().Cols))
	for i := range keys {
		keys[i] = i
	}
	res := HashAgg(sq, pg, g, list, keys, nil, bits, w, m)
	slices.Sort(res.Reps)
	return list.Take(res.Reps), res.Stats
}

// TopK returns the first k row ordinals of list in ORDER BY order using
// w workers: each worker streams its contiguous chunk through a private
// bounded heap, and the surviving ≤ w×k candidates merge through one
// final heap. w <= 1 delegates to the serial operator; the output is
// identical (the ordinal tie-break makes the order deterministic) either
// way.
func TopK(sq *sched.Query, pg *obs.Progress, list *storage.TempList, keys []exec.OrderKey, k, w int, m *meter.Counters) []int32 {
	n := list.Len()
	if w <= 1 || n == 0 || k <= 0 {
		return exec.TopKRows(list, keys, k, m)
	}
	cands := make([][]int32, w)
	folded := run(sq, pg, "topk", w, w, func(chunk int, sc *scratch) {
		lo, hi := n*chunk/w, n*(chunk+1)/w
		cands[chunk] = exec.TopKRowsRange(list, keys, k, lo, hi, &sc.ctr)
		sc.rows += int64(hi - lo)
	})
	m.Add(folded)
	return exec.TopKMergeRows(list, keys, k, cands, m)
}
