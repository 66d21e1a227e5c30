package parallel

import (
	"slices"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/radix"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Parallel grouped aggregation: partial-aggregate, then merge. Every
// aggregate the engine supports (COUNT/SUM/MIN/MAX/AVG) is decomposable,
// so each worker folds its contiguous row chunk into a private flat
// agg table — no shared mutable state, no locks — and the partials merge
// through one table at the barrier (agg.Grouper.MergeInto). The merge
// touches one entry per (worker, group), so for G groups and W workers
// it costs O(W·G) — independent of the input cardinality the workers
// just split.

// HashAgg aggregates list grouped by groupCols on w workers. w <= 1 (or
// a small input) delegates to the serial grouper, which applies the
// radix-partitioned plan in bits; the parallel path uses per-worker flat
// tables (each worker's chunk is 1/w of the input, so its table is
// proportionally smaller — the same cache effect the radix plan buys
// serially). The result aliases g's scratch, exactly like g.Run.
func HashAgg(sq *sched.Query, pg *obs.Progress, g *agg.Grouper, list *storage.TempList, groupCols []int, specs []agg.Spec, bits []uint, w int, m *meter.Counters) agg.Result {
	n := list.Len()
	if w <= 1 || n == 0 {
		return g.Run(list, groupCols, specs, bits, m)
	}
	partials := make([]agg.Result, w)
	workers := make([]*agg.Grouper, w)
	folded := run(sq, pg, "agg", w, w, func(chunk int, sc *scratch) {
		lo, hi := n*chunk/w, n*(chunk+1)/w
		wg := agg.Get()
		workers[chunk] = wg
		partials[chunk] = wg.RunRange(list, lo, hi, groupCols, specs, &sc.ctr)
		sc.rows += int64(hi - lo)
	})
	// Barrier: all partials complete. Fold worker counters, then merge
	// the per-worker group tables into the caller's grouper. The serial
	// run counts Groups once per distinct group; here each worker counted
	// its local groups, so only the merge's Groups tally stands.
	folded.Groups = 0
	m.Add(folded)
	res := g.MergeInto(list, groupCols, specs, partials, m)
	for _, wg := range workers {
		agg.Put(wg)
	}
	return res
}

// Distinct is §3.4 duplicate elimination as a keys-only run of the
// aggregation engine: every output column of list is a group key and no
// aggregate is folded, so the engine's group representatives — the first
// input row of each distinct key, on the flat, the partitioned and the
// per-worker-merge shapes alike — are the survivors. Sorted ascending
// they are exec.ProjectHash's output row for row, and they are taken from
// list (TempList.Take, which carries any computed columns along): no key
// is materialized and no relation is built. g, bits and w are HashAgg's.
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
