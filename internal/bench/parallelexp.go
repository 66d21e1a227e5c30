package bench

import (
	"fmt"
	"runtime"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The parallel sweep is not a paper exhibit — the 1986 study is strictly
// single-threaded — but the modern counterpart of its question: once disk
// I/O is gone (the paper's premise) and the serial algorithms are
// CPU-bound, how much does partition-parallelism buy? The sweep runs the
// same ≥100k-tuple join serially and with the partition-parallel
// operators at increasing worker counts, verifying the result cardinality
// is identical at every point.

// parallelWorkerSweep yields the worker counts to sweep: 1 (the exact
// serial algorithms), doublings, and GOMAXPROCS.
func parallelWorkerSweep(max int) []int {
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	ws := []int{1}
	for w := 2; w < max; w *= 2 {
		ws = append(ws, w)
	}
	if max > 1 {
		ws = append(ws, max)
	}
	return ws
}

// ParallelJoinSweep measures serial vs partition-parallel execution of
// the hash and sort-merge joins over a keys/keys join, plus the parallel
// selection scan and duplicate-eliminating projection, at 1..GOMAXPROCS
// workers.
func ParallelJoinSweep(env Env) []Series {
	n := env.N(100000)
	rng := env.Rng()
	colOuter, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: 0, Sigma: workload.NearUniform}, rng)
	if err != nil {
		panic(err)
	}
	colInner, err := workload.BuildDerived(workload.Spec{Cardinality: n, DuplicatePct: 0, Sigma: workload.NearUniform}, colOuter, 100, rng)
	if err != nil {
		panic(err)
	}
	to := parallel.SliceSource(buildRelation("r1", colOuter.Values))
	ti := parallel.SliceSource(buildRelation("r2", colInner.Values))

	join := Series{
		ID:     "parallel-join",
		Title:  fmt.Sprintf("Parallel sweep — Hash and Sort Merge join (|R1| = |R2| = %d, keys)", n),
		XLabel: "workers",
		YLabel: "seconds",
		Names:  []string{"Hash Join", "Sort Merge"},
	}
	var rowsOut int
	spec := exec.JoinSpec{
		OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0,
		Discard: true, RowsOut: &rowsOut,
	}
	serialRows := -1
	check := func(method string, w int) {
		if serialRows == -1 {
			serialRows = rowsOut
		}
		if rowsOut != serialRows {
			panic(fmt.Sprintf("bench: %s at %d workers emitted %d rows, serial emitted %d",
				method, w, rowsOut, serialRows))
		}
	}
	for _, w := range parallelWorkerSweep(env.Parallelism) {
		w := w
		hash := timeBest(func() { parallel.HashJoin(to, ti, spec, w) })
		check("Hash Join", w)
		sortm := timeBest(func() { parallel.SortMergeJoin(to, ti, spec, w) })
		check("Sort Merge", w)
		join.Add(fmt.Sprintf("%d", w), hash, sortm)
	}
	join.Notes = append(join.Notes,
		"workers=1 is the paper's exact serial algorithm; identical result cardinality is asserted at every point",
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))

	// Scan + distinct: the other two parallel operators over one relation.
	colDup, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: 80, Sigma: workload.Skewed}, rng)
	if err != nil {
		panic(err)
	}
	tuples := buildRelation("r3", colDup.Values)
	src := parallel.SliceSource(tuples)
	list := storage.MustTempList(storage.Descriptor{
		Sources: []string{"r3"},
		Cols:    []storage.ColRef{{Source: 0, Field: 0, Name: "val"}},
	})
	for _, tp := range tuples {
		list.Append(storage.Row{tp})
	}
	selSpec := exec.SelectSpec{RelName: "r3", Schema: intSchema()}
	median := colDup.Values[len(colDup.Values)/2]
	pred := func(tp *storage.Tuple) bool { return tp.Field(0).Int() < median }

	unary := Series{
		ID:     "parallel-scan",
		Title:  fmt.Sprintf("Parallel sweep — selection scan and DISTINCT (|R| = %d, 80%% duplicates)", n),
		XLabel: "workers",
		YLabel: "seconds",
		Names:  []string{"Select Scan", "Distinct"},
	}
	var scanRows, distinctRows int
	g := agg.Get()
	defer agg.Put(g)
	for _, w := range parallelWorkerSweep(env.Parallelism) {
		w := w
		var sl, dl *storage.TempList
		scan := timeBest(func() { sl = parallel.SelectScan(src, pred, selSpec, w) })
		proj := timeBest(func() { dl, _ = parallel.Distinct(nil, nil, g, list, nil, w, nil) })
		if w == 1 {
			scanRows, distinctRows = sl.Len(), dl.Len()
		} else if sl.Len() != scanRows || dl.Len() != distinctRows {
			panic(fmt.Sprintf("bench: parallel scan/distinct rows %d/%d, serial %d/%d",
				sl.Len(), dl.Len(), scanRows, distinctRows))
		}
		unary.Add(fmt.Sprintf("%d", w), scan, proj)
	}
	unary.Notes = append(unary.Notes,
		"DISTINCT is the keys-only run of the aggregation engine; its output is exec.ProjectHash's, row for row")
	return []Series{join, unary}
}
