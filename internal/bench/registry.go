package bench

import "fmt"

// All lists every reproducible exhibit in presentation order.
var All = []Experiment{
	{ID: "graph1", Exhibit: "Graph 1 — Index Search", Run: Graph1IndexSearch},
	{ID: "graph2", Exhibit: "Graph 2 — Query Mix (60/20/20, 80/10/10, 40/30/30)", Run: Graph2QueryMix},
	{ID: "storage", Exhibit: "§3.2.2 — Storage Cost summary", Run: StorageCost},
	{ID: "table1", Exhibit: "Table 1 — Index Study Results", Run: Table1},
	{ID: "graph3", Exhibit: "Graph 3 — Distribution of Duplicate Values", Run: Graph3Distribution},
	{ID: "graph4", Exhibit: "Graph 4 — Join Test 1: Vary Cardinality", Run: Graph4VaryCardinality},
	{ID: "graph5", Exhibit: "Graph 5 — Join Test 2: Vary Inner Cardinality", Run: Graph5VaryInner},
	{ID: "graph6", Exhibit: "Graph 6 — Join Test 3: Vary Outer Cardinality", Run: Graph6VaryOuter},
	{ID: "graph7", Exhibit: "Graph 7 — Join Test 4: Vary Duplicates (skewed)", Run: Graph7DupSkewed},
	{ID: "graph8", Exhibit: "Graph 8 — Join Test 5: Vary Duplicates (uniform)", Run: Graph8DupUniform},
	{ID: "graph9", Exhibit: "Graph 9 — Join Test 6: Vary Semijoin Selectivity", Run: Graph9Semijoin},
	{ID: "graph10", Exhibit: "Graph 10 — Nested Loops Join", Run: Graph10NestedLoops},
	{ID: "graph11", Exhibit: "Graph 11 — Project Test 1: Vary Cardinality", Run: Graph11ProjectCardinality},
	{ID: "graph12", Exhibit: "Graph 12 — Project Test 2: Vary Duplicate Percentage", Run: Graph12ProjectDuplicates},
	{ID: "ablation-cutoff", Exhibit: "Ablation — insertion-sort cutoff", Run: AblationSortCutoff},
	{ID: "ablation-ttree-gap", Exhibit: "Ablation — T Tree occupancy gap", Run: AblationTTreeGap},
	{ID: "ablation-build", Exhibit: "Ablation — join index build costs", Run: AblationJoinBuild},
	{ID: "ablation-ptrjoin", Exhibit: "Ablation — pointer vs value foreign keys", Run: AblationPointerJoin},
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
