package plan

import "math"

// Join-order planning for n-way join graphs.
//
// The executor runs every multi-join as a left-deep pipeline: the first
// relation in the order (the driver) is streamed in batches through a
// sequence of hash tables, one built over each remaining relation. Join
// order therefore decides two things: which relation is never built
// (the driver — streaming is much cheaper than building), and how large
// the intermediate stream is at each probe. Following Liu & Blanas
// ("Forecasting the cost of processing multi-join queries via hashing"),
// both are forecast from per-relation cardinalities and join-column
// distinct-value estimates alone — in main memory there is no I/O noise
// to hide behind, so these two inputs predict hash-join cost well.
//
// For graphs of up to DPMaxRels relations the planner enumerates
// left-deep orders exactly with dynamic programming over connected
// subgraphs; larger graphs fall back to a greedy min-cost-edge
// expansion. Disconnected graphs (no ON-chain linking every relation)
// fall back to the as-written order.

// DPMaxRels is the largest join graph the exact DP enumerator handles;
// beyond it the O(2^n · n) subset sweep stops being free and the greedy
// expansion takes over.
const DPMaxRels = 8

// JoinGraphRel is one relation in a join graph. Rows is the estimated
// cardinality entering the join — after local predicates for the
// filtered relation, the raw table cardinality otherwise.
type JoinGraphRel struct {
	Name string
	Rows int
}

// JoinGraphEdge is one equijoin predicate between relations A and B.
// NDVA/NDVB are distinct-value estimates for the two join columns; zero
// or negative means unknown, which the model treats as "unique keys"
// (NDV = row count) — the conservative choice that never inflates an
// intermediate forecast.
type JoinGraphEdge struct {
	A, B       int
	NDVA, NDVB float64
}

// JoinGraph is the planning view of an n-way join: relations plus the
// equijoin predicates connecting them. Cyclic graphs are allowed; every
// edge inside the joined subset contributes its selectivity.
type JoinGraph struct {
	Rels  []JoinGraphRel
	Edges []JoinGraphEdge
}

// JoinOrderResult is a chosen (or forecast) join order. Order lists
// relation indices driver-first; EstRows[i] is the forecast cardinality
// of the intermediate after joining Order[:i+1] (EstRows[0] is the
// driver's own cardinality). Cost is the model's total in abstract
// data-move units — comparable across orders of the same graph only.
type JoinOrderResult struct {
	Order     []int
	EstRows   []float64
	Cost      float64
	Algorithm string // "dp", "greedy", "as-written" or "forced"
}

// ChooseJoinOrder picks a join order for the graph: exact DP for small
// graphs, greedy beyond DPMaxRels, as-written when the graph is
// disconnected. The result always covers every relation exactly once.
func ChooseJoinOrder(g JoinGraph, cfg RadixConfig) JoinOrderResult {
	c := cfg.withDefaults()
	n := len(g.Rels)
	switch n {
	case 0:
		return JoinOrderResult{Algorithm: "as-written"}
	case 1:
		r := forecast(g, c, []int{0})
		r.Algorithm = "as-written"
		return r
	}
	if n <= DPMaxRels {
		if order, ok := dpOrder(g, c); ok {
			r := forecast(g, c, order)
			r.Algorithm = "dp"
			return r
		}
	} else if order, ok := greedyOrder(g, c); ok {
		r := forecast(g, c, order)
		r.Algorithm = "greedy"
		return r
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r := forecast(g, c, order)
	r.Algorithm = "as-written"
	return r
}

// ForecastOrder prices a forced order with the same model the
// enumerator uses, so EXPLAIN and the decision audit can report forecast
// rows for any execution order.
func ForecastOrder(g JoinGraph, cfg RadixConfig, order []int) JoinOrderResult {
	r := forecast(g, cfg.withDefaults(), order)
	r.Algorithm = "forced"
	return r
}

// hashBuildCost models inserting rows build rows into a hash table.
// Each insert is ~2 data moves (hash + link); past the radix crossover
// the table no longer fits in cache and the partitioning passes
// ChooseRadixBits would schedule each add one more sequential sweep.
func hashBuildCost(rows float64, c RadixConfig) float64 {
	if rows <= 0 {
		return 0
	}
	passes := float64(len(ChooseRadixBits(int(rows), c)))
	return rows * (2 + passes)
}

// hashProbeCost models probing a build-side table of buildRows with
// probes input rows. A table past the L2 budget misses cache on
// (roughly) every bucket dereference, doubling the per-probe cost —
// the same working-set threshold the radix-bits chooser targets.
func hashProbeCost(probes, buildRows float64, c RadixConfig) float64 {
	if probes <= 0 {
		return 0
	}
	spill := 1.0
	if buildRows*float64(c.EntryBytes) > float64(c.L2Bytes) {
		spill = 2.0
	}
	return probes * spill
}

func relRows(g JoinGraph, i int) float64 {
	if r := g.Rels[i].Rows; r > 0 {
		return float64(r)
	}
	return 0
}

// edgeSel is the forecast selectivity of one equijoin edge: 1/max NDV
// of the two join columns, with unknown NDVs defaulting to the side's
// cardinality (unique keys).
func edgeSel(g JoinGraph, e JoinGraphEdge) float64 {
	na, nb := e.NDVA, e.NDVB
	if na <= 0 {
		na = math.Max(relRows(g, e.A), 1)
	}
	if nb <= 0 {
		nb = math.Max(relRows(g, e.B), 1)
	}
	d := math.Max(na, nb)
	if d < 1 {
		d = 1
	}
	return 1 / d
}

// selInto multiplies the selectivities of every edge linking rel to the
// joined set mask. connected reports whether at least one edge does.
func selInto(g JoinGraph, rel int, mask uint32) (sel float64, connected bool) {
	sel = 1
	for _, e := range g.Edges {
		other := -1
		switch {
		case e.A == rel && mask&(1<<uint(e.B)) != 0:
			other = e.B
		case e.B == rel && mask&(1<<uint(e.A)) != 0:
			other = e.A
		}
		if other >= 0 {
			sel *= edgeSel(g, e)
			connected = true
		}
	}
	return sel, connected
}

// stepCost prices extending an intermediate of curRows rows by joining
// relation rel (selectivity sel into the current set): build rel's hash
// table, probe it with the stream, and emit the forecast output.
func stepCost(g JoinGraph, c RadixConfig, curRows float64, rel int, sel float64) (cost, outRows float64) {
	br := relRows(g, rel)
	outRows = curRows * br * sel
	cost = hashBuildCost(br, c) + hashProbeCost(curRows, br, c) + outRows
	return cost, outRows
}

// forecast walks an order through the cost model, producing per-step
// intermediate estimates and the total cost. Steps not connected to the
// joined prefix are priced as cross products (selectivity 1).
func forecast(g JoinGraph, c RadixConfig, order []int) JoinOrderResult {
	res := JoinOrderResult{Order: order, EstRows: make([]float64, len(order))}
	if len(order) == 0 {
		return res
	}
	cur := relRows(g, order[0])
	res.EstRows[0] = cur
	res.Cost = cur // streaming the driver costs one pass over it
	var mask uint32 = 1 << uint(order[0])
	for i := 1; i < len(order); i++ {
		rel := order[i]
		sel, _ := selInto(g, rel, mask)
		cost, out := stepCost(g, c, cur, rel, sel)
		res.Cost += cost
		cur = out
		res.EstRows[i] = cur
		mask |= 1 << uint(rel)
	}
	return res
}

// dpOrder enumerates left-deep orders exactly: dp over subsets, where a
// subset may only be extended by a relation connected to it (no cross
// products). Returns ok=false when the graph is disconnected and no
// order covers every relation.
func dpOrder(g JoinGraph, c RadixConfig) ([]int, bool) {
	n := len(g.Rels)
	size := 1 << uint(n)
	const inf = math.MaxFloat64
	cost := make([]float64, size)
	rows := make([]float64, size)
	last := make([]int8, size)
	prev := make([]uint32, size)
	for i := range cost {
		cost[i] = inf
	}
	for i := 0; i < n; i++ {
		m := 1 << uint(i)
		cost[m] = relRows(g, i)
		rows[m] = relRows(g, i)
		last[m] = int8(i)
	}
	for mask := 1; mask < size; mask++ {
		if cost[mask] == inf {
			continue
		}
		for r := 0; r < n; r++ {
			bit := 1 << uint(r)
			if mask&bit != 0 {
				continue
			}
			sel, connected := selInto(g, r, uint32(mask))
			if !connected {
				continue
			}
			sc, out := stepCost(g, c, rows[mask], r, sel)
			next := mask | bit
			if total := cost[mask] + sc; total < cost[next] {
				cost[next] = total
				rows[next] = out
				last[next] = int8(r)
				prev[next] = uint32(mask)
			}
		}
	}
	full := size - 1
	if cost[full] == inf {
		return nil, false
	}
	order := make([]int, n)
	for m, i := full, n-1; i >= 0; i-- {
		order[i] = int(last[m])
		m = int(prev[m])
	}
	return order, true
}

// greedyOrder seeds the order with the cheapest single join (trying
// both driver choices for every edge) and then repeatedly appends the
// connected relation with the lowest step cost. O(n · edges) per step.
func greedyOrder(g JoinGraph, c RadixConfig) ([]int, bool) {
	n := len(g.Rels)
	if len(g.Edges) == 0 {
		return nil, false
	}
	bestCost := math.MaxFloat64
	var bestDriver, bestBuild int
	for _, e := range g.Edges {
		for _, pair := range [2][2]int{{e.A, e.B}, {e.B, e.A}} {
			driver, build := pair[0], pair[1]
			sel := edgeSel(g, e)
			sc, _ := stepCost(g, c, relRows(g, driver), build, sel)
			if total := relRows(g, driver) + sc; total < bestCost {
				bestCost = total
				bestDriver, bestBuild = driver, build
			}
		}
	}
	order := []int{bestDriver, bestBuild}
	var mask uint32 = 1<<uint(bestDriver) | 1<<uint(bestBuild)
	cur := forecast(g, c, order).EstRows[1]
	for len(order) < n {
		best := -1
		bestSC, bestOut := math.MaxFloat64, 0.0
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) != 0 {
				continue
			}
			sel, connected := selInto(g, r, mask)
			if !connected {
				continue
			}
			sc, out := stepCost(g, c, cur, r, sel)
			if sc < bestSC {
				best, bestSC, bestOut = r, sc, out
			}
		}
		if best < 0 {
			return nil, false // disconnected remainder
		}
		order = append(order, best)
		mask |= 1 << uint(best)
		cur = bestOut
	}
	return order, true
}
