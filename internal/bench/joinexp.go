package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/workload"
)

// The join study (§3.3): four practical methods (Hash Join, Tree Join,
// Sort Merge, Tree Merge) across six relation compositions, plus the
// nested-loops baseline. Relations are accessed through array indices
// (§3.3.2); the Tree Join and Tree Merge assume their T Trees already
// exist, while the Hash Join and Sort Merge pay their build costs.

var joinMethodNames = []string{"Hash Join", "Tree Join", "Sort Merge", "Tree Merge"}

// joinCase is one point of a join test.
type joinCase struct {
	nOuter, nInner int
	dup            float64
	sigma          float64
	semijoin       float64
	discard        bool // count result rows instead of materializing
}

// prepared holds the untimed setup for one case: relations, scan indices
// and the "existing" T Trees.
type prepared struct {
	outer, inner         *sortedarray.Array[*storage.Tuple]
	outerTree, innerTree *ttree.Tree[*storage.Tuple]
	rowsOut              int
}

// prepareJoin builds the relation pair: the smaller relation draws its
// values from the larger to hit the requested semijoin selectivity
// (§3.3.1).
func prepareJoin(c joinCase, rng *rand.Rand) *prepared {
	specOuter := workload.Spec{Cardinality: c.nOuter, DuplicatePct: c.dup, Sigma: c.sigma}
	specInner := workload.Spec{Cardinality: c.nInner, DuplicatePct: c.dup, Sigma: c.sigma}
	var colOuter, colInner workload.Column
	var err error
	if c.nOuter >= c.nInner {
		if colOuter, err = workload.Build(specOuter, rng); err != nil {
			panic(err)
		}
		if colInner, err = workload.BuildDerived(specInner, colOuter, c.semijoin, rng); err != nil {
			panic(err)
		}
	} else {
		if colInner, err = workload.Build(specInner, rng); err != nil {
			panic(err)
		}
		if colOuter, err = workload.BuildDerived(specOuter, colInner, c.semijoin, rng); err != nil {
			panic(err)
		}
	}
	to := buildRelation("r1", colOuter.Values)
	ti := buildRelation("r2", colInner.Values)
	p := &prepared{
		outer: tupleindex.BuildArray(tupleindex.Options{Field: 0}, to),
		inner: tupleindex.BuildArray(tupleindex.Options{Field: 0}, ti),
	}
	p.outerTree = tupleindex.NewTTree(tupleindex.Options{Field: 0})
	for _, tp := range to {
		p.outerTree.Insert(tp)
	}
	p.innerTree = tupleindex.NewTTree(tupleindex.Options{Field: 0})
	for _, tp := range ti {
		p.innerTree.Insert(tp)
	}
	return p
}

func (p *prepared) spec(discard bool) exec.JoinSpec {
	return exec.JoinSpec{
		OuterName: "r1", InnerName: "r2",
		OuterField: 0, InnerField: 0,
		Discard: discard, RowsOut: &p.rowsOut,
	}
}

// runJoinCase measures the four practical join methods on one case. Fast
// runs are repeated and the minimum taken, so allocator and cache noise
// does not reorder close curves.
func runJoinCase(c joinCase, rng *rand.Rand) []float64 {
	p := prepareJoin(c, rng)
	spec := p.spec(c.discard)
	so := p.outer
	si := p.inner
	hash := timeBest(func() { exec.HashJoin(so, si, spec) })
	tree := timeBest(func() { exec.TreeJoin(so, p.innerTree, spec) })
	sortm := timeBest(func() { exec.SortMergeJoin(so, si, spec) })
	treem := timeBest(func() { exec.TreeMergeJoin(p.outerTree, p.innerTree, spec) })
	return []float64{hash, tree, sortm, treem}
}

// Graph4VaryCardinality reproduces Join Test 1: |R1| = |R2|, keys, 100%
// semijoin selectivity.
func Graph4VaryCardinality(env Env) []Series {
	s := Series{
		ID:     "graph4",
		Title:  "Join Test 1 — Vary Cardinality (|R1| = |R2|, 0% duplicates, 100% semijoin)",
		XLabel: "|R1| = |R2|",
		YLabel: "seconds",
		Names:  joinMethodNames,
	}
	rng := env.Rng()
	for _, frac := range []float64{0.125, 0.25, 0.5, 0.75, 1.0} {
		n := env.N(int(30000 * frac))
		ys := runJoinCase(joinCase{nOuter: n, nInner: n, sigma: workload.NearUniform, semijoin: 100}, rng)
		s.Add(fmt.Sprintf("%d", n), ys...)
	}
	s.Notes = append(s.Notes,
		"expected: Tree Merge best (indices exist); Hash Join next; Sort Merge worst (build+sort cost)")
	return []Series{s}
}

// Graph5VaryInner reproduces Join Test 2: |R2| varies from 1-100% of
// |R1| = 30,000.
func Graph5VaryInner(env Env) []Series {
	s := Series{
		ID:     "graph5",
		Title:  "Join Test 2 — Vary Inner Cardinality (|R1| = 30k, keys, 100% semijoin)",
		XLabel: "|R2| as % of |R1|",
		YLabel: "seconds",
		Names:  joinMethodNames,
	}
	rng := env.Rng()
	n1 := env.N(30000)
	for _, pct := range []int{1, 25, 50, 75, 100} {
		n2 := n1 * pct / 100
		if n2 < 1 {
			n2 = 1
		}
		ys := runJoinCase(joinCase{nOuter: n1, nInner: n2, sigma: workload.NearUniform, semijoin: 100}, rng)
		s.Add(fmt.Sprintf("%d%%", pct), ys...)
	}
	s.Notes = append(s.Notes, "expected: same ordering as Test 1 — |R1| index probes dominate")
	return []Series{s}
}

// Graph6VaryOuter reproduces Join Test 3: |R1| varies from 1-100% of
// |R2| = 30,000; the Tree Join wins for small outers.
func Graph6VaryOuter(env Env) []Series {
	s := Series{
		ID:     "graph6",
		Title:  "Join Test 3 — Vary Outer Cardinality (|R2| = 30k, keys, 100% semijoin)",
		XLabel: "|R1| as % of |R2|",
		YLabel: "seconds",
		Names:  joinMethodNames,
	}
	rng := env.Rng()
	n2 := env.N(30000)
	for _, pct := range []int{1, 25, 50, 75, 100} {
		n1 := n2 * pct / 100
		if n1 < 1 {
			n1 = 1
		}
		ys := runJoinCase(joinCase{nOuter: n1, nInner: n2, sigma: workload.NearUniform, semijoin: 100}, rng)
		s.Add(fmt.Sprintf("%d%%", pct), ys...)
	}
	s.Notes = append(s.Notes,
		"expected: Tree Join best below ~50-60% (few probes of the existing index beat building a hash",
		"table on 30k tuples); Hash Join takes over for large outers")
	return []Series{s}
}

// Graph7DupSkewed reproduces Join Test 4: |R1| = |R2| = 20,000, skewed
// duplicate distribution, duplicate percentage 0-100. Result rows are
// counted, not materialized (the 100% point emits |R|² pairs).
func Graph7DupSkewed(env Env) []Series {
	return []Series{dupSweep(env, "graph7", workload.Skewed,
		"Join Test 4 — Vary Duplicate Percentage (skewed σ=0.1, |R|=20k, 100% semijoin)",
		[]string{
			"expected (log scale in the paper): output explodes with duplicates; Sort Merge",
			"overtakes the index joins around 40% and everything else by ~80%",
		})}
}

// Graph8DupUniform reproduces Join Test 5: the uniform-distribution twin.
func Graph8DupUniform(env Env) []Series {
	return []Series{dupSweep(env, "graph8", workload.NearUniform,
		"Join Test 5 — Vary Duplicate Percentage (uniform σ=0.8, |R|=20k, 100% semijoin)",
		[]string{
			"expected: Tree Merge stays best until ~97% duplicates; Sort Merge wins only at the extreme",
		})}
}

func dupSweep(env Env, id string, sigma float64, title string, notes []string) Series {
	s := Series{
		ID:     id,
		Title:  title,
		XLabel: "duplicate %",
		YLabel: "seconds (result rows counted, not stored)",
		Names:  joinMethodNames,
		Notes:  notes,
	}
	rng := env.Rng()
	n := env.N(20000)
	for _, dup := range []float64{0, 25, 50, 75, 90, 95, 99, 100} {
		ys := runJoinCase(joinCase{nOuter: n, nInner: n, dup: dup, sigma: sigma, semijoin: 100, discard: true}, rng)
		s.Add(fmt.Sprintf("%.0f%%", dup), ys...)
	}
	return s
}

// Graph9Semijoin reproduces Join Test 6: |R1| = |R2| = 30,000, 50%
// duplicates uniform, semijoin selectivity 1-100%.
func Graph9Semijoin(env Env) []Series {
	s := Series{
		ID:     "graph9",
		Title:  "Join Test 6 — Vary Semijoin Selectivity (|R|=30k, 50% dups uniform)",
		XLabel: "% matching values",
		YLabel: "seconds",
		Names:  joinMethodNames,
	}
	rng := env.Rng()
	n := env.N(30000)
	for _, sel := range []float64{1, 25, 50, 75, 100} {
		ys := runJoinCase(joinCase{nOuter: n, nInner: n, dup: 50, sigma: workload.NearUniform, semijoin: sel, discard: true}, rng)
		s.Add(fmt.Sprintf("%.0f%%", sel), ys...)
	}
	s.Notes = append(s.Notes,
		"expected: Tree Join climbs most with matching values (successful searches scan duplicates);",
		"Sort Merge flattest (sorting dominates the merge)")
	return []Series{s}
}

// Graph10NestedLoops reproduces the nested-loops baseline, which the paper
// plots alone because it is orders of magnitude off the other graphs.
func Graph10NestedLoops(env Env) []Series {
	s := Series{
		ID:     "graph10",
		Title:  "Nested Loops Join (Graph 10) — |R1| = |R2|, keys",
		XLabel: "|R1| = |R2|",
		YLabel: "seconds (Hash Join shown for contrast)",
		Names:  []string{"Nested Loops", "Hash Join"},
	}
	rng := env.Rng()
	for _, base := range []int{1000, 5000, 10000, 20000} {
		n := env.N(base)
		p := prepareJoin(joinCase{nOuter: n, nInner: n, sigma: workload.NearUniform, semijoin: 100}, rng)
		spec := p.spec(false)
		so := p.outer
		si := p.inner
		nested := timeBest(func() { exec.NestedLoopsJoin(so, si, spec) })
		hash := timeBest(func() { exec.HashJoin(so, si, spec) })
		s.Add(fmt.Sprintf("%d", n), nested, hash)
	}
	s.Notes = append(s.Notes,
		"expected: quadratic growth, \"usually several orders of magnitude worse than the other joins\"")
	return []Series{s}
}
