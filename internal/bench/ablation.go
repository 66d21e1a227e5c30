package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/index/ttree"
	"repro/internal/meter"
	"repro/internal/sortutil"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/workload"
)

// Ablations for the design choices the paper asserts but does not plot.

// AblationSortCutoff sweeps the quicksort→insertion-sort cutoff; the paper
// measured 10 to be optimal (footnote 5 of §3.3.2).
func AblationSortCutoff(env Env) []Series {
	s := Series{
		ID:     "ablation-cutoff",
		Title:  "Ablation — quicksort insertion-sort cutoff (paper optimum: 10)",
		XLabel: "cutoff",
		YLabel: "seconds to sort",
		Names:  []string{"random", "50% dups"},
	}
	n := env.N(30000)
	rng := env.Rng()
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63()
	}
	dups, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: 50, Sigma: workload.NearUniform}, rng)
	if err != nil {
		panic(err)
	}
	cmp := func(a, b int64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	for _, cutoff := range []int{1, 2, 5, 8, 10, 15, 25, 50, 100} {
		var ys []float64
		for _, base := range [][]int64{random, dups.Values} {
			work := make([]int64, len(base))
			// Average several runs: single sorts are fast enough to jitter.
			const reps = 3
			total := 0.0
			for r := 0; r < reps; r++ {
				copy(work, base)
				total += timeIt(func() { sortutil.SortCutoff(work, cmp, cutoff, nil) })
			}
			ys = append(ys, total/reps)
		}
		s.Add(fmt.Sprintf("%d", cutoff), ys...)
	}
	s.Notes = append(s.Notes, "expected: shallow bowl with the minimum near 10")
	return []Series{s}
}

// AblationTTreeGap sweeps the T Tree's min/max occupancy gap. The paper:
// a gap "on the order of one or two items ... turns out to be enough to
// significantly reduce the need for tree rotations" under mixed
// insert/delete load.
func AblationTTreeGap(env Env) []Series {
	s := Series{
		ID:     "ablation-ttree-gap",
		Title:  "Ablation — T Tree min/max occupancy gap (node size 30)",
		XLabel: "gap (max - min count)",
		YLabel: "seconds | rotations | GLB moves",
		Names:  []string{"mix seconds", "rotations", "data moves"},
	}
	n := env.N(30000)
	pool := studyTuples(env, 2*n)
	for _, gap := range []int{0, 1, 2, 4, 8, 16} {
		var m meter.Counters
		cfg := tupleindex.Config(tupleindex.Options{Field: 0, Unique: true, NodeSize: 30, Meter: &m})
		tr := ttree.NewWithGap(cfg, gap)
		for _, tp := range pool[:n] {
			tr.Insert(tp)
		}
		m.Reset()
		live := append([]*storage.Tuple(nil), pool[:n]...)
		next := n
		rng := rand.New(rand.NewSource(env.Seed + 7))
		sec := timeIt(func() {
			for op := 0; op < n; op++ {
				// Insert/delete-heavy mix: the rotation-sensitive case.
				if rng.Intn(2) == 0 && next < len(pool) {
					tr.Insert(pool[next])
					live = append(live, pool[next])
					next++
				} else if len(live) > 0 {
					i := rng.Intn(len(live))
					tr.Delete(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		})
		s.Add(fmt.Sprintf("%d", gap), sec, float64(m.Rotations), float64(m.DataMoves))
	}
	s.Notes = append(s.Notes, "expected: rotations drop sharply from gap 0 to gap 1-2, then flatten")
	return []Series{s}
}

// AblationJoinBuild settles §3.3.2's claim that building tree indices for
// a join is never worthwhile: each method's cost with and without its
// index build included.
func AblationJoinBuild(env Env) []Series {
	s := Series{
		ID:     "ablation-build",
		Title:  "Ablation — join cost with index build included (|R1|=|R2|, keys)",
		XLabel: "|R|",
		YLabel: "seconds",
		Names: []string{
			"Tree Merge (exists)", "Tree Merge + build", "Tree Join (exists)",
			"Tree Join + build", "Hash Join (incl build)", "Sort Merge (incl build)",
		},
	}
	rng := env.Rng()
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		n := env.N(int(30000 * frac))
		p := prepareJoin(joinCase{nOuter: n, nInner: n, sigma: workload.NearUniform, semijoin: 100}, rng)
		spec := p.spec(false)
		so := p.outer
		si := p.inner

		buildTree := func(src exec.Source) *ttree.Tree[*storage.Tuple] {
			tr := tupleindex.NewTTree(tupleindex.Options{Field: 0})
			src.ScanBatches(nil, func(block storage.TupleBatch) bool {
				for _, tp := range block {
					tr.Insert(tp)
				}
				return true
			})
			return tr
		}
		tmExist := timeIt(func() { exec.TreeMergeJoin(p.outerTree, p.innerTree, spec) })
		tmBuild := timeIt(func() {
			exec.TreeMergeJoin(buildTree(so), buildTree(si), spec)
		})
		tjExist := timeIt(func() { exec.TreeJoin(so, p.innerTree, spec) })
		tjBuild := timeIt(func() { exec.TreeJoin(so, buildTree(si), spec) })
		hash := timeIt(func() { exec.HashJoin(so, si, spec) })
		sortm := timeIt(func() { exec.SortMergeJoin(so, si, spec) })
		s.Add(fmt.Sprintf("%d", n), tmExist, tmBuild, tjExist, tjBuild, hash, sortm)
	}
	s.Notes = append(s.Notes,
		"expected: with build costs included the tree methods lose to Hash Join — \"a Tree Join will",
		"always cost more than a Hash Join\" if the tree must be built")
	return []Series{s}
}

// AblationPointerJoin quantifies §2.1's pointer substitution: Query 2's
// join comparing tuple pointers versus the same join comparing string
// foreign-key values ("a significant cost savings if the join columns
// were string values").
func AblationPointerJoin(env Env) []Series {
	s := Series{
		ID:     "ablation-ptrjoin",
		Title:  "Ablation — foreign keys as tuple pointers vs data values (§2.1)",
		XLabel: "|emp|",
		YLabel: "seconds",
		Names:  []string{"string-value Hash Join", "int-value Hash Join", "pointer Hash Join", "precomputed"},
	}
	rng := env.Rng()
	nDept := 1000
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		nEmp := env.N(int(30000 * frac))
		deptSchema := storage.MustSchema(
			storage.FieldDef{Name: "name", Type: storage.Str},
			storage.FieldDef{Name: "id", Type: storage.Int},
		)
		empSchema := storage.MustSchema(
			storage.FieldDef{Name: "dept_name", Type: storage.Str}, // string FK value
			storage.FieldDef{Name: "dept_id", Type: storage.Int},   // int FK value
			storage.FieldDef{Name: "dept", Type: storage.Ref, ForeignKey: "dept"},
		)
		ids := storage.NewIDGen()
		dept, _ := storage.NewRelation("dept", deptSchema, storage.Config{}, ids)
		emp, _ := storage.NewRelation("emp", empSchema, storage.Config{}, ids)
		deptTuples := make([]*storage.Tuple, 0, nDept)
		for i := 0; i < nDept; i++ {
			// Long-ish names: the string-compare penalty the paper means.
			name := fmt.Sprintf("department-of-%032d", i)
			tp, _ := dept.Insert([]storage.Value{storage.StringValue(name), storage.IntValue(int64(i))})
			deptTuples = append(deptTuples, tp)
		}
		empTuples := make([]*storage.Tuple, 0, nEmp)
		for i := 0; i < nEmp; i++ {
			d := deptTuples[rng.Intn(nDept)]
			tp, _ := emp.Insert([]storage.Value{d.Field(0), d.Field(1), storage.RefValue(d)})
			empTuples = append(empTuples, tp)
		}
		empArr := tupleindex.BuildArray(tupleindex.Options{Field: 1}, empTuples)
		deptArr := tupleindex.BuildArray(tupleindex.Options{Field: 1}, deptTuples)

		base := exec.JoinSpec{OuterName: "emp", InnerName: "dept"}
		str := base
		str.OuterField, str.InnerField = 0, 0
		byString := timeIt(func() { exec.HashJoin(empArr, deptArr, str) })
		intg := base
		intg.OuterField, intg.InnerField = 1, 1
		byInt := timeIt(func() { exec.HashJoin(empArr, deptArr, intg) })
		ptr := base
		ptr.OuterField, ptr.InnerField = 2, tupleindex.SelfField
		byPtr := timeIt(func() { exec.HashJoin(empArr, deptArr, ptr) })
		pre := base
		pre.OuterField, pre.InnerField = 2, tupleindex.SelfField
		byPre := timeIt(func() { exec.PrecomputedJoin(empArr, 2, pre) })
		s.Add(fmt.Sprintf("%d", nEmp), byString, byInt, byPtr, byPre)
	}
	s.Notes = append(s.Notes,
		"expected: precomputed < pointer <= int < string; the precomputed join does no comparisons at all")
	return []Series{s}
}

var _ = index.PaperModel // keep the import for the doc links above
