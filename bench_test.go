// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation, each exercising the same code paths as the corresponding
// cmd/mmdb-bench experiment at a reduced scale. The full parameter sweeps
// (paper cardinalities, all node sizes) live in `go run ./cmd/mmdb-bench`;
// these targets give per-operation costs for regression tracking.
package mmdb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
	"repro/internal/sortutil"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/workload"
)

// benchTuples builds an n-tuple single-column relation of unique values.
func benchTuples(n int, seed int64) []*storage.Tuple {
	rng := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})
	rel, err := storage.NewRelation("b", schema, storage.Config{}, storage.NewIDGen())
	if err != nil {
		panic(err)
	}
	tuples := make([]*storage.Tuple, 0, n)
	for _, v := range workload.UniquePool(n, rng, nil) {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(v)})
		if err != nil {
			panic(err)
		}
		tuples = append(tuples, tp)
	}
	return tuples
}

func valuesTuples(values []int64) []*storage.Tuple {
	schema := storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})
	rel, err := storage.NewRelation("b", schema, storage.Config{}, storage.NewIDGen())
	if err != nil {
		panic(err)
	}
	tuples := make([]*storage.Tuple, 0, len(values))
	for _, v := range values {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(v)})
		if err != nil {
			panic(err)
		}
		tuples = append(tuples, tp)
	}
	return tuples
}

// BenchmarkGraph1IndexSearch measures a single search in each structure at
// the paper's 30,000 elements (node size 30 / chain target 2).
func BenchmarkGraph1IndexSearch(b *testing.B) {
	const n = 30000
	tuples := benchTuples(n, 1)
	for _, k := range []index.Kind{
		index.KindArray, index.KindAVL, index.KindBTree, index.KindTTree,
		index.KindChainedHash, index.KindExtendible, index.KindLinearHash, index.KindModLinearHash,
	} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			ns := 30
			if !k.OrderPreserving() {
				ns = 2
			}
			o := tupleindex.Options{Field: 0, Unique: true, NodeSize: ns, Capacity: n}
			var searchFn func(storage.Value) bool
			if k == index.KindArray {
				arr := tupleindex.BuildArray(o, tuples)
				searchFn = func(key storage.Value) bool {
					_, ok := arr.Search(tupleindex.PosFor(key, 0))
					return ok
				}
			} else if k.OrderPreserving() {
				ix, _ := tupleindex.NewOrdered(k, o)
				for _, tp := range tuples {
					ix.Insert(tp)
				}
				searchFn = func(key storage.Value) bool {
					_, ok := ix.Search(tupleindex.PosFor(key, 0))
					return ok
				}
			} else {
				ix, _ := tupleindex.NewHashed(k, o)
				for _, tp := range tuples {
					ix.Insert(tp)
				}
				searchFn = func(key storage.Value) bool {
					_, ok := ix.SearchKey(storage.Hash(key), func(t *storage.Tuple) bool {
						return storage.Equal(t.Field(0), key)
					})
					return ok
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !searchFn(tuples[i%n].Field(0)) {
					b.Fatal("lost element")
				}
			}
		})
	}
}

// BenchmarkGraph2QueryMix measures the 60/20/20 mix per operation for the
// two MM-DBMS general-purpose structures plus the B Tree baseline.
func BenchmarkGraph2QueryMix(b *testing.B) {
	const n = 30000
	for _, k := range []index.Kind{index.KindTTree, index.KindBTree, index.KindModLinearHash} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			pool := benchTuples(n+b.N+1, 2)
			o := tupleindex.Options{Field: 0, Unique: true, NodeSize: 30, Capacity: n}
			if !k.OrderPreserving() {
				o.NodeSize = 2
			}
			ins := func(tp *storage.Tuple) {}
			del := func(tp *storage.Tuple) {}
			search := func(key storage.Value) {}
			if k.OrderPreserving() {
				ix, _ := tupleindex.NewOrdered(k, o)
				for _, tp := range pool[:n] {
					ix.Insert(tp)
				}
				ins = func(tp *storage.Tuple) { ix.Insert(tp) }
				del = func(tp *storage.Tuple) { ix.Delete(tp) }
				search = func(key storage.Value) { ix.Search(tupleindex.PosFor(key, 0)) }
			} else {
				ix, _ := tupleindex.NewHashed(k, o)
				for _, tp := range pool[:n] {
					ix.Insert(tp)
				}
				ins = func(tp *storage.Tuple) { ix.Insert(tp) }
				del = func(tp *storage.Tuple) { ix.Delete(tp) }
				search = func(key storage.Value) {
					ix.SearchKey(storage.Hash(key), func(t *storage.Tuple) bool {
						return storage.Equal(t.Field(0), key)
					})
				}
			}
			rng := rand.New(rand.NewSource(3))
			next := n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch r := rng.Intn(100); {
				case r < 60:
					search(pool[rng.Intn(n)].Field(0))
				case r < 80:
					ins(pool[next])
					next++
				default:
					del(pool[rng.Intn(next)])
				}
			}
		})
	}
}

// BenchmarkStorageCost reports the paper-layout storage factor per
// structure as a custom metric (build cost is what the b.N loop measures).
func BenchmarkStorageCost(b *testing.B) {
	const n = 30000
	tuples := benchTuples(n, 4)
	for _, k := range []index.Kind{index.KindAVL, index.KindBTree, index.KindTTree, index.KindModLinearHash} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var stats index.Stats
			for i := 0; i < b.N; i++ {
				o := tupleindex.Options{Field: 0, Unique: true, NodeSize: 30, Capacity: n}
				if !k.OrderPreserving() {
					o.NodeSize = 2
				}
				if k.OrderPreserving() {
					ix, _ := tupleindex.NewOrdered(k, o)
					for _, tp := range tuples {
						ix.Insert(tp)
					}
					stats = ix.Stats()
				} else {
					ix, _ := tupleindex.NewHashed(k, o)
					for _, tp := range tuples {
						ix.Insert(tp)
					}
					stats = ix.Stats()
				}
			}
			b.ReportMetric(index.PaperModel.Factor(stats), "storage-factor")
		})
	}
}

// BenchmarkGraph3Distribution measures workload generation itself.
func BenchmarkGraph3Distribution(b *testing.B) {
	for _, sigma := range []float64{workload.Skewed, workload.Moderate, workload.NearUniform} {
		sigma := sigma
		b.Run(fmt.Sprintf("sigma=%.1f", sigma), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < b.N; i++ {
				workload.Occurrences(100, 20000, sigma, rng)
			}
		})
	}
}

// joinBench prepares a join pair and runs one method per iteration.
func joinBench(b *testing.B, nOuter, nInner int, dup, sigma, semijoin float64) (*sortedarray.Array[*storage.Tuple], *sortedarray.Array[*storage.Tuple], *ttree.Tree[*storage.Tuple], *ttree.Tree[*storage.Tuple], exec.JoinSpec) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	big := workload.Spec{Cardinality: nOuter, DuplicatePct: dup, Sigma: sigma}
	small := workload.Spec{Cardinality: nInner, DuplicatePct: dup, Sigma: sigma}
	var colO, colI workload.Column
	var err error
	if nOuter >= nInner {
		colO, err = workload.Build(big, rng)
		if err == nil {
			colI, err = workload.BuildDerived(small, colO, semijoin, rng)
		}
	} else {
		colI, err = workload.Build(small, rng)
		if err == nil {
			colO, err = workload.BuildDerived(big, colI, semijoin, rng)
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	to, ti := valuesTuples(colO.Values), valuesTuples(colI.Values)
	so := tupleindex.BuildArray(tupleindex.Options{Field: 0}, to)
	si := tupleindex.BuildArray(tupleindex.Options{Field: 0}, ti)
	tto := tupleindex.NewTTree(tupleindex.Options{Field: 0})
	for _, tp := range to {
		tto.Insert(tp)
	}
	tti := tupleindex.NewTTree(tupleindex.Options{Field: 0})
	for _, tp := range ti {
		tti.Insert(tp)
	}
	var rows int
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Discard: true, RowsOut: &rows}
	return so, si, tto, tti, spec
}

func runJoinMethodSubBenches(b *testing.B, nOuter, nInner int, dup, sigma, semijoin float64) {
	so, si, tto, tti, spec := joinBench(b, nOuter, nInner, dup, sigma, semijoin)
	b.Run("HashJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.HashJoin(so, si, spec)
		}
	})
	b.Run("TreeJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.TreeJoin(so, tti, spec)
		}
	})
	b.Run("SortMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.SortMergeJoin(so, si, spec)
		}
	})
	b.Run("TreeMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.TreeMergeJoin(tto, tti, spec)
		}
	})
}

// BenchmarkGraph4VaryCardinality: Join Test 1 at |R1| = |R2| = 7500.
func BenchmarkGraph4VaryCardinality(b *testing.B) {
	runJoinMethodSubBenches(b, 7500, 7500, 0, workload.NearUniform, 100)
}

// BenchmarkGraph5VaryInner: Join Test 2 at |R2| = 25% of |R1| = 7500.
func BenchmarkGraph5VaryInner(b *testing.B) {
	runJoinMethodSubBenches(b, 7500, 1875, 0, workload.NearUniform, 100)
}

// BenchmarkGraph6VaryOuter: Join Test 3 at |R1| = 25% of |R2| = 7500.
func BenchmarkGraph6VaryOuter(b *testing.B) {
	runJoinMethodSubBenches(b, 1875, 7500, 0, workload.NearUniform, 100)
}

// BenchmarkGraph7DupSkewed: Join Test 4 at 50% duplicates, skewed.
func BenchmarkGraph7DupSkewed(b *testing.B) {
	runJoinMethodSubBenches(b, 5000, 5000, 50, workload.Skewed, 100)
}

// BenchmarkGraph8DupUniform: Join Test 5 at 50% duplicates, uniform.
func BenchmarkGraph8DupUniform(b *testing.B) {
	runJoinMethodSubBenches(b, 5000, 5000, 50, workload.NearUniform, 100)
}

// BenchmarkGraph9Semijoin: Join Test 6 at 25% semijoin selectivity.
func BenchmarkGraph9Semijoin(b *testing.B) {
	runJoinMethodSubBenches(b, 7500, 7500, 50, workload.NearUniform, 25)
}

// BenchmarkGraph10NestedLoops: the baseline at 2000 tuples (quadratic —
// larger sizes drown the suite).
func BenchmarkGraph10NestedLoops(b *testing.B) {
	so, si, _, _, spec := joinBench(b, 2000, 2000, 0, workload.NearUniform, 100)
	for i := 0; i < b.N; i++ {
		exec.NestedLoopsJoin(so, si, spec)
	}
}

func projectionList(n int, dup float64) *storage.TempList {
	rng := rand.New(rand.NewSource(7))
	col, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: dup, Sigma: workload.NearUniform}, rng)
	if err != nil {
		panic(err)
	}
	tuples := valuesTuples(col.Values)
	list := storage.MustTempList(storage.Descriptor{
		Sources: []string{"p"},
		Cols:    []storage.ColRef{{Source: 0, Field: 0, Name: "val"}},
	})
	for _, tp := range tuples {
		list.Append(storage.Row{tp})
	}
	return list
}

// BenchmarkGraph11ProjectCardinality: Project Test 1 at |R| = 30000.
func BenchmarkGraph11ProjectCardinality(b *testing.B) {
	list := projectionList(30000, 0)
	b.Run("SortScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.ProjectSortScan(list, nil)
		}
	})
	b.Run("Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.ProjectHash(list, nil)
		}
	})
}

// BenchmarkGraph12ProjectDuplicates: Project Test 2 at 75% duplicates.
func BenchmarkGraph12ProjectDuplicates(b *testing.B) {
	list := projectionList(30000, 75)
	b.Run("SortScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.ProjectSortScan(list, nil)
		}
	})
	b.Run("Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.ProjectHash(list, nil)
		}
	})
}

// BenchmarkAblationSortCutoff sweeps the quicksort cutoff (optimum: 10).
func BenchmarkAblationSortCutoff(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	base := make([]int64, 30000)
	for i := range base {
		base[i] = rng.Int63()
	}
	cmp := func(a, c int64) int {
		switch {
		case a < c:
			return -1
		case a > c:
			return 1
		default:
			return 0
		}
	}
	work := make([]int64, len(base))
	for _, cutoff := range []int{1, 5, 10, 25, 100} {
		cutoff := cutoff
		b.Run(fmt.Sprintf("cutoff=%d", cutoff), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, base)
				sortutil.SortCutoff(work, cmp, cutoff, nil)
			}
		})
	}
}

// BenchmarkAblationTTreeGap sweeps the T Tree occupancy gap under an
// insert/delete mix.
func BenchmarkAblationTTreeGap(b *testing.B) {
	for _, gap := range []int{0, 2, 8} {
		gap := gap
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			pool := benchTuples(30000+b.N+1, 9)
			cfg := tupleindex.Config(tupleindex.Options{Field: 0, Unique: true, NodeSize: 30})
			tr := ttree.NewWithGap(cfg, gap)
			for _, tp := range pool[:30000] {
				tr.Insert(tp)
			}
			rng := rand.New(rand.NewSource(10))
			next := 30000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rng.Intn(2) == 0 {
					tr.Insert(pool[next])
					next++
				} else {
					tr.Delete(pool[rng.Intn(next)])
				}
			}
		})
	}
}

// BenchmarkAblationJoinBuild compares Tree Merge with and without its
// index build at |R| = 7500.
func BenchmarkAblationJoinBuild(b *testing.B) {
	so, si, tto, tti, spec := joinBench(b, 7500, 7500, 0, workload.NearUniform, 100)
	b.Run("TreeMergeExisting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.TreeMergeJoin(tto, tti, spec)
		}
	})
	b.Run("TreeMergePlusBuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bo := tupleindex.NewTTree(tupleindex.Options{Field: 0})
			bi := tupleindex.NewTTree(tupleindex.Options{Field: 0})
			for j := 0; j < so.Len(); j++ {
				bo.Insert(so.At(j))
			}
			for j := 0; j < si.Len(); j++ {
				bi.Insert(si.At(j))
			}
			exec.TreeMergeJoin(bo, bi, spec)
		}
	})
	b.Run("HashJoinInclBuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.HashJoin(so, si, spec)
		}
	})
}

// BenchmarkEndToEndQuery measures the public API: the paper's Query 1
// through the planner.
func BenchmarkEndToEndQuery(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	dept, _ := db.CreateTable("dept", []Field{
		{Name: "name", Type: TypeString},
		{Name: "id", Type: TypeInt},
	}, "id", TTree)
	emp, _ := db.CreateTable("emp", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "age", Type: TypeInt},
		{Name: "dept", Type: TypeRef, ForeignKey: "dept"},
	}, "id", TTree)
	if _, err := emp.CreateIndex("by_age", "age", TTree); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var depts []*Tuple
	for i := int64(0); i < 100; i++ {
		tp, _ := dept.Insert(Str(fmt.Sprintf("d%d", i)), Int(i))
		depts = append(depts, tp)
	}
	for i := int64(0); i < 30000; i++ {
		if _, err := emp.Insert(Int(i), Int(rng.Int63n(80)), Ref(depts[rng.Intn(len(depts))])); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("emp").
			Where("age", Gt, Int(65)).
			Join("dept", "dept", Self).
			Select("emp.id", "dept.name").
			Run()
		if err != nil || res.Len() == 0 {
			b.Fatalf("len=%d err=%v", res.Len(), err)
		}
	}
}

// BenchmarkBenchHarnessSmoke keeps the full experiment harness compiling
// and runnable from the test suite at a tiny scale.
func BenchmarkBenchHarnessSmoke(b *testing.B) {
	env := bench.Env{Scale: 0.01, Seed: 1}
	for i := 0; i < b.N; i++ {
		bench.Graph3Distribution(env)
	}
}
