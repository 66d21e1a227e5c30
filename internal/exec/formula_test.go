package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/workload"
)

// The paper validated its implementations by checking operation counts
// against analytical formulas (§3.1, §3.3.4). These tests do the same:
// each join method's metered comparison count must track the paper's
// formula within a small constant factor.

func formulaSetup(t *testing.T, n1, n2 int) (s1, s2 *sortedarray.Array[*storage.Tuple], t1, t2 *ttree.Tree[*storage.Tuple]) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	col1, err := workload.Build(workload.Spec{Cardinality: n1, DuplicatePct: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	col2, err := workload.BuildDerived(workload.Spec{Cardinality: n2, DuplicatePct: 0}, col1, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", col1.Values)
	r2 := buildRelation(t, ids, "r2", col2.Values)
	return arrayOn(r1, 0), arrayOn(r2, 0), ttreeOn(r1, 0), ttreeOn(r2, 0)
}

func TestTreeMergeComparisonFormula(t *testing.T) {
	// §3.3.4 Test 1: "The number of comparisons done is approximately
	// (|R1| + |R2| * 2)" for the Tree Merge on keys.
	const n = 4096
	_, _, t1, t2 := formulaSetup(t, n, n)
	m := newMeter()
	spec := withMeter(JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Discard: true, RowsOut: new(int)}, m)
	TreeMergeJoin(t1, t2, spec)
	want := float64(n + 2*n)
	got := float64(m.Comparisons)
	if got < want*0.8 || got > want*2.0 {
		t.Fatalf("Tree Merge comparisons = %v, paper formula ≈ %v", got, want)
	}
}

func TestHashJoinComparisonFormula(t *testing.T) {
	// §3.3.4 Test 1: Hash Join ≈ |R1| + |R1|·k where k is a fixed lookup
	// cost, "much smaller than log2(|R2|) but larger than 2"; plus the
	// build pass (|R2| inserts).
	const n = 8192
	s1, s2, _, _ := formulaSetup(t, n, n)
	m := newMeter()
	spec := withMeter(JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Discard: true, RowsOut: new(int)}, m)
	HashJoin(s1, s2, spec)
	perProbe := float64(m.Comparisons) / float64(n)
	log2n := math.Log2(float64(n))
	if perProbe < 1 || perProbe >= log2n {
		t.Fatalf("hash join cost per outer tuple = %.2f comparisons; want in [1, log2(n)=%.1f)", perProbe, log2n)
	}
	// Tree Join ≈ |R1| + |R1|·log2(|R2|) comparisons: per-probe must be
	// near log2(n), clearly above the hash join's k. The probes run inside
	// the pre-existing index, so the meter attaches to the index itself.
	m2 := newMeter()
	metered := tupleindex.NewTTree(tupleindex.Options{Field: 0, Meter: m2})
	s2.ScanBatches(nil, func(block storage.TupleBatch) bool {
		for _, tp := range block {
			metered.Insert(tp)
		}
		return true
	})
	m2.Reset()
	TreeJoin(s1, metered, spec)
	perTreeProbe := float64(m2.Comparisons) / float64(n)
	if perTreeProbe < log2n/2 {
		t.Fatalf("tree join per-probe = %.2f; expected near log2(n) = %.1f", perTreeProbe, log2n)
	}
	if perProbe >= perTreeProbe {
		t.Fatalf("hash per-probe (%.2f) not below tree per-probe (%.2f)", perProbe, perTreeProbe)
	}
}

func TestSortMergeComparisonFormula(t *testing.T) {
	// §3.3.4 Test 1: Sort Merge ≈ |R1|log|R1| + |R2|log|R2| + |R1| + |R2|.
	const n = 4096
	s1, s2, _, _ := formulaSetup(t, n, n)
	m := newMeter()
	spec := withMeter(JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Discard: true, RowsOut: new(int)}, m)
	SortMergeJoin(s1, s2, spec)
	nf := float64(n)
	want := 2*nf*math.Log2(nf) + 2*nf
	got := float64(m.Comparisons)
	// Quicksort's constant differs from the idealized n·log n; allow a
	// factor-2 band.
	if got < want*0.5 || got > want*2.0 {
		t.Fatalf("Sort Merge comparisons = %v, formula ≈ %v", got, want)
	}
}

func TestNestedLoopsComparisonFormula(t *testing.T) {
	// O(N²): exactly |R1|·|R2| comparisons, no more, no fewer.
	const n1, n2 = 300, 200
	s1, s2, _, _ := formulaSetup(t, n1, n2)
	m := newMeter()
	spec := withMeter(JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Discard: true, RowsOut: new(int)}, m)
	NestedLoopsJoin(s1, s2, spec)
	if m.Comparisons != n1*n2 {
		t.Fatalf("nested loops comparisons = %d, want exactly %d", m.Comparisons, n1*n2)
	}
}

func TestPrecomputedJoinDoesNoComparisons(t *testing.T) {
	// §3.3.5: "it would beat each of the join methods in every case,
	// because the joining tuples have already been paired."
	ids := storage.NewIDGen()
	inner := buildRelation(t, ids, "inner", []int64{1, 2, 3})
	var innerTuples []*storage.Tuple
	inner.ScanPhysical(func(tp *storage.Tuple) bool { innerTuples = append(innerTuples, tp); return true })
	outerSchema := storage.MustSchema(
		storage.FieldDef{Name: "v", Type: storage.Int},
		storage.FieldDef{Name: "ref", Type: storage.Ref, ForeignKey: "inner"},
	)
	outer, _ := storage.NewRelation("outer", outerSchema, storage.Config{}, ids)
	for i := 0; i < 100; i++ {
		outer.Insert([]storage.Value{storage.IntValue(int64(i)), storage.RefValue(innerTuples[i%3])})
	}
	m := newMeter()
	spec := withMeter(JoinSpec{OuterName: "outer", InnerName: "inner"}, m)
	l := PrecomputedJoin(arrayOn(outer, 0), 1, spec)
	if l.Len() != 100 {
		t.Fatalf("rows=%d", l.Len())
	}
	if m.Comparisons != 0 || m.HashCalls != 0 {
		t.Fatalf("precomputed join did %d comparisons, %d hash calls; want 0", m.Comparisons, m.HashCalls)
	}
}

func TestProjectionHashChainsShrinkWithDuplicates(t *testing.T) {
	// §3.4: with duplicates discarded on arrival, the hash table stores
	// fewer elements and probes shorter chains.
	rng := rand.New(rand.NewSource(43))
	count := func(dup float64) int64 {
		col, err := workload.Build(workload.Spec{Cardinality: 8000, DuplicatePct: dup, Sigma: workload.NearUniform}, rng)
		if err != nil {
			t.Fatal(err)
		}
		ids := storage.NewIDGen()
		rel := buildRelation(t, ids, "r", col.Values)
		list := storage.MustTempList(storage.Descriptor{
			Sources: []string{"r"},
			Cols:    []storage.ColRef{{Source: 0, Field: 0, Name: "val"}},
		})
		rel.ScanPhysical(func(tp *storage.Tuple) bool { list.Append(storage.Row{tp}); return true })
		m := newMeter()
		ProjectHash(list, m)
		return m.Comparisons
	}
	low, high := count(0), count(90)
	if high >= low {
		t.Fatalf("projection hash comparisons did not shrink with duplicates: %d -> %d", low, high)
	}
}
