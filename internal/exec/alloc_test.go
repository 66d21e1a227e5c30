package exec_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// Steady-state allocation guards: once the batch and chunk pools are warm,
// operator allocations must stay far below one object per tuple. The
// bounds are deliberately loose (an eighth of a tuple each) — the point is
// to catch a reintroduced per-row Row header or per-probe closure, which
// would push the count to one-plus per tuple.

const allocN = 4096

func allocRelation(t testing.TB, name string, n int) []*storage.Tuple {
	t.Helper()
	sch := storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})
	rel, err := storage.NewRelation(name, sch, storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*storage.Tuple, n)
	for i := 0; i < n; i++ {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tp
	}
	return out
}

func guardAllocs(t *testing.T, name string, perRun float64, boundPerTuple float64) {
	t.Helper()
	if perRun > float64(allocN)*boundPerTuple {
		t.Fatalf("%s: %.0f allocs per run over %d tuples (bound %.0f) — a per-tuple allocation is back on the hot path",
			name, perRun, allocN, float64(allocN)*boundPerTuple)
	}
}

func TestSelectScanSteadyStateAllocs(t *testing.T) {
	src := sliceSrc(allocRelation(t, "r", allocN))
	spec := exec.SelectSpec{RelName: "r",
		Schema: storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})}
	pred := func(tp *storage.Tuple) bool { return tp.Field(0).Int()%2 == 0 }
	run := func() { exec.SelectScan(src, pred, spec).Release() }
	run() // warm the pools
	guardAllocs(t, "SelectScan", testing.AllocsPerRun(10, run), 1.0/8)
}

func TestSelectEqHashSteadyStateAllocs(t *testing.T) {
	tuples := allocRelation(t, "r", allocN)
	ix := tupleindex.NewChainHash(tupleindex.Options{Field: 0, Capacity: len(tuples)})
	for _, tp := range tuples {
		ix.Insert(tp)
	}
	spec := exec.SelectSpec{RelName: "r",
		Schema: storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})}
	run := func() {
		exec.SelectEqHash(ix, 0, storage.IntValue(int64(allocN/2)), spec).Release()
	}
	run()
	// A point lookup is O(1): a handful of objects total, not per tuple.
	if perRun := testing.AllocsPerRun(10, run); perRun > 16 {
		t.Fatalf("SelectEqHash: %.0f allocs per lookup", perRun)
	}
}

func TestHashJoinProbeSteadyStateAllocs(t *testing.T) {
	driver := allocRelation(t, "r1", allocN)
	tuples := allocRelation(t, "r2", allocN)
	ix := tupleindex.NewChainHash(tupleindex.Options{Field: 0, Capacity: len(tuples)})
	for _, tp := range tuples {
		ix.Insert(tp)
	}
	desc := exec.PairDescriptor("r1", "r2")
	// Probe-only: a one-stage pipeline over the existing index (the build
	// phase's chain nodes are inherent allocations).
	run := func() {
		out := storage.MustTempList(desc)
		p := exec.NewPipeline(exec.PipelineSpec{Slots: 2, Out: out, Stages: []exec.StageSpec{
			{Table: exec.IndexStage{Index: ix}, BuildSlot: 1, ProbeSlot: 0},
		}})
		for lo := 0; lo < len(driver); lo += storage.BatchSize {
			p.Feed(driver[lo:min(lo+storage.BatchSize, len(driver))])
		}
		p.Flush()
		p.Release()
		if out.Len() != allocN {
			t.Fatalf("index-stage join emitted %d rows, want %d", out.Len(), allocN)
		}
		out.Release()
	}
	run()
	guardAllocs(t, "IndexStage probe", testing.AllocsPerRun(10, run), 1.0/8)
}

func TestTreeJoinProbeSteadyStateAllocs(t *testing.T) {
	to := sliceSrc(allocRelation(t, "r1", allocN))
	tuples := allocRelation(t, "r2", allocN)
	ix := tupleindex.NewTTree(tupleindex.Options{Field: 0})
	for _, tp := range tuples {
		ix.Insert(tp)
	}
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2"}
	run := func() { exec.TreeJoin(to, ix, spec).Release() }
	run()
	guardAllocs(t, "TreeJoin probe", testing.AllocsPerRun(10, run), 1.0/8)
}

func TestPrecomputedJoinEmitAllocs(t *testing.T) {
	// Self-referencing Ref column: every outer tuple points at itself, so
	// the join is pure emit — the tightest loop over AppendPair.
	sch := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "fk", Type: storage.Ref, ForeignKey: "r"},
	)
	rel, err := storage.NewRelation("r", sch, storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*storage.Tuple, allocN)
	for i := range tuples {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(int64(i)), storage.NullValue})
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Update(tp, 1, storage.RefValue(tp)); err != nil {
			t.Fatal(err)
		}
		tuples[i] = tp
	}
	src := sliceSrc(tuples)
	spec := exec.JoinSpec{OuterName: "r", InnerName: "r", Hint: allocN}
	run := func() { exec.PrecomputedJoin(src, 1, spec).Release() }
	run()
	guardAllocs(t, "PrecomputedJoin emit", testing.AllocsPerRun(10, run), 1.0/8)
}
