package parallel

import (
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/storage"
	"repro/internal/workload"
)

// budgetedSpec wires a fresh reservation on a manager of the given
// budget into a join spec over column 0 of both sides.
func budgetedSpec(r *mem.Reservation) exec.JoinSpec {
	return exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Mem: r}
}

// TestBudgetedJoinMatchesUnbudgeted: across budgets from generous to
// starved, the budgeted join's match multiset must be identical to the
// unbudgeted run — degradation may reorder rows, never change them —
// and all granted bytes must return to the manager.
func TestBudgetedJoinMatchesUnbudgeted(t *testing.T) {
	v1 := buildValues(t, 6000, 30, workload.Moderate, 103)
	v2 := buildValues(t, 6000, 30, workload.Moderate, 107)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", v1)
	r2 := buildRelation(t, ids, "r2", v2)
	base := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	ref, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, base, []uint{3}, 4)
	want := joinResultSet(t, ref)

	for _, budget := range []int64{64 << 20, 1 << 20, 64 << 10, 4 << 10} {
		m := mem.NewManager(budget)
		r := m.Reserve()
		got, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, budgetedSpec(r), []uint{3}, 4)
		sameResults(t, "budgeted", want, joinResultSet(t, got))
		if held := r.Held(); held != 0 {
			t.Fatalf("budget %d: join leaked %d granted bytes", budget, held)
		}
		r.Close()
		if s := m.Snapshot(); s.Granted != 0 {
			t.Fatalf("budget %d: manager still shows %d granted", budget, s.Granted)
		}
		if budget <= 4<<10 && stats.Repartitions == 0 && m.Snapshot().Forced == 0 {
			t.Fatalf("budget %d: starved join neither re-split nor forced (stats %+v)", budget, stats)
		}
	}
}

// TestBudgetedJoinResplitFires: a budget smaller than a single
// partition's table must trigger recursive repartitioning, and the
// result must still match the unbudgeted run exactly.
func TestBudgetedJoinResplitFires(t *testing.T) {
	// Unique keys: partitions are balanced, each ~2000 rows → 64 KiB
	// tables; a 16 KiB budget cannot hold one.
	v1 := buildValues(t, 8000, 0, workload.NearUniform, 109)
	v2 := buildValues(t, 8000, 0, workload.NearUniform, 113)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", v1)
	r2 := buildRelation(t, ids, "r2", v2)
	base := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	ref, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, base, []uint{2}, 2)

	m := mem.NewManager(16 << 10)
	r := m.Reserve()
	defer r.Close()
	got, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, budgetedSpec(r), []uint{2}, 2)
	sameResults(t, "resplit", joinResultSet(t, ref), joinResultSet(t, got))
	if stats.Repartitions == 0 {
		t.Fatalf("16KiB budget over 64KiB partitions did not re-split: %+v", stats)
	}
	if s := m.Snapshot(); s.Repartitions != int64(stats.Repartitions) {
		t.Fatalf("manager repartitions %d != stats %d", s.Repartitions, stats.Repartitions)
	}
}

// TestBudgetedJoinReversalFires: when the forecast build side's
// partitions dwarf the probe side's, the defense must flip roles —
// and emit rows in the original (outer, inner) orientation regardless.
func TestBudgetedJoinReversalFires(t *testing.T) {
	// Inner (forecast build) 20000 rows, outer only 500: every pair's
	// outer extent is smaller, so every built pair should reverse.
	v1 := buildValues(t, 500, 0, workload.NearUniform, 127)
	v2 := buildValues(t, 20000, 40, workload.Skewed, 131)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", v1)
	r2 := buildRelation(t, ids, "r2", v2)
	base := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	ref, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, base, []uint{3}, 4)

	m := mem.NewManager(32 << 20)
	r := m.Reserve()
	defer r.Close()
	got, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, budgetedSpec(r), []uint{3}, 4)
	sameResults(t, "reversal", joinResultSet(t, ref), joinResultSet(t, got))
	if stats.Reversed == 0 {
		t.Fatalf("tiny-outer join never reversed roles: %+v", stats)
	}
	if s := m.Snapshot(); s.Reversals != int64(stats.Reversed) {
		t.Fatalf("manager reversals %d != stats %d", s.Reversals, stats.Reversed)
	}
}

// TestBudgetedJoinAllEqualKeys: a partition of identical keys cannot be
// split by any number of extra bits. The recursive path must detect the
// lack of progress, force the grant (recorded), and still produce the
// full cross product.
func TestBudgetedJoinAllEqualKeys(t *testing.T) {
	n := 2000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 7
	}
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)

	m := mem.NewManager(8 << 10) // far below the 2000-row table
	r := m.Reserve()
	defer r.Close()
	res, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, budgetedSpec(r), []uint{4}, 4)
	if res.Len() != n*n {
		t.Fatalf("all-equal budgeted join emitted %d rows, want %d", res.Len(), n*n)
	}
	if m.Snapshot().Forced == 0 {
		t.Fatal("unsplittable partition did not record a forced overcommit")
	}
	if r.Held() != 0 {
		t.Fatalf("leaked %d granted bytes", r.Held())
	}
	// The reversal check compares extents, both n here; no reversal.
	if stats.Reversed != 0 {
		t.Fatalf("equal extents reversed: %+v", stats)
	}
}

// TestBudgetedJoinConcurrentQueries: several budgeted joins race on one
// small manager (run under -race in CI). Every query must finish with
// the correct multiset and the manager must drain to zero.
func TestBudgetedJoinConcurrentQueries(t *testing.T) {
	v1 := buildValues(t, 4000, 20, workload.Moderate, 149)
	v2 := buildValues(t, 4000, 20, workload.Moderate, 151)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", v1)
	r2 := buildRelation(t, ids, "r2", v2)
	base := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	ref, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, base, []uint{3}, 2)
	want := joinResultSet(t, ref)

	m := mem.NewManager(64 << 10)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := m.Reserve()
			defer r.Close()
			got, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, budgetedSpec(r), []uint{3}, 2)
			set := joinResultSet(t, got)
			if len(set) != len(want) {
				errs <- "concurrent budgeted join lost rows"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s := m.Snapshot(); s.Granted != 0 || s.Waiting != 0 {
		t.Fatalf("manager not drained: %+v", s)
	}
}
