package exec

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// TestJoinLimitEarlyExit: a Limit must stop every join method after
// exactly that many rows, unwinding the scans — and RowsOut must still be
// written on the early-exit path (the bug was that done() only ran after a
// full scan, leaving RowsOut stale when a join was cut short).
func TestJoinLimitEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	col, _ := workload.Build(workload.Spec{Cardinality: 500, DuplicatePct: 40, Sigma: workload.Moderate}, rng)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", col.Values)
	r2 := buildRelation(t, ids, "r2", col.Values)
	s1, s2 := arrayOn(r1, 0), arrayOn(r2, 0)
	t1, t2 := ttreeOn(r1, 0), ttreeOn(r2, 0)

	full := HashJoin(s1, s2, JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}).Len()
	if full < 10 {
		t.Fatalf("workload produced only %d join rows", full)
	}
	for _, limit := range []int{1, 7, full - 1, full, full + 10} {
		want := limit
		if limit > full {
			want = full
		}
		var rows int
		spec := JoinSpec{
			OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0,
			Limit: limit, RowsOut: &rows,
		}
		for name, join := range map[string]func() *storage.TempList{
			"nested":    func() *storage.TempList { return NestedLoopsJoin(s1, s2, spec) },
			"hash":      func() *storage.TempList { return HashJoin(s1, s2, spec) },
			"tree":      func() *storage.TempList { return TreeJoin(s1, t2, spec) },
			"sortmerge": func() *storage.TempList { return SortMergeJoin(s1, s2, spec) },
			"treemerge": func() *storage.TempList { return TreeMergeJoin(t1, t2, spec) },
		} {
			rows = -1
			l := join()
			if l.Len() != want {
				t.Fatalf("%s limit=%d: %d rows, want %d", name, limit, l.Len(), want)
			}
			if rows != want {
				t.Fatalf("%s limit=%d: RowsOut=%d, want %d (early exit must still write it)", name, limit, rows, want)
			}
		}
	}
}

// TestPrecomputedJoinLimit covers the remaining method (it needs a Ref
// schema, so it gets its own fixture).
func TestPrecomputedJoinLimit(t *testing.T) {
	ids := storage.NewIDGen()
	inner := buildRelation(t, ids, "inner", []int64{1, 2, 3, 4, 5})
	var innerTuples []*storage.Tuple
	inner.ScanPhysical(func(tp *storage.Tuple) bool { innerTuples = append(innerTuples, tp); return true })
	outerSchema := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "ref", Type: storage.Ref, ForeignKey: "inner"},
	)
	outer, _ := storage.NewRelation("outer", outerSchema, storage.Config{}, ids)
	for i := 0; i < 20; i++ {
		outer.Insert([]storage.Value{storage.IntValue(int64(i)), storage.RefValue(innerTuples[i%5])})
	}
	var rows int
	spec := JoinSpec{OuterName: "outer", InnerName: "inner", Limit: 3, RowsOut: &rows}
	l := PrecomputedJoin(arrayOn(outer, 0), 1, spec)
	if l.Len() != 3 || rows != 3 {
		t.Fatalf("precomputed limit: %d rows, RowsOut=%d, want 3/3", l.Len(), rows)
	}
}

// TestDiscardWithLimit: Discard and Limit compose — counting stops at the
// limit and RowsOut reports it.
func TestDiscardWithLimit(t *testing.T) {
	ids := storage.NewIDGen()
	r := buildRelation(t, ids, "r", []int64{1, 1, 1, 1, 1})
	s := arrayOn(r, 0)
	var rows int
	spec := JoinSpec{
		OuterName: "r", InnerName: "r", OuterField: 0, InnerField: 0,
		Discard: true, Limit: 4, RowsOut: &rows,
	}
	if l := HashJoin(s, s, spec); l.Len() != 0 {
		t.Fatalf("discard materialized %d rows", l.Len())
	}
	if rows != 4 {
		t.Fatalf("RowsOut=%d, want 4 (cross product is 25, limit 4)", rows)
	}
}

// TestHashJoinDirectorySizing is the regression for the build-side
// capacity bug: HashJoin passes the inner cardinality as the capacity hint
// (in entries), and chainhash sizes its directory at hint/NodeSize slots,
// so a full table averages one chain node per slot — the fixed lookup
// cost k of §3.3.4. The buggy revision passed inner.Len()*NodeSize,
// allocating NodeSize× the directory: node allocations ballooned to ~0.63
// per entry (one mostly-empty node per occupied slot) and probes visited
// fewer than one node on average (k below the paper's "larger than 2"
// model). Both symptoms are asserted away here.
func TestHashJoinDirectorySizing(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	n := 4096
	vals := workload.UniquePool(n, rng, nil)
	ids := storage.NewIDGen()
	r := buildRelation(t, ids, "r", vals)
	s := arrayOn(r, 0)
	m := newMeter()
	HashJoin(s, s, withMeter(JoinSpec{OuterName: "r", InnerName: "r", OuterField: 0, InnerField: 0}, m))

	// Build: n entries in n/NodeSize slots → ~n/NodeSize·E[⌈Poisson(4)/4⌉]
	// ≈ 0.35n node allocations. The buggy n-slot directory allocated
	// ≈ (1-1/e)n ≈ 0.63n.
	if m.Allocations > int64(n/2) {
		t.Fatalf("build allocated %d chain nodes for %d entries — directory oversized (want < n/2)", m.Allocations, n)
	}
	// Probe: average chain length at load factor 1 is ≈ 1.35 nodes, so n
	// probes visit at least n nodes. The buggy sizing averaged ≈ 0.63.
	if m.NodesVisited < int64(n) {
		t.Fatalf("probes visited %d nodes for %d probes — chains shorter than 1 node, directory oversized", m.NodesVisited, n)
	}
	if m.NodesVisited > int64(3*n) {
		t.Fatalf("probes visited %d nodes for %d probes — chains far over 1 node, directory undersized", m.NodesVisited, n)
	}
}
