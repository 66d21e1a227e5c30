package parallel

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestRadixHashJoinMatchesSerial: the radix-partitioned join must emit
// exactly the serial chained-bucket join's match multiset across data
// shapes, worker counts, and pass structures.
func TestRadixHashJoinMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name    string
		n1, n2  int
		dup     float64
		sigma   float64
		bits    []uint
		workers int
	}{
		{"unique-1pass", 4000, 4000, 0, workload.NearUniform, []uint{4}, 4},
		{"unique-2pass", 4000, 4000, 0, workload.NearUniform, []uint{3, 3}, 4},
		{"dups-skewed", 3000, 3000, 60, workload.Skewed, []uint{5}, 4},
		{"heavy-dups-multipass", 2000, 2000, 95, workload.Skewed, []uint{2, 2, 2}, 8},
		{"small-outer", 200, 5000, 20, workload.Moderate, []uint{4}, 4},
		{"serial-worker", 3000, 3000, 30, workload.Moderate, []uint{4}, 1},
		{"wide-fanout", 3000, 3000, 0, workload.NearUniform, []uint{8}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			v1 := buildValues(t, c.n1, c.dup, c.sigma, 71)
			v2 := buildValues(t, c.n2, c.dup, c.sigma, 73)
			ids := storage.NewIDGen()
			r1 := buildRelation(t, ids, "r1", v1)
			r2 := buildRelation(t, ids, "r2", v2)
			spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}

			var sm, pm meter.Counters
			serial := exec.HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &sm))
			par, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &pm), c.bits, c.workers)
			sameResults(t, "radix", joinResultSet(t, serial), joinResultSet(t, par))
			if stats.Passes != len(c.bits) {
				t.Fatalf("stats.Passes = %d, want %d", stats.Passes, len(c.bits))
			}
			if stats.Rows != c.n2 {
				t.Fatalf("stats.Rows = %d, want build cardinality %d", stats.Rows, c.n2)
			}
			if pm.RadixPasses != int64(2*len(c.bits)) {
				t.Fatalf("meter RadixPasses = %d, want %d (both sides)", pm.RadixPasses, 2*len(c.bits))
			}
			if pm.Partitions == 0 || pm.HashCalls == 0 {
				t.Fatalf("meter not folded: partitions=%d hash=%d", pm.Partitions, pm.HashCalls)
			}
			// One hash per tuple per side — partitioning, placement, and
			// probing all reuse it.
			if want := int64(c.n1 + c.n2); pm.HashCalls != want {
				t.Fatalf("HashCalls = %d, want exactly one per tuple = %d", pm.HashCalls, want)
			}
		})
	}
}

// All join keys equal: every entry lands in one hot partition, the
// write-combining path must stream it without overflow, and the result
// is the full cross product.
func TestRadixHashJoinAllEqualKeys(t *testing.T) {
	n := 300
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 7
	}
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	var m meter.Counters
	res, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &m), []uint{4, 4}, 4)
	if res.Len() != n*n {
		t.Fatalf("all-equal join emitted %d rows, want %d", res.Len(), n*n)
	}
	if stats.MaxPart != n {
		t.Fatalf("stats.MaxPart = %d, want the whole build side %d", stats.MaxPart, n)
	}
	if skew := stats.Skew(); skew != float64(stats.Fanout) {
		t.Fatalf("Skew = %v, want fanout %d (single hot partition)", skew, stats.Fanout)
	}
}

// Zero-row sides must be safe and empty on both orientations.
func TestRadixHashJoinZeroRows(t *testing.T) {
	ids := storage.NewIDGen()
	full := buildRelation(t, ids, "full", buildValues(t, 500, 0, workload.NearUniform, 79))
	empty := buildRelation(t, ids, "empty", nil)
	for _, c := range []struct {
		name         string
		outer, inner *storage.Relation
	}{
		{"empty-build", full, empty},
		{"empty-probe", empty, full},
		{"both-empty", empty, empty},
	} {
		rows := -1
		spec := exec.JoinSpec{OuterName: "o", InnerName: "i", OuterField: 0, InnerField: 0, RowsOut: &rows}
		res, _ := RadixHashJoin(RelationSource{Rel: c.outer}, RelationSource{Rel: c.inner}, spec, []uint{4}, 4)
		if res.Len() != 0 || rows != 0 {
			t.Fatalf("%s: emitted %d rows, RowsOut=%d", c.name, res.Len(), rows)
		}
	}
}

// A Limit is an inherently sequential early exit: the radix join must
// delegate to the serial operator and honor it exactly.
func TestRadixHashJoinLimitDelegates(t *testing.T) {
	vals := buildValues(t, 2000, 40, workload.Moderate, 83)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	rows := 0
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, Limit: 17, RowsOut: &rows}
	res, stats := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec, []uint{4}, 4)
	if res.Len() != 17 || rows != 17 {
		t.Fatalf("limit join emitted %d rows, RowsOut=%d, want 17", res.Len(), rows)
	}
	if stats.Fanout != 0 {
		t.Fatalf("limit join reported radix stats %+v, want zero (serial delegation)", stats)
	}
}

// Discard counts matches without materializing; RowsOut still reports.
func TestRadixHashJoinDiscard(t *testing.T) {
	vals := buildValues(t, 3000, 50, workload.Moderate, 89)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	want := 0
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0, RowsOut: &want}
	exec.HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec)

	got := 0
	dspec := spec
	dspec.Discard = true
	dspec.RowsOut = &got
	res, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, dspec, []uint{4}, 4)
	if res.Len() != 0 {
		t.Fatalf("discard join materialized %d rows", res.Len())
	}
	if got != want {
		t.Fatalf("discard RowsOut = %d, serial join emitted %d", got, want)
	}
}

// Nil meters must be safe end to end on the radix paths.
func TestRadixNilMeter(t *testing.T) {
	vals := buildValues(t, 1000, 30, workload.Moderate, 101)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}
	if res, _ := RadixHashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec, []uint{3}, 4); res.Len() == 0 {
		t.Fatal("nil-meter radix join emitted nothing")
	}
}
