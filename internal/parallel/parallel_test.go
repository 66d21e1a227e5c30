package parallel

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildRelation creates a relation with schema (val int, seq int) holding
// the given join-column values, split across many small partitions so the
// partition-granularity morsels actually fan out.
func buildRelation(t testing.TB, ids *storage.IDGen, name string, values []int64) *storage.Relation {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "seq", Type: storage.Int},
	)
	rel, err := storage.NewRelation(name, schema, storage.Config{SlotsPerPartition: 64}, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if _, err := rel.Insert([]storage.Value{storage.IntValue(v), storage.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func buildValues(t testing.TB, n int, dupPct, sigma float64, seed int64) []int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: dupPct, Sigma: sigma}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return col.Values
}

// joinResultSet canonicalizes a join result for comparison: a multiset of
// (outer val, outer seq, inner val, inner seq).
func joinResultSet(t testing.TB, l *storage.TempList) map[[4]int64]int {
	t.Helper()
	out := map[[4]int64]int{}
	l.Scan(func(_ int, row storage.Row) bool {
		k := [4]int64{
			row[0].Field(0).Int(), row[0].Field(1).Int(),
			row[1].Field(0).Int(), row[1].Field(1).Int(),
		}
		out[k]++
		return true
	})
	return out
}

func sameResults(t testing.TB, name string, a, b map[[4]int64]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d distinct rows vs %d", name, len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("%s: row %v count %d vs %d", name, k, v, b[k])
		}
	}
}

func TestDegree(t *testing.T) {
	if got := Degree(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Degree(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Degree(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Degree(-1) = %d", got)
	}
	if got := Degree(3); got != 3 {
		t.Fatalf("Degree(3) = %d", got)
	}
}

// TestParallelSelectScanMatchesSerial: the morsel-driven scan must produce
// exactly the serial scan's rows in exactly the serial scan's order, and
// the folded per-worker counters must equal the serial count.
func TestParallelSelectScanMatchesSerial(t *testing.T) {
	vals := buildValues(t, 10000, 30, workload.Moderate, 41)
	ids := storage.NewIDGen()
	rel := buildRelation(t, ids, "r", vals)
	pred := func(tp *storage.Tuple) bool { return tp.Field(0).Int()%3 == 0 }

	for _, src := range []struct {
		name string
		mk   func() exec.Source
	}{
		{"relation", func() exec.Source { return RelationSource{Rel: rel} }},
		{"list", func() exec.Source {
			l := storage.MustTempList(storage.Descriptor{Sources: []string{"r"}})
			rel.ScanPhysical(func(tp *storage.Tuple) bool { l.Append(storage.Row{tp}); return true })
			return ListSource{List: l}
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			var sm, pm meter.Counters
			serial := exec.SelectScan(src.mk(), pred,
				exec.SelectSpec{RelName: "r", Schema: rel.Schema(), Meter: &sm})
			par := SelectScan(src.mk(), pred,
				exec.SelectSpec{RelName: "r", Schema: rel.Schema(), Meter: &pm}, 4)
			if par.Len() != serial.Len() {
				t.Fatalf("parallel %d rows, serial %d", par.Len(), serial.Len())
			}
			for i := 0; i < serial.Len(); i++ {
				if par.Row(i)[0] != serial.Row(i)[0] {
					t.Fatalf("row %d: parallel order diverges from serial", i)
				}
			}
			if pm.Comparisons != sm.Comparisons {
				t.Fatalf("parallel compares %d, serial %d", pm.Comparisons, sm.Comparisons)
			}
		})
	}
}

// TestParallelHashJoinMatchesSerial: partitioned-build hash join must emit
// exactly the serial join's row multiset, on duplicate-heavy and
// near-unique key distributions alike.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name    string
		n1, n2  int
		dup     float64
		sigma   float64
		workers int
	}{
		{"unique", 4000, 4000, 0, workload.NearUniform, 4},
		{"dups-skewed", 3000, 3000, 60, workload.Skewed, 4},
		{"small-outer", 200, 5000, 20, workload.Moderate, 8},
		{"more-workers-than-chunks", 50, 50, 0, workload.NearUniform, 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			v1 := buildValues(t, c.n1, c.dup, c.sigma, 43)
			v2 := buildValues(t, c.n2, c.dup, c.sigma, 47)
			ids := storage.NewIDGen()
			r1 := buildRelation(t, ids, "r1", v1)
			r2 := buildRelation(t, ids, "r2", v2)
			spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}

			var sm, pm meter.Counters
			serial := exec.HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &sm))
			par := HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &pm), c.workers)
			sameResults(t, "hash", joinResultSet(t, serial), joinResultSet(t, par))
			if serial.Len() > 0 && pm.HashCalls == 0 {
				t.Fatal("parallel join folded no worker hash counts into the caller's meter")
			}
		})
	}
}

// TestParallelSortMergeJoinMatchesSerial: the MPSM range-partitioned join
// must emit the serial join's multiset, and — like the serial sort-merge —
// in globally non-decreasing key order.
func TestParallelSortMergeJoinMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name    string
		n1, n2  int
		dup     float64
		sigma   float64
		workers int
	}{
		{"unique", 4000, 4000, 0, workload.NearUniform, 4},
		{"dups-skewed", 3000, 3000, 60, workload.Skewed, 4},
		{"heavy-dups", 2000, 2000, 95, workload.Skewed, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			v1 := buildValues(t, c.n1, c.dup, c.sigma, 53)
			v2 := buildValues(t, c.n2, c.dup, c.sigma, 59)
			ids := storage.NewIDGen()
			r1 := buildRelation(t, ids, "r1", v1)
			r2 := buildRelation(t, ids, "r2", v2)
			spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}

			var sm, pm meter.Counters
			serial := exec.SortMergeJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &sm))
			par := SortMergeJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &pm), c.workers)
			sameResults(t, "sortmerge", joinResultSet(t, serial), joinResultSet(t, par))
			if pm.Comparisons == 0 && serial.Len() > 0 {
				t.Fatal("parallel join folded no worker comparisons into the caller's meter")
			}
			prev := int64(-1 << 62)
			par.Scan(func(i int, row storage.Row) bool {
				v := row[0].Field(0).Int()
				if v < prev {
					t.Fatalf("row %d: key %d after %d — range order broken", i, v, prev)
				}
				prev = v
				return true
			})
		})
	}
}

// TestParallelDiscardAndRowsOut: Discard mode counts without
// materializing, and RowsOut is written, in both parallel joins.
func TestParallelDiscardAndRowsOut(t *testing.T) {
	vals := buildValues(t, 3000, 50, workload.Moderate, 67)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	want := exec.HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2},
		exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}).Len()

	for name, join := range map[string]func(spec exec.JoinSpec) *storage.TempList{
		"hash": func(spec exec.JoinSpec) *storage.TempList {
			return HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec, 4)
		},
		"sortmerge": func(spec exec.JoinSpec) *storage.TempList {
			return SortMergeJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec, 4)
		},
	} {
		var rows int
		spec := exec.JoinSpec{
			OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0,
			Discard: true, RowsOut: &rows,
		}
		l := join(spec)
		if l.Len() != 0 {
			t.Fatalf("%s: discarded join materialized %d rows", name, l.Len())
		}
		if rows != want {
			t.Fatalf("%s: RowsOut=%d, want %d", name, rows, want)
		}
	}
}

// TestParallelLimitFallsBackToSerial: a Limit is an inherently sequential
// early exit; the parallel entry points must delegate and still honor it.
func TestParallelLimitFallsBackToSerial(t *testing.T) {
	vals := buildValues(t, 3000, 0, workload.NearUniform, 71)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	var rows int
	spec := exec.JoinSpec{
		OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0,
		Limit: 7, RowsOut: &rows,
	}
	if l := HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec, 4); l.Len() != 7 || rows != 7 {
		t.Fatalf("hash limit: %d rows, RowsOut=%d, want 7/7", l.Len(), rows)
	}
	rows = 0
	if l := SortMergeJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, spec, 4); l.Len() != 7 || rows != 7 {
		t.Fatalf("sortmerge limit: %d rows, RowsOut=%d, want 7/7", l.Len(), rows)
	}
}

// TestParallelNilMeterAndEmptyInputs: every parallel operator must accept
// a nil meter and empty inputs on either side without panicking.
func TestParallelNilMeterAndEmptyInputs(t *testing.T) {
	vals := buildValues(t, 3000, 20, workload.Moderate, 73)
	ids := storage.NewIDGen()
	full := buildRelation(t, ids, "f", vals)
	empty := buildRelation(t, ids, "e", nil)
	spec := exec.JoinSpec{OuterName: "f", InnerName: "e", OuterField: 0, InnerField: 0} // Meter nil

	for name, n := range map[string]int{
		"hash-empty-inner":      HashJoin(RelationSource{Rel: full}, RelationSource{Rel: empty}, spec, 4).Len(),
		"hash-empty-outer":      HashJoin(RelationSource{Rel: empty}, RelationSource{Rel: full}, spec, 4).Len(),
		"hash-empty-both":       HashJoin(RelationSource{Rel: empty}, RelationSource{Rel: empty}, spec, 4).Len(),
		"sortmerge-empty-inner": SortMergeJoin(RelationSource{Rel: full}, RelationSource{Rel: empty}, spec, 4).Len(),
		"sortmerge-empty-outer": SortMergeJoin(RelationSource{Rel: empty}, RelationSource{Rel: full}, spec, 4).Len(),
	} {
		if n != 0 {
			t.Errorf("%s: %d rows, want 0", name, n)
		}
	}
	// Nil meter on the non-empty paths too.
	selSpec := exec.SelectSpec{RelName: "f", Schema: full.Schema()}
	if got := SelectScan(RelationSource{Rel: full}, func(*storage.Tuple) bool { return true }, selSpec, 4).Len(); got != full.Cardinality() {
		t.Fatalf("nil-meter scan kept %d of %d", got, full.Cardinality())
	}
	joinSpec := exec.JoinSpec{OuterName: "f", InnerName: "f", OuterField: 0, InnerField: 0}
	if HashJoin(RelationSource{Rel: full}, RelationSource{Rel: full}, joinSpec, 4).Len() == 0 {
		t.Fatal("nil-meter hash self-join empty")
	}
	if SortMergeJoin(RelationSource{Rel: full}, RelationSource{Rel: full}, joinSpec, 4).Len() == 0 {
		t.Fatal("nil-meter sortmerge self-join empty")
	}
	// Empty + nil meter projection.
	l := storage.MustTempList(storage.Descriptor{Sources: []string{"f"},
		Cols: []storage.ColRef{{Source: 0, Field: 0, Name: "val"}}})
	g := agg.Get()
	defer agg.Put(g)
	if out, _ := Distinct(nil, nil, g, l, nil, 4, nil); out.Len() != 0 {
		t.Fatal("projection of empty list not empty")
	}
}

// TestWorkersOneIsExactlySerial: the workers<=1 delegation must preserve
// the serial operators' exact §3.1 counters.
func TestWorkersOneIsExactlySerial(t *testing.T) {
	vals := buildValues(t, 2000, 30, workload.Moderate, 79)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}

	var sm, pm meter.Counters
	exec.HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &sm))
	HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &pm), 1)
	if sm != pm {
		t.Fatalf("workers=1 hash join counters diverge:\nserial   %v\nparallel %v", &sm, &pm)
	}
	sm, pm = meter.Counters{}, meter.Counters{}
	exec.SortMergeJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &sm))
	SortMergeJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, withMeter(spec, &pm), 1)
	if sm != pm {
		t.Fatalf("workers=1 sort-merge counters diverge:\nserial   %v\nparallel %v", &sm, &pm)
	}
}

func withMeter(s exec.JoinSpec, m *meter.Counters) exec.JoinSpec {
	s.Meter = m
	return s
}
