package parallel

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/radix"
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
		mk   func() Chunked
	}{
		{"relation", func() Chunked { return RelationSource{Rel: rel} }},
		{"list", func() Chunked {
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

// pipelineJoin runs outer ⋈ inner on val the way the engine runs a
// two-relation hash join: a one-stage pipeline probing a pooled flat
// table built over inner. spec carries the per-run fields (meter,
// discard, limit); the emitted row count comes back beside the list.
func pipelineJoin(outer, inner Chunked, spec exec.PipelineSpec, workers int) (*storage.TempList, int) {
	tbl := exec.BuildStageTable(inner, 0, 0, spec.Meter)
	defer radix.PutTable(tbl)
	spec.Slots = 2
	spec.Stages = []exec.StageSpec{{Table: tbl, BuildSlot: 1, ProbeSlot: 0}}
	l, _, n := RunPipeline(outer, spec, storage.Descriptor{Sources: []string{"r1", "r2"}}, 0, workers)
	return l, n
}

// TestParallelHashJoinMatchesSerial: the two-relation hash join — a
// one-stage pipeline over a pooled flat table — must emit exactly the
// serial chained-bucket join's row multiset at any worker count, on
// duplicate-heavy and near-unique key distributions alike.
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
			par, _ := pipelineJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, exec.PipelineSpec{Meter: &pm}, c.workers)
			sameResults(t, "hash", joinResultSet(t, serial), joinResultSet(t, par))
			if serial.Len() > 0 && pm.HashCalls == 0 {
				t.Fatal("parallel join folded no worker hash counts into the caller's meter")
			}
		})
	}
}

// TestParallelDiscardAndRowsOut: a discarding join pipeline counts its
// rows across the workers without materializing any.
func TestParallelDiscardAndRowsOut(t *testing.T) {
	vals := buildValues(t, 3000, 50, workload.Moderate, 67)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	want := exec.HashJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2},
		exec.JoinSpec{OuterName: "r1", InnerName: "r2", OuterField: 0, InnerField: 0}).Len()

	l, rows := pipelineJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, exec.PipelineSpec{Discard: true}, 4)
	if l != nil {
		t.Fatalf("discarded join materialized %d rows", l.Len())
	}
	if rows != want {
		t.Fatalf("discarded join counted %d rows, want %d", rows, want)
	}
}

// TestParallelLimitFallsBackToSerial: a Limit is an inherently sequential
// early exit; the join pipeline must run it serially and still honor it.
func TestParallelLimitFallsBackToSerial(t *testing.T) {
	vals := buildValues(t, 3000, 0, workload.NearUniform, 71)
	ids := storage.NewIDGen()
	r1 := buildRelation(t, ids, "r1", vals)
	r2 := buildRelation(t, ids, "r2", vals)
	if l, rows := pipelineJoin(RelationSource{Rel: r1}, RelationSource{Rel: r2}, exec.PipelineSpec{Limit: 7}, 4); l.Len() != 7 || rows != 7 {
		t.Fatalf("hash limit: %d rows, %d counted, want 7/7", l.Len(), rows)
	}
}

// TestParallelNilMeterAndEmptyInputs: every parallel operator must accept
// a nil meter and empty inputs on either side without panicking.
func TestParallelNilMeterAndEmptyInputs(t *testing.T) {
	vals := buildValues(t, 3000, 20, workload.Moderate, 73)
	ids := storage.NewIDGen()
	full := RelationSource{Rel: buildRelation(t, ids, "f", vals)}
	empty := RelationSource{Rel: buildRelation(t, ids, "e", nil)}
	join := func(outer, inner Chunked) int {
		l, _ := pipelineJoin(outer, inner, exec.PipelineSpec{}, 4) // Meter nil
		return l.Len()
	}
	for name, n := range map[string]int{
		"hash-empty-inner": join(full, empty),
		"hash-empty-outer": join(empty, full),
		"hash-empty-both":  join(empty, empty),
	} {
		if n != 0 {
			t.Errorf("%s: %d rows, want 0", name, n)
		}
	}
	// Nil meter on the non-empty paths too.
	selSpec := exec.SelectSpec{RelName: "f", Schema: full.Rel.Schema()}
	if got := SelectScan(full, func(*storage.Tuple) bool { return true }, selSpec, 4).Len(); got != full.Len() {
		t.Fatalf("nil-meter scan kept %d of %d", got, full.Len())
	}
	if join(full, full) == 0 {
		t.Fatal("nil-meter hash self-join empty")
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

// TestWorkersOneIsExactlySerial: a one-worker join pipeline is the serial
// exec pipeline, counter for counter, and more workers spread the same
// probes and comparisons without adding any.
func TestWorkersOneIsExactlySerial(t *testing.T) {
	vals := buildValues(t, 2000, 30, workload.Moderate, 79)
	ids := storage.NewIDGen()
	r1 := RelationSource{Rel: buildRelation(t, ids, "r1", vals)}
	r2 := RelationSource{Rel: buildRelation(t, ids, "r2", vals)}

	var sm meter.Counters
	tbl := exec.BuildStageTable(r2, 0, 0, &sm)
	p := exec.NewPipeline(exec.PipelineSpec{Slots: 2, Discard: true, Meter: &sm,
		Stages: []exec.StageSpec{{Table: tbl, BuildSlot: 1, ProbeSlot: 0}}})
	r1.ScanBatches(nil, p.Feed)
	p.Flush()
	p.Release()
	radix.PutTable(tbl)
	for _, w := range []int{1, 4} {
		var pm meter.Counters
		pipelineJoin(r1, r2, exec.PipelineSpec{Discard: true, Meter: &pm}, w)
		if w == 1 && sm != pm {
			t.Fatalf("workers=1 join counters diverge:\nserial   %v\nparallel %v", &sm, &pm)
		}
		if pm.HashCalls != sm.HashCalls || pm.Comparisons != sm.Comparisons {
			t.Fatalf("workers=%d: hash=%d cmp=%d, serial hash=%d cmp=%d",
				w, pm.HashCalls, pm.Comparisons, sm.HashCalls, sm.Comparisons)
		}
	}
}

func withMeter(s exec.JoinSpec, m *meter.Counters) exec.JoinSpec {
	s.Meter = m
	return s
}
