package parallel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/radix"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/workload"
)

// buildRel creates a relation with schema (val int, seq int).
func buildRel(t testing.TB, ids *storage.IDGen, name string, values []int64) *storage.Relation {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "seq", Type: storage.Int},
	)
	rel, err := storage.NewRelation(name, schema, storage.Config{}, ids)
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

func modVals(n int, mod int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) % mod
	}
	return out
}

func TestRunPipelineParallelMatchesSerial(t *testing.T) {
	ids := storage.NewIDGen()
	av, bv, cv := modVals(20000, 64), modVals(512, 64), modVals(64, 64)
	ra := buildRel(t, ids, "a", av)
	rb := buildRel(t, ids, "b", bv)
	rc := buildRel(t, ids, "c", cv)
	var m meter.Counters
	tb := exec.BuildStageTable(RelationSource{Rel: rb}, 0, 0, &m)
	tc := exec.BuildStageTable(RelationSource{Rel: rc}, 0, 0, &m)
	desc := storage.Descriptor{Sources: []string{"a", "b", "c"}}
	mkSpec := func(mm *meter.Counters) exec.PipelineSpec {
		return exec.PipelineSpec{
			Slots:      3,
			DriverSlot: 0,
			Stages: []exec.StageSpec{
				{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0},
				{Table: tc, BuildField: 0, BuildSlot: 2, ProbeSlot: 1, ProbeField: 0},
			},
			Meter: mm,
		}
	}
	var ms meter.Counters
	serialOut, serialStages, serialN := RunPipeline(RelationSource{Rel: ra}, mkSpec(&ms), desc, 0, 1)
	for _, w := range []int{2, 4, 8} {
		var mp meter.Counters
		parOut, parStages, parN := RunPipeline(RelationSource{Rel: ra}, mkSpec(&mp), desc, 0, w)
		if parN != serialN || parOut.Len() != serialOut.Len() {
			t.Fatalf("w=%d: %d rows, serial %d", w, parN, serialN)
		}
		for k := range serialStages {
			if parStages[k] != serialStages[k] {
				t.Fatalf("w=%d: stage %d rows %d, serial %d", w, k, parStages[k], serialStages[k])
			}
		}
		// Counters must fold to the same totals (same probes and
		// comparisons, just spread over workers).
		if mp.HashCalls != ms.HashCalls || mp.Comparisons != ms.Comparisons {
			t.Fatalf("w=%d: counters hash=%d cmp=%d, serial hash=%d cmp=%d",
				w, mp.HashCalls, mp.Comparisons, ms.HashCalls, ms.Comparisons)
		}
		// Same multiset: compare sorted (val, aseq, bseq, cseq) sets.
		count := map[[3]int64]int{}
		serialOut.Scan(func(_ int, row storage.Row) bool {
			count[[3]int64{row[0].Field(1).Int(), row[1].Field(1).Int(), row[2].Field(1).Int()}]++
			return true
		})
		parOut.Scan(func(_ int, row storage.Row) bool {
			count[[3]int64{row[0].Field(1).Int(), row[1].Field(1).Int(), row[2].Field(1).Int()}]--
			return true
		})
		for k, v := range count {
			if v != 0 {
				t.Fatalf("w=%d: multiset mismatch at %v (%+d)", w, k, v)
			}
		}
	}
}

func TestRunPipelineDiscardAndEmpty(t *testing.T) {
	ids := storage.NewIDGen()
	ra := buildRel(t, ids, "a", modVals(10000, 16))
	rb := buildRel(t, ids, "b", modVals(160, 16))
	var m meter.Counters
	tb := exec.BuildStageTable(RelationSource{Rel: rb}, 0, 0, &m)
	desc := storage.Descriptor{Sources: []string{"a", "b"}}
	spec := exec.PipelineSpec{
		Slots:      2,
		DriverSlot: 0,
		Stages:     []exec.StageSpec{{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0}},
		Discard:    true,
		Meter:      &m,
	}
	out, _, n := RunPipeline(RelationSource{Rel: ra}, spec, desc, 0, 4)
	if out != nil {
		t.Fatal("discard produced a list")
	}
	if want := 10000 * 10; n != want {
		t.Fatalf("discard count %d, want %d", n, want)
	}
	// Empty driver.
	re := buildRel(t, ids, "e", nil)
	spec.Discard = false
	out2, _, n2 := RunPipeline(RelationSource{Rel: re}, spec, desc, 0, 4)
	if n2 != 0 || out2 == nil || out2.Len() != 0 {
		t.Fatalf("empty driver: n=%d out=%v", n2, out2)
	}
}

func TestRunPipelineLimitDelegatesSerial(t *testing.T) {
	ids := storage.NewIDGen()
	ra := buildRel(t, ids, "a", modVals(5000, 8))
	rb := buildRel(t, ids, "b", modVals(80, 8))
	var m meter.Counters
	tb := exec.BuildStageTable(RelationSource{Rel: rb}, 0, 0, &m)
	desc := storage.Descriptor{Sources: []string{"a", "b"}}
	spec := exec.PipelineSpec{
		Slots:      2,
		DriverSlot: 0,
		Stages:     []exec.StageSpec{{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0}},
		Limit:      13,
		Meter:      &m,
	}
	out, _, n := RunPipeline(RelationSource{Rel: ra}, spec, desc, 0, 8)
	if n != 13 || out.Len() != 13 {
		t.Fatalf("limit 13: n=%d out=%d", n, out.Len())
	}
}

// stageRel creates a relation (k <kt>, g int, r ref→b) from keys; g is
// i%3 (the residual edge's column) and r, when refs is non-nil, holds
// refs[i]. It returns the tuples in insertion order.
func stageRel(t testing.TB, ids *storage.IDGen, name string, kt storage.Type, keys []storage.Value, refs []*storage.Tuple) (*storage.Relation, []*storage.Tuple) {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "k", Type: kt},
		storage.FieldDef{Name: "g", Type: storage.Int},
		storage.FieldDef{Name: "r", Type: storage.Ref, ForeignKey: "b"},
	)
	rel, err := storage.NewRelation(name, schema, storage.Config{}, ids)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*storage.Tuple, len(keys))
	for i, k := range keys {
		ref := storage.NullValue
		if refs != nil {
			ref = storage.RefValue(refs[i])
		}
		if tuples[i], err = rel.Insert([]storage.Value{k, storage.IntValue(int64(i % 3)), ref}); err != nil {
			t.Fatal(err)
		}
	}
	return rel, tuples
}

// intKeys returns n Int keys f(i), with every nullEvery-th key NULL
// (nullEvery 0: none).
func intKeys(n, nullEvery int, f func(i int) int64) []storage.Value {
	out := make([]storage.Value, n)
	for i := range out {
		if nullEvery > 0 && i%nullEvery == 0 {
			continue // NullValue
		}
		out[i] = storage.IntValue(f(i))
	}
	return out
}

// strKeys returns n Str keys "k<i mod mod>".
func strKeys(n, mod int) []storage.Value {
	out := make([]storage.Value, n)
	for i := range out {
		out[i] = storage.StringValue(fmt.Sprintf("k%d", i%mod))
	}
	return out
}

// TestStageTablesMatchChainedReference is the differential test of the
// pipeline's flat stage tables: each a ⋈ b ⋈ c pipeline runs once with
// BuildStageTable stages and once with a chained-bucket hash index behind
// IndexStage — the reference — at workers 1 and 4 and under a Limit, and
// the two must produce the same multiset of (a, b, c) tuple triples (a
// Limit run: the right number of rows, every one of them a reference row).
func TestStageTablesMatchChainedReference(t *testing.T) {
	zipf, err := workload.BuildZipf(workload.ZipfSpec{Cardinality: 2000, Domain: 200}, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	const driverRows = 4000
	cases := []struct {
		name     string
		kt       storage.Type
		a, b, c  []storage.Value
		self     bool // stage b joins a.r to b's identity (SelfField)
		residual bool // stage c also checks a.g = c.g
	}{
		{name: "unique", kt: storage.Int,
			a: intKeys(driverRows, 0, func(i int) int64 { return int64(i % 600) }),
			b: intKeys(500, 0, func(i int) int64 { return int64(i) }),
			c: intKeys(300, 0, func(i int) int64 { return int64(i) })},
		{name: "duplicates", kt: storage.Int,
			a: intKeys(driverRows, 0, func(i int) int64 { return int64(i % 60) }),
			b: intKeys(400, 0, func(i int) int64 { return int64(i % 50) }),
			c: intKeys(100, 0, func(i int) int64 { return int64(i % 50) })},
		{name: "hot-key", kt: storage.Int,
			a: intKeys(driverRows, 0, func(i int) int64 { return int64(i % 200) }),
			b: intKeys(len(zipf.Values), 0, func(i int) int64 { return zipf.Values[i] }),
			c: intKeys(200, 0, func(i int) int64 { return int64(i) })},
		{name: "null-keys", kt: storage.Int,
			a: intKeys(driverRows, 50, func(i int) int64 { return int64(i % 40) }),
			b: intKeys(120, 10, func(i int) int64 { return int64(i % 40) }),
			c: intKeys(80, 10, func(i int) int64 { return int64(i % 40) })},
		{name: "str-keys", kt: storage.Str,
			a: strKeys(driverRows, 90), b: strKeys(150, 75), c: strKeys(60, 30)},
		{name: "self-field", kt: storage.Int, self: true,
			a: intKeys(driverRows, 0, func(i int) int64 { return int64(i) }),
			b: intKeys(300, 0, func(i int) int64 { return int64(i % 20) }),
			c: intKeys(40, 0, func(i int) int64 { return int64(i % 20) })},
		{name: "residual", kt: storage.Int, residual: true,
			a: intKeys(driverRows, 0, func(i int) int64 { return int64(i % 50) }),
			b: intKeys(200, 0, func(i int) int64 { return int64(i % 50) }),
			c: intKeys(100, 0, func(i int) int64 { return int64(i % 50) })},
		{name: "empty-build", kt: storage.Int,
			a: intKeys(driverRows, 0, func(i int) int64 { return int64(i % 10) }),
			b: nil,
			c: intKeys(10, 0, func(i int) int64 { return int64(i) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ids := storage.NewIDGen()
			rb, bt := stageRel(t, ids, "b", tc.kt, tc.b, nil)
			rc, _ := stageRel(t, ids, "c", tc.kt, tc.c, nil)
			var refs []*storage.Tuple
			if tc.self {
				refs = make([]*storage.Tuple, len(tc.a))
				for i := range refs {
					if i%11 != 0 { // every 11th a row points nowhere
						refs[i] = bt[(i*7)%len(bt)]
					}
				}
			}
			ra, _ := stageRel(t, ids, "a", tc.kt, tc.a, refs)
			bField, bProbe := 0, 0
			if tc.self {
				bField, bProbe = tupleindex.SelfField, 2
			}
			var residual []exec.ResidualEdge
			if tc.residual {
				residual = []exec.ResidualEdge{{ASlot: 0, AField: 1, BSlot: 2, BField: 1}}
			}
			spec := func(tb, tcTable exec.StageTable, limit int) exec.PipelineSpec {
				return exec.PipelineSpec{
					Slots:      3,
					DriverSlot: 0,
					Stages: []exec.StageSpec{
						{Table: tb, BuildField: bField, BuildSlot: 1, ProbeSlot: 0, ProbeField: bProbe},
						{Table: tcTable, BuildField: 0, BuildSlot: 2, ProbeSlot: 1, ProbeField: 0, Residual: residual},
					},
					Limit: limit,
				}
			}
			chained := func(rel *storage.Relation, field int) exec.StageTable {
				ix := tupleindex.NewChainHash(tupleindex.Options{Field: field, Capacity: rel.Cardinality()})
				rel.ScanPhysical(func(tp *storage.Tuple) bool { ix.Insert(tp); return true })
				return exec.IndexStage{Index: ix}
			}
			desc := storage.Descriptor{Sources: []string{"a", "b", "c"}}
			refOut, _, _ := RunPipeline(RelationSource{Rel: ra}, spec(chained(rb, bField), chained(rc, 0), 0), desc, 0, 1)
			want := tripleSet(refOut)
			if tc.name != "empty-build" && refOut.Len() == 0 {
				t.Fatal("reference pipeline produced no rows: the case tests nothing")
			}

			var m meter.Counters
			fb := exec.BuildStageTable(RelationSource{Rel: rb}, bField, 0, &m)
			fc := exec.BuildStageTable(RelationSource{Rel: rc}, 0, 0, &m)
			defer radix.PutTable(fb)
			defer radix.PutTable(fc)
			for _, w := range []int{1, 4} {
				got, _, n := RunPipeline(RelationSource{Rel: ra}, spec(fb, fc, 0), desc, 0, w)
				if n != refOut.Len() {
					t.Fatalf("w=%d: %d rows, reference %d", w, n, refOut.Len())
				}
				if diff := tripleDiff(want, tripleSet(got)); diff != "" {
					t.Fatalf("w=%d: %s", w, diff)
				}
				const limit = 7
				lim, _, _ := RunPipeline(RelationSource{Rel: ra}, spec(fb, fc, limit), desc, 0, w)
				if wantN := min(limit, refOut.Len()); lim.Len() != wantN {
					t.Fatalf("w=%d limit %d: %d rows, want %d", w, limit, lim.Len(), wantN)
				}
				left := tripleSet(refOut)
				for k, v := range tripleSet(lim) {
					if left[k] -= v; left[k] < 0 {
						t.Fatalf("w=%d limit %d: row %v is not a reference row", w, limit, k)
					}
				}
			}
		})
	}
}

// tripleSet counts a three-source list's rows by tuple identity.
func tripleSet(l *storage.TempList) map[[3]*storage.Tuple]int {
	out := map[[3]*storage.Tuple]int{}
	l.Scan(func(_ int, row storage.Row) bool {
		out[[3]*storage.Tuple{row[0], row[1], row[2]}]++
		return true
	})
	return out
}

// tripleDiff describes the first difference between two triple
// multisets, or returns "" when they are equal.
func tripleDiff(want, got map[[3]*storage.Tuple]int) string {
	for k, v := range want {
		if got[k] != v {
			return fmt.Sprintf("row %v: %d times, reference %d", k, got[k], v)
		}
	}
	for k, v := range got {
		if want[k] != v {
			return fmt.Sprintf("row %v: %d times, reference %d", k, v, want[k])
		}
	}
	return ""
}
