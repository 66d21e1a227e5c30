package parallel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/storage"
)

// distinctInput is the single-source list over a relation of
// (i int, f float, s string, b bool) rows, every column nullable.
func distinctInput(t testing.TB, rows [][]storage.Value) *storage.TempList {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "i", Type: storage.Int},
		storage.FieldDef{Name: "f", Type: storage.Float},
		storage.FieldDef{Name: "s", Type: storage.Str},
		storage.FieldDef{Name: "b", Type: storage.Bool},
	)
	rel, err := storage.NewRelation("d", schema, storage.Config{SlotsPerPartition: 64}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	list := storage.MustTempList(storage.Descriptor{Sources: []string{"d"}})
	for _, r := range rows {
		tp, err := rel.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		list.AppendOne(tp)
	}
	return list
}

// over moves list under a descriptor exposing the given fields.
func over(t testing.TB, list *storage.TempList, fields ...int) *storage.TempList {
	t.Helper()
	cols := make([]storage.ColRef, len(fields))
	for i, f := range fields {
		cols[i] = storage.ColRef{Source: 0, Field: f, Name: fmt.Sprintf("c%d", f)}
	}
	return list.Redescribe(storage.Descriptor{Sources: []string{"d"}, Cols: cols})
}

// TestDistinctMatchesProjectHash: the keys-only aggregation run is
// sequence-equal to the serial §3.4 operator — the same surviving rows in
// the same first-occurrence order — for single- and multi-column keys over
// every value type with NULL, NaN and ±0 keys, for all-equal and
// all-unique inputs, on the flat and the partitioned serial shapes and
// the parallel partitioned merge at 3, 4 and 8 workers; and every shape
// counts each distinct row as one group.
func TestDistinctMatchesProjectHash(t *testing.T) {
	null := storage.Value{}
	floats := []storage.Value{
		storage.FloatValue(0), storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(math.NaN()),
		storage.FloatValue(math.Float64frombits(0x7ff8000000000001)), // a second NaN payload
		storage.FloatValue(1.5), storage.FloatValue(math.Inf(1)), null,
	}
	strs := []storage.Value{storage.StringValue(""), storage.StringValue("a"), storage.StringValue("ab"), null}
	bools := []storage.Value{storage.BoolValue(true), storage.BoolValue(false), null}
	const n = 6000
	mixed := make([][]storage.Value, n)
	equal := make([][]storage.Value, n)
	unique := make([][]storage.Value, n)
	for r := range mixed {
		iv := storage.IntValue(int64(r*7919) % 41)
		if r%13 == 0 {
			iv = null
		}
		mixed[r] = []storage.Value{iv, floats[(r*31)%len(floats)], strs[(r/3)%len(strs)], bools[(r/7)%len(bools)]}
		equal[r] = []storage.Value{storage.IntValue(5), floats[2], strs[1], null}
		unique[r] = []storage.Value{storage.IntValue(int64(r)), storage.FloatValue(float64(r)), storage.StringValue(fmt.Sprint(r)), bools[r%2]}
	}
	for _, w := range []int{1, 3, 4, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			bitsList := [][]uint{nil, {4}}
			if w == 1 {
				bitsList = append(bitsList, []uint{3, 3})
			}
			for _, in := range []struct {
				name string
				rows [][]storage.Value
			}{{"mixed", mixed}, {"all-equal", equal}, {"all-unique", unique}} {
				for _, fields := range [][]int{{0}, {1}, {2}, {3}, {0, 1}, {1, 2, 3}, {0, 1, 2, 3}} {
					list := over(t, distinctInput(t, in.rows), fields...)
					var sm meter.Counters
					want := exec.ProjectHash(list, &sm)
					for _, bits := range bitsList {
						g := agg.Get()
						var pm meter.Counters
						got, stats := Distinct(nil, nil, g, list, bits, w, &pm)
						agg.Put(g)
						what := fmt.Sprintf("%s fields=%v bits=%v", in.name, fields, bits)
						if got.Len() != want.Len() {
							t.Fatalf("%s: kept %d rows, serial %d", what, got.Len(), want.Len())
						}
						for i := 0; i < want.Len(); i++ {
							if got.Row(i)[0] != want.Row(i)[0] {
								t.Fatalf("%s: row %d is not the serial operator's", what, i)
							}
						}
						if pm.HashCalls < sm.HashCalls {
							t.Fatalf("%s: hashed %d keys, serial %d", what, pm.HashCalls, sm.HashCalls)
						}
						if pm.Groups != int64(want.Len()) {
							t.Fatalf("%s: Groups=%d, want the %d distinct rows", what, pm.Groups, want.Len())
						}
						if w == 1 && len(bits) > 0 && (stats.Passes != len(bits) || stats.Rows != n) {
							t.Fatalf("%s: partition stats = %+v", what, stats)
						}
						got.Release()
					}
				}
			}
		})
	}
}

// TestDistinctDegenerate: all-equal rows collapse to their first
// occurrence through one hot partition; empty and single-row lists pass
// through.
func TestDistinctDegenerate(t *testing.T) {
	rel := buildRelation(t, storage.NewIDGen(), "r", make([]int64, 1000))
	desc := storage.Descriptor{Sources: []string{"r"}, Cols: []storage.ColRef{{Source: 0, Field: 0, Name: "val"}}}
	list := storage.MustTempList(desc)
	rel.ScanPhysical(func(tp *storage.Tuple) bool { list.AppendOne(tp); return true })
	g := agg.Get()
	defer agg.Put(g)
	out, stats := Distinct(nil, nil, g, list, []uint{4, 2}, 1, nil)
	if out.Len() != 1 || out.Row(0)[0] != list.Row(0)[0] {
		t.Fatalf("all-equal distinct kept %d rows, want the first occurrence alone", out.Len())
	}
	if stats.MaxPart != 1000 {
		t.Fatalf("MaxPart = %d, want hot partition of 1000", stats.MaxPart)
	}
	one := storage.MustTempList(desc)
	one.AppendOne(list.Row(3)[0])
	if out, _ := Distinct(nil, nil, g, one, []uint{4}, 4, nil); out.Len() != 1 || out.Row(0)[0] != list.Row(3)[0] {
		t.Fatal("single-row distinct is not that row")
	}
	if out, _ := Distinct(nil, nil, g, storage.MustTempList(desc), []uint{4}, 4, nil); out.Len() != 0 {
		t.Fatal("empty list distinct not empty")
	}
}
