package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/sched"
	"repro/internal/storage"
)

// aggList builds a (grp int, val int) list; ~10% NULL values.
func aggList(t testing.TB, n int, groups int, seed int64) *storage.TempList {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fields := []storage.FieldDef{
		{Name: "grp", Type: storage.Int},
		{Name: "val", Type: storage.Int},
	}
	rel, err := storage.NewRelation("a", storage.MustSchema(fields...), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	cols := []storage.ColRef{
		{Source: 0, Field: 0, Name: "grp"},
		{Source: 0, Field: 1, Name: "val"},
	}
	list := storage.MustTempListHint(storage.Descriptor{Sources: []string{"a"}, Cols: cols}, n)
	for i := 0; i < n; i++ {
		val := storage.NullValue
		if rng.Intn(10) != 0 {
			val = storage.IntValue(int64(rng.Intn(10000) - 5000))
		}
		tp, err := rel.Insert([]storage.Value{storage.IntValue(int64(rng.Intn(groups))), val})
		if err != nil {
			t.Fatal(err)
		}
		list.AppendOne(tp)
	}
	return list
}

// byRep maps each group's representative row to its finished aggregates.
func byRep(specs []agg.Spec, res agg.Result) map[int32][]string {
	out := make(map[int32][]string, res.Groups())
	for g := 0; g < res.Groups(); g++ {
		finals := make([]string, len(specs))
		for s := range specs {
			finals[s] = fmt.Sprint(agg.Final(specs[s].Kind, res.Cells[g*len(specs)+s]))
		}
		out[res.Reps[g]] = finals
	}
	return out
}

// TestParallelHashAggMatchesSerial: the partial-aggregate + partitioned
// merge path must produce the serial grouper's groups — the same
// representative rows, so every group is its key's first occurrence, with
// the same finals — and the same Groups count, at every worker count,
// powers of two or not. Keys are an Int column with NULLs, a Float column
// with NULL, NaN (two payloads) and ±0, a Str column, and two-column keys
// with the Str column; aggregates include MIN/MAX over strings.
func TestParallelHashAggMatchesSerial(t *testing.T) {
	null := storage.Value{}
	floats := []storage.Value{
		storage.FloatValue(0), storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(math.NaN()),
		storage.FloatValue(math.Float64frombits(0x7ff8000000000001)), storage.FloatValue(1.5),
		storage.FloatValue(-2), storage.FloatValue(math.Inf(-1)), null,
	}
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	rows := make([][]storage.Value, n)
	for r := range rows {
		iv, sv := storage.IntValue(int64(rng.Intn(300))), storage.StringValue(fmt.Sprintf("s%02d", rng.Intn(40)))
		if rng.Intn(13) == 0 {
			iv = null
		}
		if rng.Intn(17) == 0 {
			sv = null
		}
		rows[r] = []storage.Value{iv, floats[rng.Intn(len(floats))], sv, storage.BoolValue(r%2 == 0)}
	}
	list := over(t, distinctInput(t, rows), 0, 1, 2, 3)
	specs := []agg.Spec{
		{Kind: agg.Count, Col: -1, Name: "COUNT(*)"},
		{Kind: agg.Count, Col: 0, Name: "COUNT(i)"},
		{Kind: agg.Sum, Col: 0, Name: "SUM(i)"},
		{Kind: agg.Min, Col: 0, Name: "MIN(i)"},
		{Kind: agg.Max, Col: 0, Name: "MAX(i)"},
		{Kind: agg.Avg, Col: 0, Name: "AVG(i)"},
		{Kind: agg.Min, Col: 2, Name: "MIN(s)"},
		{Kind: agg.Max, Col: 2, Name: "MAX(s)"},
	}
	keySets := [][]int{{0}, {1}, {2}, {0, 2}, {1, 2}}
	type serial struct {
		groups map[int32][]string
		count  int64
	}
	want := make([]serial, len(keySets))
	for i, gcols := range keySets {
		var sm meter.Counters
		sg := agg.Get()
		want[i] = serial{byRep(specs, sg.Run(list, gcols, specs, nil, &sm)), sm.Groups}
		agg.Put(sg)
	}
	for _, w := range []int{1, 2, 3, 4, 5, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			for i, gcols := range keySets {
				var pm meter.Counters
				pg := agg.Get()
				got := byRep(specs, HashAgg(nil, nil, pg, list, gcols, specs, nil, w, &pm))
				agg.Put(pg)
				if len(got) != len(want[i].groups) {
					t.Fatalf("keys %v: %d groups, want %d", gcols, len(got), len(want[i].groups))
				}
				for rep, wv := range want[i].groups {
					gv, ok := got[rep]
					if !ok {
						t.Fatalf("keys %v: row %d is the serial run's representative, not the parallel run's", gcols, rep)
					}
					if fmt.Sprint(gv) != fmt.Sprint(wv) {
						t.Fatalf("keys %v group of row %d: %v, want %v", gcols, rep, gv, wv)
					}
				}
				if pm.Groups != want[i].count {
					t.Fatalf("keys %v: Groups=%d, serial %d (each group must be counted once)", gcols, pm.Groups, want[i].count)
				}
			}
		})
	}
}

// TestHashAggAllocsPerCall: a warm 2-worker HashAgg allocates at most
// what the one-phase call with its serial merge did (13 objects), though
// it now runs two task sets: the call's state, the run bookkeeping and the
// scheduler's task sets are all recycled.
func TestHashAggAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled objects at random under the race detector")
	}
	p := sched.NewPool(2)
	defer p.Stop()
	sq := sched.NewQuery(p, nil, 0)
	list := aggList(t, 20000, 300, 5)
	specs := []agg.Spec{{Kind: agg.Count, Col: -1, Name: "COUNT(*)"}, {Kind: agg.Sum, Col: 1, Name: "SUM(val)"}}
	var m meter.Counters
	call := func() {
		g := agg.Get()
		HashAgg(sq, nil, g, list, []int{0}, specs, nil, 2, &m)
		agg.Put(g)
	}
	call()
	allocs := testing.AllocsPerRun(50, call)
	t.Logf("warm 2-worker HashAgg: %.1f allocations a call", allocs)
	if allocs > 13 {
		t.Errorf("a warm 2-worker HashAgg allocates %.1f times, ceiling 13", allocs)
	}
}

// TestParallelTopKMatchesSerial: per-worker heaps + final merge equal the
// serial bounded heap exactly (the ordinal tie-break makes order fully
// deterministic).
func TestParallelTopKMatchesSerial(t *testing.T) {
	list := aggList(t, 12000, 500, 9)
	keys := []exec.OrderKey{{Col: 1, Desc: true}, {Col: 0}}
	for _, k := range []int{1, 10, 100} {
		var sm meter.Counters
		want := exec.TopKRows(list, keys, k, &sm)
		for _, w := range []int{1, 2, 4, 8} {
			var pm meter.Counters
			got := TopK(nil, nil, list, keys, k, w, &pm)
			if len(got) != len(want) {
				t.Fatalf("w=%d k=%d: %d rows, want %d", w, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("w=%d k=%d row %d: %d, want %d", w, k, i, got[i], want[i])
				}
			}
		}
	}
}
