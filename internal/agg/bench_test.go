package agg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Microbenchmarks: the naive map baseline against the flat and
// radix-partitioned groupers, and the bounded heap against the full
// sort. TestWarmGrouperZeroAlloc pins the warm grouper's allocations.

const benchRows = 256 << 10

func benchList(b *testing.B, groups int) *storage.TempList {
	b.Helper()
	rng := rand.New(rand.NewSource(1986))
	rows := make([]struct {
		dept string
		sal  *int64
	}, benchRows)
	for i := range rows {
		rows[i].dept = fmt.Sprintf("d%05d", rng.Intn(groups))
		if rng.Intn(20) != 0 {
			v := int64(rng.Intn(1 << 20))
			rows[i].sal = &v
		}
	}
	return deptSal(b, rows)
}

var benchSpecs = []agg.Spec{
	{Kind: agg.Count, Col: -1, Name: "COUNT(*)"},
	{Kind: agg.Sum, Col: 1, Name: "SUM(sal)"},
	{Kind: agg.Avg, Col: 1, Name: "AVG(sal)"},
}

func BenchmarkAggNaiveMap256k(b *testing.B) {
	list := benchList(b, 1024)
	var m meter.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.NaiveMapAgg(list, []int{0}, benchSpecs, &m)
	}
}

func BenchmarkAggFlatTable256k(b *testing.B) {
	list := benchList(b, 1024)
	var m meter.Counters
	g := agg.Get()
	defer agg.Put(g)
	g.Run(list, []int{0}, benchSpecs, nil, &m) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(list, []int{0}, benchSpecs, nil, &m)
	}
}

func BenchmarkAggRadixPartitioned256k(b *testing.B) {
	list := benchList(b, 1024)
	var m meter.Counters
	_, bits := plan.ChooseAggMethod(benchRows, plan.AggConfig{MinRows: 1})
	g := agg.Get()
	defer agg.Put(g)
	g.Run(list, []int{0}, benchSpecs, bits, &m) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(list, []int{0}, benchSpecs, bits, &m)
	}
}

func BenchmarkTopKHeap256k(b *testing.B) {
	list := benchList(b, 1024)
	keys := []exec.OrderKey{{Col: 1, Desc: true}}
	var m meter.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.TopKRows(list, keys, 10, &m)
	}
}

func BenchmarkTopKFullSort256k(b *testing.B) {
	list := benchList(b, 1024)
	keys := []exec.OrderKey{{Col: 1, Desc: true}}
	var m meter.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.OrderRows(list, keys, plan.SortRadixKey, &m)
	}
}
