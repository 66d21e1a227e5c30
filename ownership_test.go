package mmdb

import (
	"strings"
	"sync"
	"testing"
)

// fingerprint renders every value of a result, in row order.
func fingerprint(r *Result) string {
	var b strings.Builder
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Row(i) {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestHeldResultsSurviveChunkRecycling is the ownership hammer for the
// move/adopt/release discipline of execute: results a caller holds must
// stay byte-identical while eight goroutines run scans, joins, groupings,
// orderings, DISTINCTs and limits whose intermediates are released into —
// and redrawn from — the shared chunk pool. A result list that shared a
// chunk with a released intermediate would be cleared or overwritten here,
// and the race detector would see the write.
func TestHeldResultsSurviveChunkRecycling(t *testing.T) {
	const rows = 20000
	db := openKeyed(t, Options{}, rows, 97)
	b, err := db.CreateTable("b", []Field{{Name: "k", Type: TypeInt}, {Name: "w", Type: TypeInt}}, "k", TTree)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 97; k++ {
		if _, err := b.Insert(Int(int64(k)), Int(int64(k*k))); err != nil {
			t.Fatal(err)
		}
	}
	above50 := 0
	for i := 0; i < rows; i++ {
		if i*7919%97 > 50 {
			above50++
		}
	}
	kinds := []struct {
		name string
		rows int
		mk   func() *Query
	}{
		{"scan", rows, func() *Query { return db.Query("a").Select("id", "k") }},
		{"filter", above50, func() *Query { return db.Query("a").Where("k", Gt, Int(50)).Select("id") }},
		{"point", 1, func() *Query { return db.Query("a").Where("id", Eq, Int(777)) }},
		{"range", 300, func() *Query { return db.Query("a").Where("id", Ge, Int(100)).Where("id", Lt, Int(400)).Select("k") }},
		{"join", rows, func() *Query { return db.Query("a").Join("b", "k", "k").Select("a.id", "b.w") }},
		{"group", 97, func() *Query { return db.Query("a").GroupBy("k").Agg(AggCount, "*").Agg(AggSum, "id") }},
		{"order", rows, func() *Query { return db.Query("a").Select("k", "id").OrderBy("k", true).OrderBy("id", false) }},
		{"topk", 10, func() *Query { return db.Query("a").Select("id").OrderBy("id", true).Limit(10) }},
		{"distinct", 97, func() *Query { return db.Query("a").Select("k").Distinct() }},
		{"distinct-head", 5, func() *Query { return db.Query("a").Select("k").Distinct().Limit(5) }},
	}
	held := make([]*Result, len(kinds))
	want := make([]string, len(kinds))
	for i, k := range kinds {
		res, err := k.mk().Parallel(4).Run()
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if res.Len() != k.rows {
			t.Fatalf("%s: %d rows, want %d", k.name, res.Len(), k.rows)
		}
		held[i], want[i] = res, fingerprint(res)
	}
	check := func(when string) {
		for i, k := range kinds {
			if fingerprint(held[i]) != want[i] {
				t.Errorf("%s: the held %s result changed", when, k.name)
			}
		}
	}

	const goroutines, rounds = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := kinds[(g+r)%len(kinds)]
				par := 1 + 3*((g+r)%2)
				res, err := k.mk().Parallel(par).Run()
				if err != nil {
					t.Errorf("%s: %v", k.name, err)
					return
				}
				if res.Len() != k.rows {
					t.Errorf("%s at %d workers: %d rows, want %d", k.name, par, res.Len(), k.rows)
					return
				}
			}
		}(g)
	}
	check("during the hammer")
	wg.Wait()
	check("after the hammer")
}
