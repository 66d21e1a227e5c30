package mmdb

import (
	"fmt"
	"testing"
)

// BenchmarkTwoWayHashJoin measures two-relation hash joins below the
// radix crossover through the public API, 100k rows each side, at one
// worker and at four — join traffic the benchmark spine does not run (its
// two-way joins are radix-sized). The first shape joins l ⋈ r on a column
// neither side indexes, every l row matching exactly one r row, so the
// join builds its own table. The indexed-point shape joins one l row (a
// point selection) to r through r's hash index, which the join probes in
// place instead of building a table over all of r.
func BenchmarkTwoWayHashJoin(b *testing.B) {
	const rows = 100000
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	l, err := db.CreateTable("l", []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}}, "id", TTree)
	if err != nil {
		b.Fatal(err)
	}
	r, err := db.CreateTable("r", []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "h", Type: TypeInt}}, "id", TTree)
	if err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		// 7919 is prime to 100k, so l.k is a permutation of r.k.
		if err := tx.Insert(l, Int(int64(i)), Int(int64(i*7919%rows))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Insert(r, Int(int64(i)), Int(int64(i)), Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if _, err := r.CreateIndex("r_h", "h", ModLinearHash); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		query func() *Query
		want  int
	}{
		{"", func() *Query { return db.Query("l").Join("r", "k", "k") }, rows},
		{"indexed-point/", func() *Query { return db.Query("l").Where("id", Eq, Int(42)).Join("r", "k", "h") }, 1},
	} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%sworkers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := c.query().Select("l.id", "r.id").Parallel(workers).Run()
					if err != nil || res.Len() != c.want {
						b.Fatalf("join returned %d rows, %v", res.Len(), err)
					}
				}
			})
		}
	}
}
