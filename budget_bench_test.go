package mmdb

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// The memory-budgeted skew defenses under load: a Zipf-skewed radix
// join under a budget far below its build tables. It reports the joined
// row count via b.ReportMetric; every generated key lies inside the probe
// relation's unique-key domain, so the cardinality equals the build
// cardinality exactly on every machine — a defense that drops or
// duplicates rows shows even if it got faster.

const skewBenchRows = 60000

func openSkewJoin(b *testing.B) *Database {
	b.Helper()
	db, err := Open(Options{MemoryBudget: 32 << 10})
	if err != nil {
		b.Fatal(err)
	}
	// Radix at any build size: the bench measures the budgeted radix
	// path, not the crossover.
	tuned(db, tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	probe, err := db.CreateTable("probe", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < skewBenchRows; i++ {
		if _, err := probe.Insert(Int(int64(i)), Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	keys, err := workload.BuildZipf(
		workload.ZipfSpec{Cardinality: skewBenchRows}, rand.New(rand.NewSource(1986)))
	if err != nil {
		b.Fatal(err)
	}
	build, err := db.CreateTable("build", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys.Values {
		if _, err := build.Insert(Int(int64(i)), Int(k)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkSkewJoinDefended(b *testing.B) {
	db := openSkewJoin(b)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := db.Query("probe").Join("build", "k", "k").
			Select("probe.id", "build.id").Parallel(4).Run()
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	b.ReportMetric(float64(rows), "rows")
}
