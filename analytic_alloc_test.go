package mmdb

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/plan"
)

// Allocation guards of the analytic path: a stage boundary moves chunks,
// so what a query allocates follows its output, not its input.

// TestWarmDistinctAllocsFollowOutput: SELECT DISTINCT over 200k rows with
// 20k distinct keys materializes no key vector — the keys-only aggregation
// run is allocation-free, the projection moves, the intermediates are
// released — and the 20k-row result leaves settled into one slab, so a
// warm run allocates ≈23 objects, whatever the row counts. A result that
// kept a pooled chunk per 256 rows cost ≈100; materialized keys, ≈2.8 an
// input row.
func TestWarmDistinctAllocsFollowOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 200k-row table")
	}
	const rows, keys = 200000, 20000
	ceiling := 40
	if raceEnabled {
		// The race detector drops a quarter of the pool's puts, so the
		// 200k-row intermediates draw fresh chunks: ≈270.
		ceiling = rows / 50
	}
	db := openKeyed(t, Options{}, rows, keys)
	run := func() {
		res, err := db.Query("a").Select("k").Distinct().Run()
		if err != nil || res.Len() != keys {
			t.Fatalf("distinct returned %d rows, %v", res.Len(), err)
		}
	}
	run()
	run()
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("warm SELECT DISTINCT: %.0f allocations over %d rows", allocs, rows)
	if allocs > float64(ceiling) {
		t.Errorf("warm SELECT DISTINCT allocates %.0f times over %d rows, ceiling %d", allocs, rows, ceiling)
	}
}

// TestWarmGroupBytesPerGroup: a group's output row is its representative
// row pointer plus one 8-byte payload per Int output column (the key,
// COUNT(*) and SUM), so a warm GROUP BY allocates ≈34 B a group, all told.
// Kept as 24-byte values, the three columns cost ≈82 B a group; inserted
// as one stored tuple per group into a throw-away relation, ≈146 B.
// 250k rows over 125k key values give ≈108k groups, the shape of the
// benchmark's group_hi.
func TestWarmGroupBytesPerGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 250k-row table")
	}
	if raceEnabled {
		t.Skip("the race detector pads heap objects")
	}
	const rows = 250000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("f", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "g", Type: TypeInt},
		{Name: "v", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if err := tx.Insert(tab, Int(int64(i)), Int(int64(rng.Intn(rows/2))), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	groups := 0
	run := func() {
		res, err := db.Query("f").GroupBy("g").Agg(AggCount, "*").Agg(AggSum, "v").Run()
		if err != nil {
			t.Fatal(err)
		}
		groups = res.Len()
	}
	run() // publishes the snapshot
	// The least over several runs, as the benchmark reports it: a run
	// after the collector emptied the grouper pool pays for refilling it.
	perGroup := 0.0
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / float64(groups); i == 0 || b < perGroup {
			perGroup = b
		}
	}
	t.Logf("warm GROUP BY: %d groups, %.1f B allocated a group", groups, perGroup)
	if perGroup > 40 {
		t.Errorf("warm GROUP BY allocates %.1f B a group over %d groups, ceiling 40", perGroup, groups)
	}
}

// quiesced returns the objects and bytes fn allocates, counted as
// testing.AllocsPerRun counts them: with GOMAXPROCS at 1 while fn runs,
// so that no goroutine allocates in parallel with fn into the
// process-wide counts. A goroutine fn waits on still runs, and counts.
func quiesced(fn func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestResultAllocsIndependentOfRows: a result leaves the engine settled
// into one slab and its pooled chunks go back at once, so a warm full
// ORDER BY, a radix join and a high-NDV GROUP BY allocate the same at 25k
// and at 200k rows. A result that kept its pooled chunks made the next
// query allocate a fresh chunk per 256 output rows: ≈780 more at 200k rows
// for the ORDER BY, ≈730 for the join and ≈340 for the GROUP BY.
func TestResultAllocsIndependentOfRows(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 200k-row tables")
	}
	if raceEnabled {
		t.Skip("the race detector allocates beside the engine")
	}
	shapes := []struct {
		name string
		rows func(rows int) int
		mk   func(db *Database) *Query
	}{
		{"full ORDER BY", func(rows int) int { return rows }, func(db *Database) *Query {
			return db.Query("a").Select("k", "id").OrderBy("k", true).OrderBy("id", false)
		}},
		{"radix join", func(rows int) int { return rows }, func(db *Database) *Query {
			return db.Query("a").Join("b", "k", "id").Select("a.id", "b.id").Parallel(2)
		}},
		{"high-NDV GROUP BY", func(rows int) int { return rows / 2 }, func(db *Database) *Query {
			return db.Query("a").GroupBy("k").Agg(AggCount, "*").Agg(AggSum, "id")
		}},
	}
	measure := func(rows int) []float64 {
		// A 16 KiB partition target reaches the 4-bit cap at both sizes, so
		// the join runs the same 16 partition pairs (each pair's private
		// list costs a few objects). The degree is the machine's, fixed
		// here, because the runs are measured at GOMAXPROCS 1.
		db := tuned(openKeyed(t, Options{Parallelism: runtime.GOMAXPROCS(0)}, rows, rows/2), tuning{radix: plan.RadixConfig{L2Bytes: 16 << 10, MaxBits: 4, MinBuildRows: 1}})
		b, err := db.CreateTable("b", []Field{{Name: "id", Type: TypeInt}}, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < rows/2; i++ {
			if err := tx.Insert(b, Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		allocs := make([]float64, len(shapes))
		for i, s := range shapes {
			run := func() {
				res, err := s.mk(db).Run()
				if err != nil || res.Len() != s.rows(rows) {
					t.Fatalf("%s returned %d rows, %v", s.name, res.Len(), err)
				}
			}
			run()
			run()
			// The least over several runs: a run after the collector emptied
			// a pool pays for refilling it.
			for r := 0; r < 8; r++ {
				objects, _ := quiesced(run)
				if n := float64(objects); r == 0 || n < allocs[i] {
					allocs[i] = n
				}
			}
		}
		return allocs
	}
	small, large := measure(25000), measure(200000)
	for i, s := range shapes {
		t.Logf("warm %s: %.0f allocations at 25k rows, %.0f at 200k", s.name, small[i], large[i])
		if d := large[i] - small[i]; d > 16 || d < -16 {
			t.Errorf("warm %s allocates %.0f times at 25k rows and %.0f at 200k", s.name, small[i], large[i])
		}
	}
}

// TestFilteredScanAllocsIndependentOfTableSize: a 0.1 %-selective filter
// runs inside the scan's morsels, so no list of the table's size is ever
// built: the scan allocates the same on a 10k-row and on a 200k-row table
// (the parent commit copied the table, a chunk per 256 rows, and then
// filtered the copy).
func TestFilteredScanAllocsIndependentOfTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 200k-row table")
	}
	measure := func(rows int) float64 {
		db := openKeyed(t, Options{}, rows, 1000)
		run := func() {
			res, err := db.Query("a").Where("k", Eq, Int(7)).Select("id").Parallel(2).Run()
			if err != nil || res.Len() != rows/1000 {
				t.Fatalf("filter kept %d of %d rows, %v", res.Len(), rows, err)
			}
		}
		run()
		run()
		return testing.AllocsPerRun(20, run)
	}
	small, large := measure(10000), measure(200000)
	t.Logf("filtered scan: %.0f allocations at 10k rows, %.0f at 200k", small, large)
	// The slack is for sync.Pool, which drops a pooled chunk now and then
	// (always, now and then, under the race detector); one chunk per 256
	// rows of the larger table would be ≈780.
	if d := large - small; d > 16 || d < -16 {
		t.Errorf("filtered scan allocates %.0f times at 10k rows and %.0f at 200k", small, large)
	}
}

// TestWarmJoinBytesFollowOutput: a radix join hashes both sides into the
// pooled partitioners' own entry arrays, so a warm 200k ⋈ 200k join
// allocates little beyond its output, a 16-byte row of two tuple
// pointers (the parent commit allocated a fresh 16-byte entry per input
// row of each side besides: ≈3.2× the output).
func TestWarmJoinBytesFollowOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two 200k-row tables")
	}
	if raceEnabled {
		t.Skip("the race detector pads heap objects")
	}
	const rows = 200000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tuned(db, tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	l, err := db.CreateTable("l", []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateTable("r", []Field{{Name: "id", Type: TypeInt}}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		// 7919 is prime to 200k, so k is a permutation of r's ids.
		if err := tx.Insert(l, Int(int64(i)), Int(int64(i*7919%rows))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(r, Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := db.Query("l").Join("r", "k", "id").Select("l.id", "r.id").Parallel(2).Run()
		if err != nil || res.Len() != rows {
			t.Fatalf("join returned %d rows, %v", res.Len(), err)
		}
	}
	run()
	// The least over several runs, as the benchmark reports it: a run
	// after the collector emptied the partitioner pool pays for refilling it.
	least := uint64(0)
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < least {
			least = b
		}
	}
	const output = 16 * rows
	t.Logf("warm radix join: %d B allocated, %.2f× the output's %d B", least, float64(least)/output, output)
	if float64(least) > 1.3*output {
		t.Errorf("warm radix join allocates %d B, over 1.3× the output's %d B", least, output)
	}
}

// TestWarmStarAllocsIndependentOfBuildSize: a pipeline stage builds a
// pooled flat table, so a warm 3-stage star — and a warm two-relation
// hash join, the pipeline with one stage — allocates the same whether
// its dimensions hold 2.5k or 25k rows (chained-bucket builds cost two
// objects per chain node, ≈2 allocations per 4 build rows). The fact side
// and the output are the same at both sizes.
func TestWarmStarAllocsIndependentOfBuildSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 4 tables")
	}
	if raceEnabled {
		t.Skip("the race detector allocates beside the engine")
	}
	const factRows = 20000
	shapes := []struct {
		name  string
		query func(db *Database) *Query
	}{
		{"3-stage star", func(db *Database) *Query {
			return db.Query("f").Join("d1", "f.k1", "id").Join("d2", "f.k2", "id").Join("d3", "f.k3", "id").
				Select("f.id", "d1.a", "d2.a", "d3.a").ForceJoinOrder("f", "d1", "d2", "d3")
		}},
		{"two-relation join", func(db *Database) *Query {
			return db.Query("f").Join("d1", "f.k1", "id").Select("f.id", "d1.a")
		}},
	}
	measure := func(dimRows int) []float64 {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tx := db.Begin()
		for _, name := range []string{"d1", "d2", "d3"} {
			d, err := db.CreateTable(name, []Field{{Name: "id", Type: TypeInt}, {Name: "a", Type: TypeInt}}, "id", TTree)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < dimRows; i++ {
				if err := tx.Insert(d, Int(int64(i)), Int(int64(i%7))); err != nil {
					t.Fatal(err)
				}
			}
		}
		f, err := db.CreateTable("f", []Field{
			{Name: "id", Type: TypeInt}, {Name: "k1", Type: TypeInt}, {Name: "k2", Type: TypeInt}, {Name: "k3", Type: TypeInt},
		}, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < factRows; i++ {
			k := Int(int64(i % 2500)) // every fact row matches once per dimension at both sizes
			if err := tx.Insert(f, Int(int64(i)), k, k, k); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		allocs := make([]float64, len(shapes))
		for i, s := range shapes {
			run := func() {
				res, err := s.query(db).Parallel(2).Run()
				if err != nil || res.Len() != factRows {
					t.Fatalf("%s returned %d rows, %v", s.name, res.Len(), err)
				}
			}
			run()
			run()
			allocs[i] = testing.AllocsPerRun(10, run)
		}
		return allocs
	}
	small, large := measure(2500), measure(25000)
	for i, s := range shapes {
		t.Logf("warm %s: %.0f allocations at 2.5k-row dimensions, %.0f at 25k", s.name, small[i], large[i])
		// The slack is for sync.Pool, which drops a pooled table or chunk now
		// and then; chained-bucket stages would add ≈(25k−2.5k)/2 ≈ 11k a
		// dimension.
		if d := large[i] - small[i]; d > 16 || d < -16 {
			t.Errorf("warm %s allocates %.0f times at 2.5k-row dimensions and %.0f at 25k", s.name, small[i], large[i])
		}
	}
}
