package mmdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/radix"
	"repro/internal/sched"
)

// A multi-join's stage tables are pooled radix.Tables: built per query,
// shared read-only by the pipeline's workers, and returned to the pool
// once the pipeline has returned. These tests hold both halves of that
// contract: a table is never recycled while a worker may still probe it,
// and every table comes back, even from a cancelled query.

// starData is a star fact(id, k1, k2, k3) ⋈ d1/d2/d3(id, k) on fact.kN =
// dN.k, kept beside the database for the nested-loop reference. Every
// dimension holds each of its keys dup times.
type starData struct {
	fact [][4]int64 // id, k1, k2, k3
	dims [3][][2]int64
}

// openDupStar loads a star of factRows fact rows and dimensions of
// dimRows rows whose keys repeat dup times; fact keys range a tenth past
// each dimension's keys, so some fact rows dangle.
func openDupStar(t testing.TB, factRows int, dimRows [3]int, dup int) (*Database, starData) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var data starData
	tx := db.Begin()
	for d, n := range dimRows {
		tb, err := db.CreateTable(fmt.Sprintf("d%d", d+1), []Field{{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}}, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := [2]int64{int64(i), int64(i / dup)}
			if err := tx.Insert(tb, Int(row[0]), Int(row[1])); err != nil {
				t.Fatal(err)
			}
			data.dims[d] = append(data.dims[d], row)
		}
	}
	fact, err := db.CreateTable("fact", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k1", Type: TypeInt}, {Name: "k2", Type: TypeInt}, {Name: "k3", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < factRows; i++ {
		row := [4]int64{int64(i)}
		for d, n := range dimRows {
			keys := n/dup + n/dup/10 + 1
			row[d+1] = int64(i*(7+2*d)) % int64(keys)
		}
		if err := tx.Insert(fact, Int(row[0]), Int(row[1]), Int(row[2]), Int(row[3])); err != nil {
			t.Fatal(err)
		}
		data.fact = append(data.fact, row)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, data
}

// starQueryIDs selects the four ids of every star row.
func starQueryIDs(db *Database) *Query {
	return db.Query("fact").Join("d1", "fact.k1", "k").Join("d2", "fact.k2", "k").Join("d3", "fact.k3", "k").
		Select("fact.id", "d1.id", "d2.id", "d3.id")
}

// nestedLoopStar is the reference: every (fact, d1, d2, d3) combination
// whose keys match, over fact rows with id < maxID, in multiset's format.
func nestedLoopStar(data starData, maxID int64) map[string]int {
	out := map[string]int{}
	for _, f := range data.fact {
		if f[0] >= maxID {
			continue
		}
		for _, a := range data.dims[0] {
			if a[1] != f[1] {
				continue
			}
			for _, b := range data.dims[1] {
				if b[1] != f[2] {
					continue
				}
				for _, c := range data.dims[2] {
					if c[1] == f[3] {
						out[fmt.Sprintf("%d|%d|%d|%d|", f[0], a[0], b[0], c[0])]++
					}
				}
			}
		}
	}
	return out
}

// multisetDiff describes the first difference between two multisets, or
// returns "" when they are equal.
func multisetDiff(want, got map[string]int) string {
	for k, v := range want {
		if got[k] != v {
			return fmt.Sprintf("row %q %d times, reference %d", k, got[k], v)
		}
	}
	for k, v := range got {
		if want[k] != v {
			return fmt.Sprintf("row %q %d times, reference %d", k, v, want[k])
		}
	}
	return ""
}

// TestPooledStageTablesUnderRace: four goroutines run star queries at
// Parallel(4) — every stage table shared by the pipeline's workers, then
// returned to the pool and redrawn, resized, by another query — and every
// result must equal the nested-loop reference. A table recycled while a
// worker still probed it would lose rows here, and the race detector
// would see the reset.
func TestPooledStageTablesUnderRace(t *testing.T) {
	db, data := openDupStar(t, 12000, [3]int{1600, 400, 60}, 2)
	all := int64(len(data.fact))
	kinds := []struct {
		name string
		ref  map[string]int
		mk   func() *Query
	}{
		// The planner's order: fact streams, the dimensions are built.
		{"auto", nestedLoopStar(data, all), func() *Query { return starQueryIDs(db) }},
		// d1 streams and fact is built: a 12k-entry stage table.
		{"fact-built", nestedLoopStar(data, all), func() *Query {
			return starQueryIDs(db).ForceJoinOrder("d1", "fact", "d2", "d3")
		}},
		// A filtered from-table, built from the filter's list.
		{"filtered", nestedLoopStar(data, 9000), func() *Query {
			return starQueryIDs(db).Where("fact.id", Lt, Int(9000)).ForceJoinOrder("d2", "fact", "d1", "d3")
		}},
	}
	for _, k := range kinds {
		if len(k.ref) == 0 {
			t.Fatalf("%s: the reference is empty, the query tests nothing", k.name)
		}
	}
	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := kinds[(g+r)%len(kinds)]
				res, err := k.mk().Parallel(4).Run()
				if err != nil {
					t.Errorf("g%d r%d %s: %v", g, r, k.name, err)
					return
				}
				if diff := multisetDiff(k.ref, multiset(t, res)); diff != "" {
					t.Errorf("g%d r%d %s: %s", g, r, k.name, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCancelMidPipelineReturnsStageTables cancels a large star pipeline
// while its workers probe the stage tables (the
// TestCancelMidJoinReleasesPoolWorkers pattern, with the cancel timed off
// the live registry instead of a fuse): all three tables must still come
// back to the pool, and none before the pipeline's workers have stopped.
func TestCancelMidPipelineReturnsStageTables(t *testing.T) {
	// Most fact rows match 4×4×4 dimension rows: ≈0.8M output rows.
	db, _ := openDupStar(t, 20000, [3]int{80, 80, 80}, 4)
	var returned, early atomic.Int64
	putStageTable = func(tbl *radix.Table) {
		if sched.Shared().SnapshotStats().Busy != 0 {
			early.Add(1)
		}
		returned.Add(1)
		radix.PutTable(tbl)
	}
	defer func() { putStageTable = radix.PutTable }()

	probing := func() bool {
		for _, a := range db.ActiveQueries() {
			if a.Phase == "join" && a.BusyWorkers > 0 {
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < 5; attempt++ {
		before := returned.Load()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := starQueryIDs(db).ForceJoinOrder("fact", "d1", "d2", "d3").Parallel(4).WithContext(ctx).Run()
			done <- err
		}()
		var err error
		finished := false
		for !finished && !probing() {
			select {
			case err = <-done:
				finished = true
			case <-time.After(50 * time.Microsecond):
			}
		}
		cancel()
		if finished {
			continue // the query outran the poll; try again
		}
		err = <-done
		if err == nil {
			continue // the query outran the cancel; try again
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled star returned %v, want context.Canceled", err)
		}
		if n := early.Load(); n != 0 {
			t.Fatalf("%d stage tables returned while pool workers were still busy", n)
		}
		if got := returned.Load() - before; got != 3 {
			t.Fatalf("star cancelled mid-pipeline returned %d stage tables to the pool, want 3", got)
		}
		return
	}
	t.Skip("no cancel landed inside the pipeline; machine too fast for a live-registry cancel")
}
