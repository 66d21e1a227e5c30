package mmdb

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestRadixJoinMatchesHashJoin: the cache-conscious radix hash join (a
// lowered crossover) must yield exactly the result multiset of the Hash
// Join the default crossover runs, and EXPLAIN ANALYZE must attribute the
// method and its partitioning stats.
func TestRadixJoinMatchesHashJoin(t *testing.T) {
	const rows = 12000
	mk := func(db *Database) *Query {
		return db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
			Select("a.id", "b.id").Parallel(4)
	}

	hash, trc, err := mk(openBig(t, Options{}, rows)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	radix, trr, err := mk(tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "radix-vs-hash", multiset(t, hash), multiset(t, radix))

	var cj, rj *TraceNode
	for _, n := range trc.Root.Children {
		if n.Op == "join" {
			cj = n
		}
	}
	for _, n := range trr.Root.Children {
		if n.Op == "join" {
			rj = n
		}
	}
	if cj == nil || cj.AccessPath != "Hash Join" {
		t.Fatalf("default join node = %+v, want Hash Join", cj)
	}
	if cj.Partitions != 0 {
		t.Fatalf("Hash Join reports radix partitions: %+v", cj)
	}
	if rj == nil || rj.AccessPath != "Radix Hash Join" {
		t.Fatalf("radix join node = %+v, want Radix Hash Join", rj)
	}
	if rj.RadixPasses < 1 || rj.Partitions < 4 || rj.PartitionSkew <= 0 {
		t.Fatalf("radix join stats missing: passes=%d parts=%d skew=%v",
			rj.RadixPasses, rj.Partitions, rj.PartitionSkew)
	}
	if rj.Ops.RadixPasses == 0 || rj.Ops.Partitions == 0 {
		t.Fatalf("radix join §3.1 counters not folded: %+v", rj.Ops)
	}
	if !strings.Contains(trr.Format(), "radix: passes=") {
		t.Fatalf("formatted trace missing radix line:\n%s", trr.Format())
	}
	if !strings.Contains(radix.Plan(), "Radix Hash Join") {
		t.Fatalf("executed plan missing radix method:\n%s", radix.Plan())
	}
}

// TestPartitionedDistinctMatchesFlat: past the aggregation crossover the
// serial keys-only run radix-partitions its input; it must keep exactly
// the rows the flat table keeps, and the trace must attribute the
// partitioning.
func TestPartitionedDistinctMatchesFlat(t *testing.T) {
	const rows = 12000
	flatDB := openBig(t, Options{}, rows)
	partDB := tuned(openBig(t, Options{}, rows), tuning{agg: plan.AggConfig{MinRows: 1}})
	mk := func(db *Database) *Query {
		return db.Query("a").Select("k").Distinct().Parallel(1)
	}
	flat, trf, err := mk(flatDB).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	part, trp, err := mk(partDB).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if part.Len() != 97 || flat.Len() != 97 {
		t.Fatalf("distinct kept %d/%d rows, want 97", part.Len(), flat.Len())
	}
	sameMultiset(t, "distinct", multiset(t, flat), multiset(t, part))
	node := func(tr *QueryTrace) *TraceNode {
		for _, n := range tr.Root.Children {
			if n.Op == "distinct" {
				return n
			}
		}
		t.Fatalf("no distinct node:\n%s", tr.Format())
		return nil
	}
	if fn := node(trf); fn.AccessPath != "hash duplicate elimination, keys-only flat-table hash agg" || fn.Partitions != 0 {
		t.Fatalf("flat distinct node = %+v", fn)
	}
	pn := node(trp)
	if pn.AccessPath != "hash duplicate elimination, keys-only radix-partitioned hash agg" {
		t.Fatalf("partitioned distinct node = %+v", pn)
	}
	if pn.Partitions < 4 || pn.RadixPasses < 1 || pn.Ops.RadixPasses == 0 || pn.Ops.Partitions == 0 {
		t.Fatalf("partitioned distinct stats missing: %+v", pn)
	}
}

// TestJoinAutoCrossover: the chooser must keep paper-scale builds on the
// one-stage Hash Join and upgrade to radix only past the configured
// crossover — here lowered so the same
// 6000-row build flips sides.
func TestJoinAutoCrossover(t *testing.T) {
	const rows = 12000
	below := openBig(t, Options{}, rows) // default crossover: 128Ki rows ≫ build
	_, tr, err := below.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Format(), "Hash Join") || strings.Contains(tr.Format(), "Radix") {
		t.Fatalf("below crossover should run the Hash Join:\n%s", tr.Format())
	}

	above := tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	_, tr2, err := above.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr2.Format(), "Radix Hash Join") {
		t.Fatalf("above crossover should upgrade to radix:\n%s", tr2.Format())
	}
}

// TestRadixJoinSerialWorker: the radix join at Parallel(1) still runs
// the partitioned algorithm (serially) and still matches the nested-loop
// reference.
func TestRadixJoinSerialWorker(t *testing.T) {
	const rows = 12000
	db := tuned(openBig(t, Options{}, rows), tuning{radix: plan.RadixConfig{MinBuildRows: 1}})
	radix, tr, err := db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
		Select("a.id", "b.id").Parallel(1).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// openBig's a(id=i, k=i%97) and b(id=j, k=j%97) as reference columns.
	col := func(n int) twoWayCol {
		c := twoWayCol{ids: make([]int64, n), keys: make([]int64, n)}
		for i := range c.ids {
			c.ids[i], c.keys[i] = int64(i), int64(i%97)
		}
		return c
	}
	want := nestedLoop(col(rows), col(rows/2), func(int) bool { return true })
	sameMultiset(t, "serial-radix", want, multiset(t, radix))
	if !strings.Contains(tr.Format(), "Radix Hash Join") {
		t.Fatalf("Parallel(1) did not run radix:\n%s", tr.Format())
	}
}
