package mmdb

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestRadixJoinMatchesChained: forcing the cache-conscious radix hash
// join must yield exactly the paper-faithful chained-bucket join's
// result multiset, and EXPLAIN ANALYZE must attribute the method and
// its partitioning stats.
func TestRadixJoinMatchesChained(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{}, rows)
	mk := func(s JoinStrategy) *Query {
		return db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
			Select("a.id", "b.id").Parallel(4).JoinMethod(s)
	}

	chained, trc, err := mk(JoinChained).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	radix, trr, err := mk(JoinRadix).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "radix-vs-chained", multiset(t, chained), multiset(t, radix))

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
		t.Fatalf("chained join node = %+v, want Hash Join", cj)
	}
	if cj.Partitions != 0 {
		t.Fatalf("chained join reports radix partitions: %+v", cj)
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
// the rows the flat table keeps, the trace must attribute the partitioning,
// and the join-method knob must not fork DISTINCT.
func TestPartitionedDistinctMatchesFlat(t *testing.T) {
	const rows = 12000
	flatDB := openBig(t, Options{}, rows)
	partDB := tuned(openBig(t, Options{}, rows), tuning{agg: plan.AggConfig{MinRows: 1}})
	mk := func(db *Database) *Query {
		return db.Query("a").Select("k").Distinct().Parallel(1)
	}
	flat, trf, err := mk(flatDB).JoinMethod(JoinRadix).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	part, trp, err := mk(partDB).JoinMethod(JoinChained).Analyze()
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

// TestJoinAutoCrossover: under JoinAuto the chooser must keep
// paper-scale builds on the original chained algorithm and upgrade to
// radix only past the configured crossover — here lowered so the same
// 6000-row build flips sides.
func TestJoinAutoCrossover(t *testing.T) {
	const rows = 12000
	below := openBig(t, Options{}, rows) // default crossover: 128Ki rows ≫ build
	_, tr, err := below.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Format(), "Hash Join") || strings.Contains(tr.Format(), "Radix") {
		t.Fatalf("below crossover should run chained Hash Join:\n%s", tr.Format())
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

// TestJoinMethodDatabaseDefault: there is no database-wide join method;
// the per-query hint steers a join both ways.
func TestJoinMethodDatabaseDefault(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{}, rows)
	q := func() *Query {
		return db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k")
	}
	_, tr, err := q().JoinMethod(JoinRadix).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Format(), "Radix Hash Join") {
		t.Fatalf("per-query JoinRadix ignored:\n%s", tr.Format())
	}
	_, tr2, err := q().JoinMethod(JoinChained).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tr2.Format(), "Radix") {
		t.Fatalf("per-query JoinChained did not override:\n%s", tr2.Format())
	}
}

// TestRadixJoinSerialWorker: JoinRadix at Parallel(1) still runs the
// partitioned algorithm (serially) and still matches the serial join.
func TestRadixJoinSerialWorker(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{}, rows)
	mk := func(s JoinStrategy) *Query {
		return db.Query("a").Where("id", Gt, Int(-1)).Join("b", "k", "k").
			Select("a.id", "b.id").Parallel(1).JoinMethod(s)
	}
	serial, err := mk(JoinChained).Run()
	if err != nil {
		t.Fatal(err)
	}
	radix, tr, err := mk(JoinRadix).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "serial-radix", multiset(t, serial), multiset(t, radix))
	if !strings.Contains(tr.Format(), "Radix Hash Join") {
		t.Fatalf("Parallel(1) JoinRadix did not run radix:\n%s", tr.Format())
	}
}
