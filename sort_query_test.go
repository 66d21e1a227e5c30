package mmdb

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestSortDistinctSubstrates: an explicit sort strategy switches
// DISTINCT to the §3.4 Sort Scan on that substrate; both substrates and
// the default hash path must keep exactly the same distinct rows.
func TestSortDistinctSubstrates(t *testing.T) {
	const rows = 12000
	db := openBig(t, Options{}, rows)
	mk := func() *Query { return db.Query("a").Select("k").Distinct() }

	hash, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	quick, trq, err := mk().SortMethod(SortQuicksort).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	radix, trr, err := mk().SortMethod(SortRadix).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if hash.Len() != 97 || quick.Len() != 97 || radix.Len() != 97 {
		t.Fatalf("distinct kept %d/%d/%d rows, want 97", hash.Len(), quick.Len(), radix.Len())
	}
	sameMultiset(t, "distinct quick", multiset(t, hash), multiset(t, quick))
	sameMultiset(t, "distinct radix", multiset(t, hash), multiset(t, radix))

	node := func(tr *QueryTrace) *TraceNode {
		for _, n := range tr.Root.Children {
			if n.Op == "distinct" {
				return n
			}
		}
		return nil
	}
	qn, rn := node(trq), node(trr)
	if qn == nil || qn.AccessPath != "sort-scan duplicate elimination (quicksort)" {
		t.Fatalf("quicksort distinct node = %+v", qn)
	}
	if rn == nil || rn.AccessPath != "sort-scan duplicate elimination (radix-key sort)" {
		t.Fatalf("radix distinct node = %+v", rn)
	}
	if rn.Ops.SortPasses == 0 || rn.Ops.KeyBytes == 0 {
		t.Fatalf("radix distinct recorded no kernel work: %+v", rn.Ops)
	}
	if !strings.Contains(trr.Format(), "sort: passes=") {
		t.Fatalf("radix distinct trace missing sort line:\n%s", trr.Format())
	}
}

// TestSortAutoCrossover: under SortAuto the chooser must keep
// paper-scale sorts on the §3.1 comparator quicksort and upgrade to the
// normalized-key radix kernel only past the configured crossover — here
// lowered so the same 12000-row ORDER BY flips sides.
func TestSortAutoCrossover(t *testing.T) {
	const rows = 12000
	orderBy := func(db *Database) string {
		_, tr, err := db.Query("a").Select("id", "k").OrderBy("k", false).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return tr.Format()
	}
	below := orderBy(openBig(t, Options{}, rows)) // default crossover: 64Ki rows ≫ sort size
	if !strings.Contains(below, "full sort (quicksort)") || strings.Contains(below, "sort: passes=") {
		t.Fatalf("below crossover should run the comparator quicksort:\n%s", below)
	}
	above := orderBy(tuned(openBig(t, Options{}, rows), tuning{sort: plan.SortConfig{MinRows: 1}}))
	if !strings.Contains(above, "full sort (radix-key sort)") || !strings.Contains(above, "sort: passes=") {
		t.Fatalf("above crossover should run the radix kernel:\n%s", above)
	}
}
