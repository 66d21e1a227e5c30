package mmdb

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestSortAutoCrossover: the chooser must keep paper-scale sorts on the §3.1 comparator quicksort and upgrade to the
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
