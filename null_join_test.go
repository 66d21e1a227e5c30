package mmdb

import (
	"fmt"
	"testing"

	"repro/internal/plan"
)

// TestNullJoinKeyMatchesNothing: a(1,NULL),(2,5) ⋈ b(1,NULL),(2,5) on k
// returns one row — SQL's NULL equals nothing, not even NULL — under
// every join method the planner can run: Tree Merge, Tree Join, an
// existing hash index, a built stage table, the radix hash join (a
// lowered crossover), the precomputed join, and a closing edge checked as
// a residual, at 1 and 4 workers. b carries filler rows so its T Tree is
// more than twice a filtered a, which is what picks Tree Join.
func TestNullJoinKeyMatchesNothing(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "h", Type: TypeInt}, {Name: "c", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateTable("a", []Field{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt}, {Name: "r", Type: TypeRef, ForeignKey: "b"},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(Int(1), Null, Null, Null); err != nil {
		t.Fatal(err)
	}
	b5, err := b.Insert(Int(2), Int(5), Int(5), Int(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := b.Insert(Int(10+i), Int(100+i), Int(100+i), Int(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Insert(Int(1), Null, Null); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(Int(2), Int(5), Ref(b5)); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		tbl       *Table
		name, col string
		kind      IndexKind
	}{{a, "a_k", "k", TTree}, {b, "b_k", "k", TTree}, {b, "b_h", "h", ModLinearHash}} {
		if _, err := ix.tbl.CreateIndex(ix.name, ix.col, ix.kind); err != nil {
			t.Fatal(err)
		}
	}

	// head starts the plan line naming the method; a join with a closing
	// edge runs as a pipeline, whose stage line names the probe instead.
	const head = "join a ⋈ b: "
	shapes := []struct {
		name, head string
		query      func() *Query
	}{
		{"both T Trees", head, func() *Query { return db.Query("a").Join("b", "k", "k") }},
		{"inner T Tree", head, func() *Query { return db.Query("a").Where("id", Le, Int(2)).Join("b", "k", "k") }},
		{"hash index", head, func() *Query { return db.Query("a").Join("b", "k", "h") }},
		{"built table", head, func() *Query { return db.Query("a").Join("b", "k", "c") }},
		{"pointer", head, func() *Query { return db.Query("a").Join("b", "r", Self) }},
		{"closing edge", "join ⋈ b: ", func() *Query {
			return db.Query("a").Join("b", "id", "id").On("a.k", "b.k").ForceJoinOrder("a", "b")
		}},
	}
	ran := map[string]bool{}
	for _, s := range shapes {
		for _, radixMin := range []int{0, 1} { // tuning.radix.MinBuildRows; 0 = the default
			tuned(db, tuning{radix: plan.RadixConfig{MinBuildRows: radixMin}})
			for _, par := range []int{1, 4} {
				what := fmt.Sprintf("%s radixMinBuildRows=%d par=%d", s.name, radixMin, par)
				res, err := s.query().Select("a.id", "b.id").Parallel(par).Run()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				method := joinMethodIn(t, res.Plan(), s.head)
				ran[method] = true
				if res.Len() != 1 || res.Row(0)[0].Int() != 2 || res.Row(0)[1].Int() != 2 {
					t.Errorf("%s (%s): %d rows, want only (2, 2)", what, method, res.Len())
				}
			}
		}
	}
	for _, m := range []string{"Tree Merge join", "Tree Join", "Hash Join", "Radix Hash Join", "precomputed join", "hash probe"} {
		if !ran[m] {
			t.Errorf("no shape ran %s (ran %v)", m, ran)
		}
	}
}
