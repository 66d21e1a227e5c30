package avltree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.RunOrdered(t,
		func(cfg index.Config[indextest.Entry]) index.Ordered[indextest.Entry] {
			return New(cfg)
		},
		indextest.Options{
			ProbeAllocs: 2, // the key closure and the height-sized iterator stack
			Validate: func(impl index.Ordered[indextest.Entry]) error {
				return impl.(*Tree[indextest.Entry]).checkInvariants()
			},
		})
}

func intTree(unique bool) *Tree[int64] {
	return New(index.Config[int64]{
		Cmp: func(a, b int64) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		},
		Unique: unique,
	})
}

func TestHeightBound(t *testing.T) {
	tr := intTree(true)
	const n = 30000
	for i := int64(0); i < n; i++ {
		tr.Insert(i) // sorted order is adversarial for an unbalanced BST
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	maxH := int(1.45*math.Log2(n+2)) + 2
	if h := height(tr.root); h > maxH {
		t.Fatalf("height %d exceeds AVL bound %d", h, maxH)
	}
}

func TestDeleteTwoChildrenUsesSuccessor(t *testing.T) {
	tr := intTree(true)
	for _, k := range []int64{50, 30, 70, 20, 40, 60, 80} {
		tr.Insert(k)
	}
	if !tr.Delete(50) { // root with two children
		t.Fatal("delete root failed")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	tr.ScanBatches(nil, func(b []int64) bool { got = append(got, b...); return true })
	want := []int64{20, 30, 40, 60, 70, 80}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPropertyRandomDrain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := intTree(false)
		keys := make([]int64, 200)
		for i := range keys {
			keys[i] = rng.Int63n(50) // heavy duplicates
			tr.Insert(keys[i])
		}
		if tr.checkInvariants() != nil {
			return false
		}
		for _, k := range keys {
			if !tr.Delete(k) {
				return false
			}
		}
		return tr.Len() == 0 && tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMatchPaperFactor(t *testing.T) {
	tr := intTree(true)
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i)
	}
	// §3.2.2: "the AVL Tree storage factor was 3 because of the two node
	// pointers it needs for each data item".
	if f := index.PaperModel.Factor(tr.Stats()); f != 3.0 {
		t.Fatalf("storage factor %.2f, want 3.0", f)
	}
}
