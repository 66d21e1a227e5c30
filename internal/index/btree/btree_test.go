package btree

import (
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

func intTree(nodeSize int, unique bool) *Tree[int64] {
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
		Unique:   unique,
		NodeSize: nodeSize,
	})
}

func TestRootSplitGrowsLevels(t *testing.T) {
	tr := intTree(4, true)
	for i := int64(0); i < 100; i++ {
		tr.Insert(i)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tr.Stats().Nodes < 10 {
		t.Fatalf("tree did not split: %d nodes", tr.Stats().Nodes)
	}
}

func TestRootCollapseOnDrain(t *testing.T) {
	tr := intTree(4, true)
	perm := rand.New(rand.NewSource(2)).Perm(200)
	for _, k := range perm {
		tr.Insert(int64(k))
	}
	for i, k := range perm {
		if !tr.Delete(int64(k)) {
			t.Fatalf("delete %d failed", k)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after delete %d (#%d): %v", k, i, err)
		}
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Fatal("tree not empty after drain")
	}
}

func TestDataInInternalNodes(t *testing.T) {
	// The original B Tree keeps data in internal nodes: with 1000 entries
	// and node size 10, internal separators are real entries, so total
	// entry slots across all nodes stay close to the entry count (unlike a
	// B+ tree, which duplicates keys upward).
	tr := intTree(10, true)
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i)
	}
	s := tr.Stats()
	sum := 0
	var countItems func(n *node[int64])
	countItems = func(n *node[int64]) {
		if n == nil {
			return
		}
		sum += len(n.items)
		for _, c := range n.children {
			countItems(c)
		}
	}
	countItems(tr.root)
	if sum != 1000 {
		t.Fatalf("items across nodes = %d, want exactly 1000 (no duplicated keys)", sum)
	}
	if s.Entries != 1000 {
		t.Fatalf("Stats.Entries=%d", s.Entries)
	}
}

func TestPropertyMirrorsUniqueSet(t *testing.T) {
	f := func(keys []uint16, nodeSizeSeed uint8) bool {
		ns := 2 + int(nodeSizeSeed)%20
		tr := intTree(ns, true)
		ref := map[int64]bool{}
		for _, k := range keys {
			kk := int64(k)
			if got, want := tr.Insert(kk), !ref[kk]; got != want {
				return false
			}
			ref[kk] = true
		}
		if tr.Len() != len(ref) {
			return false
		}
		if tr.checkInvariants() != nil {
			return false
		}
		for k := range ref {
			if _, ok := tr.Search(func(e int64) int {
				switch {
				case e < k:
					return -1
				case e > k:
					return 1
				default:
					return 0
				}
			}); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageFactorMediumNodes(t *testing.T) {
	tr := intTree(30, true)
	for i := int64(0); i < 30000; i++ {
		tr.Insert(i)
	}
	// Paper: B Trees "had nearly equal storage factors of 1.5 for medium
	// to large size nodes".
	if f := index.PaperModel.Factor(tr.Stats()); f < 1.1 || f > 2.2 {
		t.Fatalf("storage factor %.2f far from the paper's ~1.5", f)
	}
}
