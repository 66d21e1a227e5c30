package ttree

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/index/indextest"
	"repro/internal/meter"
)

func factory(cfg index.Config[indextest.Entry]) index.Ordered[indextest.Entry] {
	return New(cfg)
}

func TestConformance(t *testing.T) {
	indextest.RunOrdered(t, factory, indextest.Options{
		ProbeAllocs: 1,
		Validate: func(impl index.Ordered[indextest.Entry]) error {
			return impl.(*Tree[indextest.Entry]).Validate()
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

func posOf(k int64) index.Pos[int64] {
	return func(e int64) int {
		switch {
		case e < k:
			return -1
		case e > k:
			return 1
		default:
			return 0
		}
	}
}

func TestHeightIsLogarithmic(t *testing.T) {
	// 30k entries, node size 30: a balanced binary tree of ~1000 nodes
	// should be around 10 levels; an unbalanced one would be far taller.
	tr := intTree(30, true)
	for i := int64(0); i < 30000; i++ {
		tr.Insert(i) // sorted insertion order is the adversarial case
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := tr.Stats().Nodes
	maxH := int(1.45*math.Log2(float64(nodes)+2)) + 2 // AVL height bound
	if h := tr.Height(); h > maxH {
		t.Fatalf("height %d exceeds AVL bound %d for %d nodes", h, maxH, nodes)
	}
}

func TestInternalNodesStayNearFull(t *testing.T) {
	// The min/max gap exists so internal nodes stay densely packed under a
	// mixed workload; verify average internal occupancy is near max.
	tr := intTree(20, false)
	rng := rand.New(rand.NewSource(5))
	live := map[int64]bool{}
	for i := 0; i < 30000; i++ {
		k := rng.Int63n(8000)
		if rng.Intn(3) == 0 && len(live) > 0 {
			// delete a random-ish live key
			for d := range live {
				tr.Delete(d)
				delete(live, d)
				break
			}
		} else if !live[k] {
			tr.Insert(k)
			live[k] = true
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	occ, internal := tr.NodeOccupancies()
	sum, n := 0, 0
	for i := range occ {
		if internal[i] {
			sum += occ[i]
			n++
		}
	}
	if n == 0 {
		t.Skip("no internal nodes")
	}
	if avg := float64(sum) / float64(n); avg < 17 {
		t.Fatalf("average internal occupancy %.1f of max 20 — expected near-full", avg)
	}
}

func TestGLBTransferOnOverflow(t *testing.T) {
	// Fill one node, then insert a value bounded by it: the minimum must
	// migrate to a leaf, keeping search correct.
	tr := intTree(4, true)
	for _, k := range []int64{10, 20, 30, 40} {
		tr.Insert(k)
	}
	tr.Insert(25) // bounded by [10,40], node full
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{10, 20, 25, 30, 40} {
		if _, ok := tr.Search(posOf(k)); !ok {
			t.Fatalf("key %d lost after overflow", k)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestDeleteUnderflowBorrowsGLB(t *testing.T) {
	// Build a tree with an internal node, then delete from it until it
	// underflows; the tree must stay valid and complete.
	tr := intTree(4, true)
	for i := int64(0); i < 40; i++ {
		tr.Insert(i)
	}
	for i := int64(0); i < 40; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	for i := int64(0); i < 40; i++ {
		_, ok := tr.Search(posOf(i))
		if ok != (i%2 == 1) {
			t.Fatalf("key %d presence=%v", i, ok)
		}
	}
}

func TestDrainToEmpty(t *testing.T) {
	tr := intTree(6, true)
	const n = 500
	perm := rand.New(rand.NewSource(9)).Perm(n)
	for _, k := range perm {
		tr.Insert(int64(k))
	}
	for _, k := range perm {
		if !tr.Delete(int64(k)) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len=%d after drain", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tree is reusable after draining.
	tr.Insert(1)
	if _, ok := tr.Search(posOf(1)); !ok {
		t.Fatal("reuse after drain failed")
	}
}

func TestCursorCoIteration(t *testing.T) {
	tr := intTree(8, true)
	for i := int64(0); i < 100; i++ {
		tr.Insert(i * 2)
	}
	c := tr.First()
	var got []int64
	for c.Valid() {
		got = append(got, c.Entry())
		c.Next()
	}
	if len(got) != 100 {
		t.Fatalf("cursor visited %d entries", len(got))
	}
	for i, k := range got {
		if k != int64(i*2) {
			t.Fatalf("cursor out of order at %d: %d", i, k)
		}
	}
}

func TestRotationsAreRareWithGap(t *testing.T) {
	// §3.2.1: the min/max gap "significantly reduces the need for tree
	// rotations" under a mix of inserts and deletes. Compare rotation
	// counts: same workload, node size 30 vs an AVL-like tree (node size
	// 2 ~ nearly one element per node rotates much more).
	workload := func(nodeSize int) int64 {
		var m meter.Counters
		tr := New(index.Config[int64]{
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
			NodeSize: nodeSize,
			Meter:    &m,
		})
		rng := rand.New(rand.NewSource(77))
		var live []int64
		for i := 0; i < 20000; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				k := rng.Int63n(1 << 40)
				tr.Insert(k)
				live = append(live, k)
			} else {
				j := rng.Intn(len(live))
				tr.Delete(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return m.Rotations
	}
	big, small := workload(30), workload(2)
	if big*5 > small {
		t.Fatalf("node size 30 did %d rotations vs %d at node size 2 — gap not reducing rotations", big, small)
	}
}

func TestPropertyInsertDeleteMirror(t *testing.T) {
	f := func(keys []int16) bool {
		tr := intTree(5, false)
		for i, k := range keys {
			tr.Insert(int64(k))
			if i%7 == 0 {
				if tr.Validate() != nil {
					return false
				}
			}
		}
		if tr.Len() != len(keys) {
			return false
		}
		for _, k := range keys {
			if !tr.Delete(int64(k)) {
				return false
			}
		}
		return tr.Len() == 0 && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsShape(t *testing.T) {
	tr := intTree(30, true)
	for i := int64(0); i < 30000; i++ {
		tr.Insert(i)
	}
	s := tr.Stats()
	if s.Entries != 30000 {
		t.Fatalf("Entries=%d", s.Entries)
	}
	if s.ChildPtrs != 3*s.Nodes || s.ControlWords != 2*s.Nodes {
		t.Fatalf("per-node accounting wrong: %+v", s)
	}
	// Storage factor for medium nodes should be modest (paper: ~1.5).
	if f := index.PaperModel.Factor(s); f < 1.0 || f > 1.8 {
		t.Fatalf("storage factor %.2f out of expected band", f)
	}
}

func TestNodeBoundsDefaulting(t *testing.T) {
	tr := intTree(0, false)
	if tr.maxCount != DefaultNodeSize || tr.minCount != DefaultNodeSize-DefaultMinGap {
		t.Fatalf("bounds = (%d,%d)", tr.minCount, tr.maxCount)
	}
	tr = intTree(1, false)
	if tr.maxCount < 2 {
		t.Fatalf("max %d < 2", tr.maxCount)
	}
}

// meteredTree is a unique int64 tree at the default node size whose
// counters the caller reads.
func meteredTree(m *meter.Counters) *Tree[int64] {
	tr := intTree(0, true)
	tr.m = m
	return tr
}

// TestAscendingInsertTakesTheFastPath: 250k ascending keys each go
// straight to the rightmost node at one compare, where the descent from
// the root cost 6,017,832 compares in all. The tree is built by the same
// insertAtEdge calls as before, so moves, node allocations and rotations
// are the counts the descent produced.
func TestAscendingInsertTakesTheFastPath(t *testing.T) {
	const n = 250_000
	var m meter.Counters
	tr := meteredTree(&m)
	for i := int64(0); i < n; i++ {
		tr.Insert(i)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Comparisons > n {
		t.Errorf("%d compares for %d ascending inserts, want at most one each", m.Comparisons, n)
	}
	if m.DataMoves != 241_666 || m.Allocations != 8_334 || m.Rotations != 8_320 {
		t.Errorf("moves %d, allocations %d, rotations %d; the descent path gives 241666, 8334, 8320",
			m.DataMoves, m.Allocations, m.Rotations)
	}
}

// TestRandomInsertCountsUnchanged: a key below the maximum pays the one
// extra compare and then descends as before, so a random load builds the
// same tree (moves, allocations and rotations as the descent alone gave)
// for at most one more compare an insert.
func TestRandomInsertCountsUnchanged(t *testing.T) {
	const n = 250_000
	const descentCompares = 5_294_882 // the same load with no fast path
	var m meter.Counters
	tr := meteredTree(&m)
	for _, k := range rand.New(rand.NewSource(4)).Perm(n) {
		tr.Insert(int64(k))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.DataMoves != 3_504_826 || m.Allocations != 11_688 || m.Rotations != 126 {
		t.Errorf("moves %d, allocations %d, rotations %d; the descent path gives 3504826, 11688, 126",
			m.DataMoves, m.Allocations, m.Rotations)
	}
	if m.Comparisons > descentCompares+n {
		t.Errorf("%d compares, want at most %d (%d + one an insert)", m.Comparisons, descentCompares+n, descentCompares)
	}
}

// TestSearchAboveMaximumIsOneCompare: a point search for a key above the
// maximum (a unique check before an ascending insert) is answered at the
// rightmost node; a key inside the range descends as before.
func TestSearchAboveMaximumIsOneCompare(t *testing.T) {
	var m meter.Counters
	tr := meteredTree(&m)
	for i := int64(0); i < 10_000; i++ {
		tr.Insert(i * 2)
	}
	m = meter.Counters{}
	if _, ok := tr.Search(posOf(20_000)); ok {
		t.Fatal("found a key above the maximum")
	}
	if m.Comparisons != 1 || m.NodesVisited != 1 {
		t.Fatalf("search above the maximum: %d compares, %d nodes, want 1 and 1", m.Comparisons, m.NodesVisited)
	}
	for _, k := range []int64{0, 19_998, 5_000} {
		if _, ok := tr.Search(posOf(k)); !ok {
			t.Fatalf("key %d not found", k)
		}
	}
	if _, ok := tr.Search(posOf(5_001)); ok {
		t.Fatal("found an odd key")
	}
	if _, ok := intTree(0, true).Search(posOf(1)); ok {
		t.Fatal("found a key in an empty tree")
	}
}

// TestLastPointerFollowsTheMaximum: the validator checks that the last
// pointer is the rightmost node, after every step of sequences that move
// the maximum every way — deleting it, growing below it, random inserts
// and deletes, and draining the tree.
func TestLastPointerFollowsTheMaximum(t *testing.T) {
	check := func(what string, tr *Tree[int64]) {
		t.Helper()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, size := range []int{2, 4, 30} {
		tr := intTree(size, false)
		// Ascending, with the maximum deleted every third step.
		for i := int64(0); i < 600; i++ {
			tr.Insert(i)
			if i%3 == 2 {
				tr.Delete(i)
			}
			check("ascending/delete-max", tr)
		}
		// Descending below the maximum, then delete the maximum down.
		for i := int64(-1); i > -600; i-- {
			tr.Insert(i)
			check("descending", tr)
		}
		rng := rand.New(rand.NewSource(int64(size)))
		live := []int64{}
		tr.ScanBatches(nil, func(b []int64) bool { live = append(live, b...); return true })
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(4); {
			case r == 0 && len(live) > 0: // delete the maximum
				max := live[0]
				j := 0
				for i, k := range live {
					if k > max {
						max, j = k, i
					}
				}
				if !tr.Delete(max) {
					t.Fatalf("delete max %d failed", max)
				}
				live = append(live[:j], live[j+1:]...)
			case r == 1 && len(live) > 0: // delete a random key
				j := rng.Intn(len(live))
				if !tr.Delete(live[j]) {
					t.Fatalf("delete %d failed", live[j])
				}
				live = append(live[:j], live[j+1:]...)
			default:
				k := rng.Int63n(2000) - 1000
				tr.Insert(k)
				live = append(live, k)
			}
			check("random", tr)
		}
		for _, k := range live {
			tr.Delete(k)
			check("drain", tr)
		}
		if tr.Len() != 0 {
			t.Fatalf("Len=%d after drain", tr.Len())
		}
		tr.Insert(7)
		check("reuse", tr)
	}
}

// TestSearchBesideAscendingInserter: point searches under a shared latch
// run beside an inserter that takes it exclusively and appends ascending
// keys — the engine's S(relation)/X(relation) discipline. Under -race the
// last pointer, which writers move and searches read, must not race.
func TestSearchBesideAscendingInserter(t *testing.T) {
	const n = 20_000
	tr := intTree(8, true)
	var mu sync.RWMutex
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				k := rng.Int63n(n + 100)
				mu.RLock()
				_, ok := tr.Search(posOf(k))
				size := int64(tr.Len())
				mu.RUnlock()
				if ok != (k < size) {
					t.Errorf("search %d beside %d keys: found=%v", k, size, ok)
					return
				}
			}
		}(int64(r))
	}
	for i := int64(0); i < n; i++ {
		mu.Lock()
		tr.Insert(i)
		mu.Unlock()
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
