package sortedarray

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/index/indextest"
	"repro/internal/meter"
)

func TestConformance(t *testing.T) {
	indextest.RunOrdered(t,
		func(cfg index.Config[indextest.Entry]) index.Ordered[indextest.Entry] {
			return New(cfg)
		},
		indextest.Options{
			NodeSizes:            []int{0}, // arrays have no node size
			UpdateHeavyQuadratic: true,
			ProbeAllocs:          1,
			Validate: func(impl index.Ordered[indextest.Entry]) error {
				return nil // sortedness is checked by the scan comparisons
			},
		})
}

func intCmp(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func TestBuildSortsBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := make([]int64, 5000)
	for i := range entries {
		entries[i] = rng.Int63n(1000)
	}
	a := Build(index.Config[int64]{Cmp: intCmp}, entries)
	if a.Len() != len(entries) {
		t.Fatalf("Len=%d", a.Len())
	}
	want := append([]int64(nil), entries...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != want[i] {
			t.Fatalf("position %d: %d != %d", i, a.At(i), want[i])
		}
	}
}

func TestUpdateCostIsLinear(t *testing.T) {
	// "Every update requires moving half of the array, on the average"
	// (§3.2.2): measure data movement for mid-array inserts.
	var m meter.Counters
	a := New(index.Config[int64]{Cmp: intCmp, Meter: &m})
	const n = 2000
	for i := int64(0); i < n; i++ {
		a.Insert(i * 2)
	}
	m.Reset()
	a.Insert(n) // middle of the array
	if m.DataMoves < n/4 {
		t.Fatalf("mid insert moved only %d slots; expected ~%d", m.DataMoves, n/2)
	}
}

func TestCapacityHintPreallocates(t *testing.T) {
	a := New(index.Config[int64]{Cmp: intCmp, CapacityHint: 64})
	if got := cap(a.items); got != 64 {
		t.Fatalf("cap=%d", got)
	}
}
