package sortkey

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestSortAllocs is the zero-steady-state-allocation guard: once the
// sorter's scratch is warm, sorting allocates nothing — no closures, no
// buffer growth, no boxing. The sorter is held across runs (a pooled
// Get/Put pair inside the measured function could observe a GC-emptied
// pool and re-allocate legitimately).
func TestSortAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1 << 15
	s := NewSorter[int32]()
	master := make([]Entry[int32], n)
	for i := range master {
		master[i] = Entry[int32]{K: rng.Uint64(), P: int32(i)}
	}
	work := make([]Entry[int32], n)
	copy(work, master)
	s.Sort(work, nil, nil) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		copy(work, master)
		s.Sort(work, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm radix sort allocated %.1f objects/run, want 0", allocs)
	}
}

// TestSortAllocsWithTie guards the comparator-fallback path the same
// way: tie-breaking must not allocate either.
func TestSortAllocsWithTie(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 1 << 14
	s := NewSorter[int32]()
	vals := make([]int64, n)
	master := make([]Entry[int32], n)
	for i := range master {
		vals[i] = int64(rng.Intn(64)) // heavy ties
		master[i] = Entry[int32]{K: uint64(vals[i]), P: int32(i)}
	}
	tie := func(a, b int32) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[a] > vals[b]:
			return 1
		default:
			return 0
		}
	}
	work := make([]Entry[int32], n)
	copy(work, master)
	s.Sort(work, tie, nil)
	allocs := testing.AllocsPerRun(10, func() {
		copy(work, master)
		s.Sort(work, tie, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm tie-break sort allocated %.1f objects/run, want 0", allocs)
	}
}

// TestConcurrentSorters sorts disjoint segments of one shared entry
// slice from many workers, each with its own pooled sorter — a parallel
// sort's run formation. Run under -race in CI, it proves the pooled
// scratch never crosses workers and segment boundaries never overlap.
func TestConcurrentSorters(t *testing.T) {
	const (
		workers  = 8
		segments = 64
		segLen   = 4096
	)
	shared := make([]Entry[*storage.Tuple], segments*segLen)
	tuples := testTuples(t, "conc", 4)
	rng := rand.New(rand.NewSource(9))
	for i := range shared {
		shared[i] = Entry[*storage.Tuple]{K: rng.Uint64(), P: tuples[i%len(tuples)]}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSorter[*storage.Tuple]()
			for {
				seg := int(next.Add(1)) - 1
				if seg >= segments {
					return
				}
				s.Sort(shared[seg*segLen:(seg+1)*segLen], nil, nil)
			}
		}()
	}
	wg.Wait()
	for seg := 0; seg < segments; seg++ {
		e := shared[seg*segLen : (seg+1)*segLen]
		for i := 1; i < len(e); i++ {
			if e[i-1].K > e[i].K {
				t.Fatalf("segment %d not sorted at %d", seg, i)
			}
		}
	}
}
