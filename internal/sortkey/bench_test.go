package sortkey

import (
	"math/rand"
	"testing"

	"repro/internal/sortutil"
	"repro/internal/storage"
)

// The microbenchmark pair behind the PR's headline: the comparator
// quicksort on boxed Values (the §3.1 substrate every sort-based
// operator used to run on) against the normalized-key radix kernel on
// the same data. Allocations are the hard regression signal — the warm
// radix path must stay at zero — and the ns/op ratio is the crossover
// evidence.

func benchValues(n int) []storage.Value {
	rng := rand.New(rand.NewSource(42))
	vals := make([]storage.Value, n)
	for i := range vals {
		vals[i] = storage.IntValue(rng.Int63() - rng.Int63())
	}
	return vals
}

// BenchmarkComparatorSort1M is the baseline: sortutil's Hoare quicksort
// calling storage.Compare through a function value, one indirect call
// per comparison.
func BenchmarkComparatorSort1M(b *testing.B) {
	const n = 1 << 20
	master := benchValues(n)
	work := make([]storage.Value, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, master)
		sortutil.SortMetered(work, storage.Compare, nil)
	}
}

// BenchmarkRadixKeySort1M sorts the same keys through the normalized-
// key kernel: one Prefix per value, then MSD radix scatter.
func BenchmarkRadixKeySort1M(b *testing.B) {
	const n = 1 << 20
	master := benchValues(n)
	s := NewSorter[int32]()
	ent := make([]Entry[int32], n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range master {
			k, _ := Prefix(master[j])
			ent[j] = Entry[int32]{K: k, P: int32(j)}
		}
		s.Sort(ent, nil, nil)
	}
}

// BenchmarkRadixKernel1M isolates the kernel (keys pre-encoded): the
// pure scatter + short-run cost, excluding encoding.
func BenchmarkRadixKernel1M(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(42))
	master := make([]Entry[int32], n)
	for i := range master {
		master[i] = Entry[int32]{K: rng.Uint64(), P: int32(i)}
	}
	work := make([]Entry[int32], n)
	s := NewSorter[int32]()
	copy(work, master)
	s.Sort(work, nil, nil) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, master)
		s.Sort(work, nil, nil)
	}
}
