package sortutil

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/meter"
)

func intCmp(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	var empty []int
	SortMetered(empty, intCmp, nil)
	one := []int{42}
	SortMetered(one, intCmp, nil)
	if one[0] != 42 {
		t.Fatalf("single-element sort corrupted slice: %v", one)
	}
}

func TestSortSmallFixed(t *testing.T) {
	cases := [][]int{
		{2, 1},
		{3, 1, 2},
		{1, 2, 3},
		{3, 2, 1},
		{5, 5, 5, 5},
		{9, 1, 8, 2, 7, 3, 6, 4, 5},
		{1, 1, 2, 2, 0, 0, 3, 3},
	}
	for _, c := range cases {
		in := append([]int(nil), c...)
		want := append([]int(nil), c...)
		sort.Ints(want)
		SortMetered(in, intCmp, nil)
		if !equal(in, want) {
			t.Errorf("SortMetered(%v) = %v, want %v", c, in, want)
		}
	}
}

func TestSortMatchesStdlibRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(200) // plenty of duplicates
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		SortMetered(in, intCmp, nil)
		if !equal(in, want) {
			t.Fatalf("trial %d: mismatch for n=%d", trial, n)
		}
	}
}

func TestSortPropertySortedPermutation(t *testing.T) {
	f := func(in []int16) bool {
		s := make([]int, len(in))
		counts := map[int]int{}
		for i, v := range in {
			s[i] = int(v)
			counts[int(v)]++
		}
		SortMetered(s, intCmp, nil)
		if !slices.IsSortedFunc(s, intCmp) {
			return false
		}
		for _, v := range s {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortCutoffVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := make([]int, 5000)
	for i := range in {
		in[i] = rng.Intn(1000)
	}
	want := append([]int(nil), in...)
	sort.Ints(want)
	for _, cutoff := range []int{-5, 0, 1, 2, 5, 10, 25, 100, 10000} {
		s := append([]int(nil), in...)
		SortCutoff(s, intCmp, cutoff, nil)
		if !equal(s, want) {
			t.Errorf("cutoff %d: sort incorrect", cutoff)
		}
	}
}

func TestSortAdversarialShapes(t *testing.T) {
	const n = 4096
	shapes := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return n - i },
		"constant":   func(i int) int { return 7 },
		"sawtooth":   func(i int) int { return i % 17 },
		"organpipe": func(i int) int {
			if i < n/2 {
				return i
			}
			return n - i
		},
	}
	for name, gen := range shapes {
		s := make([]int, n)
		for i := range s {
			s[i] = gen(i)
		}
		want := append([]int(nil), s...)
		sort.Ints(want)
		var m meter.Counters
		SortMetered(s, intCmp, &m)
		if !equal(s, want) {
			t.Errorf("%s: incorrect sort", name)
		}
		// Median-of-three quicksort should stay well below quadratic on
		// these classic adversarial shapes: n^2 comparisons would be ~16M.
		if m.Comparisons > 40*int64(n)*13 { // generous n log n bound
			t.Errorf("%s: %d comparisons looks quadratic", name, m.Comparisons)
		}
	}
}

func TestSortStabilityNotRequiredButDeterministic(t *testing.T) {
	a := []int{3, 1, 2}
	b := []int{3, 1, 2}
	SortMetered(a, intCmp, nil)
	SortMetered(b, intCmp, nil)
	if !equal(a, b) {
		t.Fatal("same input sorted differently")
	}
}

func TestSearchFindsFirstNotLess(t *testing.T) {
	s := []int{1, 3, 3, 3, 5, 9}
	cases := []struct {
		key  int
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 4}, {5, 4}, {6, 5}, {9, 5}, {10, 6},
	}
	for _, c := range cases {
		got := Search(s, func(e int) int { return intCmp(e, c.key) }, nil)
		if got != c.want {
			t.Errorf("Search(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestSearchEmpty(t *testing.T) {
	if got := Search(nil, func(e int) int { return 0 }, nil); got != 0 {
		t.Fatalf("Search(empty) = %d", got)
	}
}

func TestSearchPropertyAgreesWithSortSearch(t *testing.T) {
	f := func(in []uint8, key uint8) bool {
		s := make([]int, len(in))
		for i, v := range in {
			s[i] = int(v)
		}
		sort.Ints(s)
		k := int(key)
		got := Search(s, func(e int) int { return intCmp(e, k) }, nil)
		want := sort.SearchInts(s, k)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterCountsSomething(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := make([]int, 1000)
	for i := range s {
		s[i] = rng.Int()
	}
	var m meter.Counters
	SortMetered(s, intCmp, &m)
	if m.Comparisons == 0 {
		t.Fatal("metered sort recorded no comparisons")
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkSortRandom10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]int, 10000)
	for i := range base {
		base[i] = rng.Int()
	}
	s := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s, base)
		SortMetered(s, intCmp, nil)
	}
}
