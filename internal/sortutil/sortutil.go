// Package sortutil implements the sorting substrate used by the Sort Merge
// join and the Sort Scan duplicate-elimination methods.
//
// The paper sorted its array indices "using quicksort with an insertion
// sort for subarrays of ten elements or less" and notes (footnote 5) that
// 10 was measured to be the optimal cutoff. SortMetered is that
// algorithm; SortCutoff takes the cutoff as a parameter so the ablation
// benchmark can sweep it.
package sortutil

import "repro/internal/meter"

// DefaultCutoff is the quicksort-to-insertion-sort switch point the paper
// measured to be optimal.
const DefaultCutoff = 10

// SortMetered sorts s in place with quicksort, switching to insertion
// sort for subarrays of DefaultCutoff elements or fewer. cmp follows the
// usual negative/zero/positive contract; m may be nil.
func SortMetered[E any](s []E, cmp func(a, b E) int, m *meter.Counters) {
	SortCutoff(s, cmp, DefaultCutoff, m)
}

// SortCutoff sorts s in place, switching from quicksort to insertion sort
// for subarrays of cutoff elements or fewer. A cutoff below 1 is treated
// as 1 (pure quicksort down to single elements). m may be nil.
func SortCutoff[E any](s []E, cmp func(a, b E) int, cutoff int, m *meter.Counters) {
	if cutoff < 1 {
		cutoff = 1
	}
	quicksort(s, cmp, cutoff, m)
}

func quicksort[E any](s []E, cmp func(a, b E) int, cutoff int, m *meter.Counters) {
	for len(s) > cutoff && len(s) > 1 {
		j := partition(s, cmp, m)
		// Recurse into the smaller half to bound stack depth at O(log n).
		if j+1 < len(s)-j-1 {
			quicksort(s[:j+1], cmp, cutoff, m)
			s = s[j+1:]
		} else {
			quicksort(s[j+1:], cmp, cutoff, m)
			s = s[:j+1]
		}
	}
	insertionSort(s, cmp, m)
}

// partition uses Hoare's scheme with a median-of-three pivot. Hoare
// partitioning splits runs of equal keys evenly between the halves, which
// keeps quicksort O(n log n) on the high-duplicate inputs the projection
// workloads produce (Lomuto degrades quadratically there). Returns j such
// that s[:j+1] <= pivot <= s[j+1:], with 0 <= j < len(s)-1.
func partition[E any](s []E, cmp func(a, b E) int, m *meter.Counters) int {
	hi := len(s) - 1
	mid := hi / 2
	// Order s[0], s[mid], s[hi]; the median becomes the pivot at s[0].
	m.AddCompare(3)
	if cmp(s[mid], s[0]) < 0 {
		s[mid], s[0] = s[0], s[mid]
		m.AddMove(2)
	}
	if cmp(s[hi], s[0]) < 0 {
		s[hi], s[0] = s[0], s[hi]
		m.AddMove(2)
	}
	if cmp(s[mid], s[hi]) < 0 {
		// Median of the three is s[mid]; move it to the pivot slot.
		s[0], s[mid] = s[mid], s[0]
		m.AddMove(2)
	} else {
		s[0], s[hi] = s[hi], s[0]
		m.AddMove(2)
	}
	pivot := s[0]
	i, j := -1, len(s)
	for {
		for {
			i++
			m.AddCompare(1)
			if cmp(s[i], pivot) >= 0 {
				break
			}
		}
		for {
			j--
			m.AddCompare(1)
			if cmp(s[j], pivot) <= 0 {
				break
			}
		}
		if i >= j {
			return j
		}
		s[i], s[j] = s[j], s[i]
		m.AddMove(2)
	}
}

func insertionSort[E any](s []E, cmp func(a, b E) int, m *meter.Counters) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 {
			m.AddCompare(1)
			if cmp(s[j], e) <= 0 {
				break
			}
			s[j+1] = s[j]
			m.AddMove(1)
			j--
		}
		s[j+1] = e
		m.AddMove(1)
	}
}

// Search returns the smallest index i in [0, len(s)] such that
// pos(s[i]) <= 0, i.e. the first element not less than the key encoded in
// pos, using binary search. pos returns <0 when the probed element is less
// than the key, 0 on equal, >0 when greater — the mirror of a cmp(key, e)
// call partially applied with the key. Returns len(s) if every element is
// less than the key.
func Search[E any](s []E, pos func(e E) int, m *meter.Counters) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m.AddCompare(1)
		if pos(s[mid]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
