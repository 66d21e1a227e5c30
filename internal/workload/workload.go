// Package workload implements the relation-generation procedure of
// §3.3.1. Test relations vary three parameters: cardinality, the number of
// join-column duplicate values (as a percentage of |R|) with their
// distribution, and the semijoin selectivity (the percentage of values in
// the larger relation that participate in the join).
//
// Duplicate counts follow the paper's procedure: a specified number of
// unique values is generated (from a random source, or drawn from the
// larger relation), and the number of occurrences of each value is
// determined by random sampling from a truncated normal distribution with
// a variable standard deviation — σ = 0.1 is the paper's skewed
// distribution, 0.4 moderately skewed, 0.8 near-uniform (Graph 3).
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// The three duplicate distributions of Graph 3.
const (
	Skewed      = 0.1
	Moderate    = 0.4
	NearUniform = 0.8
)

// Spec describes one generated join column.
type Spec struct {
	Cardinality  int     // |R|
	DuplicatePct float64 // duplicate values as a percentage of |R| (0-100)
	Sigma        float64 // truncated-normal σ; defaults to NearUniform
}

func (s Spec) sigma() float64 {
	if s.Sigma <= 0 {
		return NearUniform
	}
	return s.Sigma
}

// uniqueCount is the number of distinct values for the spec: a duplicate
// percentage of d means d% of the tuples carry repeated values, so
// |R|·(1-d/100) values are distinct (minimum 1).
func (s Spec) uniqueCount() int {
	u := int(float64(s.Cardinality) * (1 - s.DuplicatePct/100))
	if u < 1 {
		u = 1
	}
	if u > s.Cardinality {
		u = s.Cardinality
	}
	return u
}

// Column is a generated join column: the tuple values in insertion order
// plus the distinct value set.
type Column struct {
	Values   []int64
	Distinct []int64
}

// Build generates a column per the spec.
func Build(spec Spec, rng *rand.Rand) (Column, error) {
	if spec.Cardinality <= 0 {
		return Column{}, fmt.Errorf("workload: cardinality %d", spec.Cardinality)
	}
	if spec.DuplicatePct < 0 || spec.DuplicatePct > 100 {
		return Column{}, fmt.Errorf("workload: duplicate percentage %v", spec.DuplicatePct)
	}
	u := spec.uniqueCount()
	distinct := UniquePool(u, rng, nil)
	counts := Occurrences(u, spec.Cardinality, spec.sigma(), rng)
	return Column{Values: Compose(distinct, counts, rng), Distinct: distinct}, nil
}

// BuildDerived generates a column whose distinct values partially come
// from a base column — the paper's construction for the smaller join
// relation: "the smaller relation was built with a specified number of
// values from the larger relation" to control semijoin selectivity.
// semijoinPct percent of the distinct values are sampled from base's
// distinct values; the rest are fresh values guaranteed absent from base.
func BuildDerived(spec Spec, base Column, semijoinPct float64, rng *rand.Rand) (Column, error) {
	if spec.Cardinality <= 0 {
		return Column{}, fmt.Errorf("workload: cardinality %d", spec.Cardinality)
	}
	if semijoinPct < 0 || semijoinPct > 100 {
		return Column{}, fmt.Errorf("workload: semijoin selectivity %v", semijoinPct)
	}
	u := spec.uniqueCount()
	fromBase := int(float64(u) * semijoinPct / 100)
	if fromBase > len(base.Distinct) {
		fromBase = len(base.Distinct)
	}
	distinct := make([]int64, 0, u)
	// Sample without replacement from the base's distinct values.
	perm := rng.Perm(len(base.Distinct))
	for _, p := range perm[:fromBase] {
		distinct = append(distinct, base.Distinct[p])
	}
	// Fresh values must not collide with the base (they would silently
	// raise the selectivity).
	exclude := make(map[int64]bool, len(base.Distinct))
	for _, v := range base.Distinct {
		exclude[v] = true
	}
	distinct = append(distinct, UniquePool(u-fromBase, rng, exclude)...)
	counts := Occurrences(len(distinct), spec.Cardinality, spec.sigma(), rng)
	return Column{Values: Compose(distinct, counts, rng), Distinct: distinct}, nil
}

// UniquePool returns n distinct random values, none of which appear in
// exclude.
func UniquePool(n int, rng *rand.Rand, exclude map[int64]bool) []int64 {
	out := make([]int64, 0, n)
	seen := make(map[int64]bool, n)
	for len(out) < n {
		v := rng.Int63()
		if seen[v] || exclude[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// Occurrences distributes total occurrences over u values: every value
// occurs at least once, and each remaining occurrence goes to the value
// whose rank is drawn from a truncated normal with the given σ. Small σ
// concentrates duplicates on few values (the skewed curve of Graph 3).
func Occurrences(u, total int, sigma float64, rng *rand.Rand) []int {
	counts := make([]int, u)
	for i := range counts {
		counts[i] = 1
	}
	for extra := total - u; extra > 0; extra-- {
		counts[truncNormalRank(u, sigma, rng)]++
	}
	return counts
}

// truncNormalRank samples a value rank in [0, u) from |N(0, σ)| truncated
// at 1.
func truncNormalRank(u int, sigma float64, rng *rand.Rand) int {
	for {
		z := rng.NormFloat64() * sigma
		if z < 0 {
			z = -z
		}
		if z < 1 {
			return int(z * float64(u))
		}
	}
}

// Compose expands (value, count) pairs into a shuffled tuple-value list.
func Compose(distinct []int64, counts []int, rng *rand.Rand) []int64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]int64, 0, total)
	for i, v := range distinct {
		for c := 0; c < counts[i]; c++ {
			out = append(out, v)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// CDFPoint is one point of the Graph 3 curve: the top ValuePct percent of
// values (by occurrence count) cover TuplePct percent of the tuples.
type CDFPoint struct {
	ValuePct float64
	TuplePct float64
}

// DuplicateCDF computes the Graph 3 distribution curve from per-value
// occurrence counts.
func DuplicateCDF(counts []int, points int) []CDFPoint {
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, c := range sorted {
		total += c
	}
	if total == 0 || len(sorted) == 0 || points < 2 {
		return nil
	}
	out := make([]CDFPoint, 0, points)
	cum, next := 0, 0
	for p := 1; p <= points; p++ {
		target := len(sorted) * p / points
		for next < target {
			cum += sorted[next]
			next++
		}
		out = append(out, CDFPoint{
			ValuePct: 100 * float64(target) / float64(len(sorted)),
			TuplePct: 100 * float64(cum) / float64(total),
		})
	}
	return out
}

// ZipfSpec describes a Zipf-skewed join column — the adversarial
// counterpart of the paper's truncated-normal duplicate procedure. A
// Zipf exponent of 1.2 over a million-key domain puts roughly 18% of
// the tuples on the single hottest key and ~44% on the top ten: the
// workload that blows one radix partition past any cache-sized table
// and makes the dynamic-hybrid defenses (role reversal, recursive
// re-splitting) earn their keep.
type ZipfSpec struct {
	Cardinality int // tuples generated
	// S is the Zipf exponent (> 1; larger = more skew). 0 selects 1.2.
	S float64
	// Domain is the key domain [0, Domain). 0 selects Cardinality, so a
	// same-size uniform relation covers every generated key.
	Domain int
}

// BuildZipf generates a column of Zipf-distributed keys per the spec.
func BuildZipf(spec ZipfSpec, rng *rand.Rand) (Column, error) {
	if spec.Cardinality <= 0 {
		return Column{}, fmt.Errorf("workload: cardinality %d", spec.Cardinality)
	}
	s := spec.S
	if s <= 1 {
		s = 1.2
	}
	domain := spec.Domain
	if domain <= 0 {
		domain = spec.Cardinality
	}
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	values := make([]int64, spec.Cardinality)
	seen := make(map[int64]bool)
	for i := range values {
		v := int64(z.Uint64())
		values[i] = v
		seen[v] = true
	}
	distinct := make([]int64, 0, len(seen))
	for v := range seen {
		distinct = append(distinct, v)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	return Column{Values: values, Distinct: distinct}, nil
}

// UpdateSpec describes a skewed point-update stream — the OLTP half of a
// mixed reader/writer workload. Row indices are drawn from a Zipf
// distribution over [0, Rows): a small set of hot rows absorbs most of
// the writes, the realistic worst case for snapshot republication (the
// same partitions stay permanently dirty).
type UpdateSpec struct {
	Rows int // table cardinality the indices address
}

// Stream returns a generator of row indices in [0, spec.Rows) following a
// Zipf distribution of exponent 1.2 — roughly "10% of rows take ~80% of
// writes" — driven by rng.
func (u UpdateSpec) Stream(rng *rand.Rand) func() int {
	z := rand.NewZipf(rng, 1.2, 1, uint64(u.Rows-1))
	return func() int { return int(z.Uint64()) }
}
