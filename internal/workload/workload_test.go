package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildBasicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	col, err := Build(Spec{Cardinality: 10000, DuplicatePct: 50, Sigma: NearUniform}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Values) != 10000 {
		t.Fatalf("values = %d", len(col.Values))
	}
	if len(col.Distinct) != 5000 {
		t.Fatalf("distinct = %d, want 5000 at 50%% duplicates", len(col.Distinct))
	}
	// Every value in Values comes from Distinct, and every distinct value
	// occurs at least once.
	set := map[int64]int{}
	for _, v := range col.Distinct {
		set[v] = 0
	}
	for _, v := range col.Values {
		if _, ok := set[v]; !ok {
			t.Fatal("value outside the distinct pool")
		}
		set[v]++
	}
	for v, c := range set {
		if c == 0 {
			t.Fatalf("distinct value %d never used", v)
		}
	}
}

func TestBuildZeroDuplicatesIsAllUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	col, err := Build(Spec{Cardinality: 1000, DuplicatePct: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Distinct) != 1000 {
		t.Fatalf("distinct = %d", len(col.Distinct))
	}
	seen := map[int64]bool{}
	for _, v := range col.Values {
		if seen[v] {
			t.Fatal("duplicate found in a zero-duplicates column")
		}
		seen[v] = true
	}
}

func TestBuildHundredPercentDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col, err := Build(Spec{Cardinality: 500, DuplicatePct: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Distinct) != 1 {
		t.Fatalf("distinct = %d, want 1", len(col.Distinct))
	}
	for _, v := range col.Values {
		if v != col.Distinct[0] {
			t.Fatal("stray value")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := Build(Spec{Cardinality: 0}, rng); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := Build(Spec{Cardinality: 10, DuplicatePct: 150}, rng); err == nil {
		t.Error("duplicate pct > 100 accepted")
	}
	if _, err := BuildDerived(Spec{Cardinality: 10}, Column{}, -1, rng); err == nil {
		t.Error("negative selectivity accepted")
	}
}

func TestGraph3DistributionShapes(t *testing.T) {
	// Reproduce Graph 3's qualitative shapes with 100 unique values.
	rng := rand.New(rand.NewSource(5))
	top10 := func(sigma float64) float64 {
		counts := Occurrences(100, 20000, sigma, rng)
		cdf := DuplicateCDF(counts, 10)
		return cdf[0].TuplePct // tuples covered by the top 10% of values
	}
	skew, mod, uni := top10(Skewed), top10(Moderate), top10(NearUniform)
	if skew < 55 {
		t.Errorf("σ=0.1: top 10%% of values cover %.1f%% of tuples; Graph 3 shows a steep curve", skew)
	}
	if uni > 35 {
		t.Errorf("σ=0.8: top 10%% of values cover %.1f%% of tuples; Graph 3 is near-uniform", uni)
	}
	if !(skew > mod && mod > uni) {
		t.Errorf("skew ordering violated: %.1f, %.1f, %.1f", skew, mod, uni)
	}
}

func TestOccurrencesInvariants(t *testing.T) {
	f := func(uSeed, totalSeed uint16, sigmaSeed uint8) bool {
		u := 1 + int(uSeed)%500
		total := u + int(totalSeed)%2000
		sigma := 0.05 + float64(sigmaSeed)/255.0
		rng := rand.New(rand.NewSource(int64(uSeed)*7 + int64(totalSeed)))
		counts := Occurrences(u, total, sigma, rng)
		if len(counts) != u {
			return false
		}
		sum := 0
		for _, c := range counts {
			if c < 1 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedSemijoinSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base, err := Build(Spec{Cardinality: 30000, DuplicatePct: 50, Sigma: NearUniform}, rng)
	if err != nil {
		t.Fatal(err)
	}
	inBase := make(map[int64]bool, len(base.Distinct))
	for _, v := range base.Distinct {
		inBase[v] = true
	}
	for _, want := range []float64{0, 25, 50, 75, 100} {
		col, err := BuildDerived(Spec{Cardinality: 30000, DuplicatePct: 50, Sigma: NearUniform}, base, want, rng)
		if err != nil {
			t.Fatal(err)
		}
		// The semijoin selectivity: the percentage of col's tuples whose
		// value appears in base.
		n := 0
		for _, v := range col.Values {
			if inBase[v] {
				n++
			}
		}
		got := 100 * float64(n) / float64(len(col.Values))
		// Near-uniform duplicates: tuple-level selectivity tracks the
		// value-level parameter within a few points.
		if got < want-6 || got > want+6 {
			t.Errorf("semijoin %v%%: measured %.1f%%", want, got)
		}
		// Fresh values must not collide with base values.
		if want == 0 && got != 0 {
			t.Errorf("0%% selectivity produced %.1f%% matches", got)
		}
	}
}

func TestDerivedUsesBaseValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, _ := Build(Spec{Cardinality: 100, DuplicatePct: 0}, rng)
	col, err := BuildDerived(Spec{Cardinality: 100, DuplicatePct: 0}, base, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	inBase := map[int64]bool{}
	for _, v := range base.Distinct {
		inBase[v] = true
	}
	for _, v := range col.Values {
		if !inBase[v] {
			t.Fatal("100% selectivity produced a value outside the base")
		}
	}
}

func TestUniquePoolExcludes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	first := UniquePool(1000, rng, nil)
	exclude := map[int64]bool{}
	for _, v := range first {
		exclude[v] = true
	}
	second := UniquePool(1000, rng, exclude)
	for _, v := range second {
		if exclude[v] {
			t.Fatal("excluded value reappeared")
		}
	}
}

func TestDuplicateCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := Occurrences(200, 5000, Skewed, rng)
	cdf := DuplicateCDF(counts, 20)
	if len(cdf) != 20 {
		t.Fatalf("points = %d", len(cdf))
	}
	prevV, prevT := 0.0, 0.0
	for _, p := range cdf {
		if p.ValuePct < prevV || p.TuplePct < prevT {
			t.Fatal("CDF not monotone")
		}
		if p.TuplePct < p.ValuePct-0.001 {
			t.Fatal("CDF below the diagonal: descending sort broken")
		}
		prevV, prevT = p.ValuePct, p.TuplePct
	}
	last := cdf[len(cdf)-1]
	if last.ValuePct != 100 || last.TuplePct < 99.999 {
		t.Fatalf("CDF does not end at (100,100): %+v", last)
	}
}

func TestComposeShuffles(t *testing.T) {
	// Not a statistical test — just ensure values are not emitted in
	// grouped order, which would bias merge-join style algorithms.
	rng := rand.New(rand.NewSource(10))
	distinct := []int64{1, 2, 3, 4, 5}
	counts := []int{100, 100, 100, 100, 100}
	vals := Compose(distinct, counts, rng)
	if len(vals) != 500 {
		t.Fatalf("len=%d", len(vals))
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	if runs < 100 {
		t.Fatalf("only %d runs in shuffled output", runs)
	}
}

func TestUpdateSpecStream(t *testing.T) {
	const rows = 1000
	next := UpdateSpec{Rows: rows}.Stream(rand.New(rand.NewSource(7)))
	counts := make([]int, rows)
	const draws = 20000
	for i := 0; i < draws; i++ {
		idx := next()
		if idx < 0 || idx >= rows {
			t.Fatalf("index %d out of [0,%d)", idx, rows)
		}
		counts[idx]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform would give each row draws/rows = 20 hits; Zipf must
	// concentrate writes far beyond that on the hottest row.
	if max < 10*draws/rows {
		t.Fatalf("hottest row took %d/%d draws; stream not skewed", max, draws)
	}
}

func TestBuildZipfShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	col, err := BuildZipf(ZipfSpec{Cardinality: 100000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Values) != 100000 {
		t.Fatalf("generated %d values", len(col.Values))
	}
	counts := map[int64]int{}
	for _, v := range col.Values {
		if v < 0 || v >= 100000 {
			t.Fatalf("key %d outside default domain", v)
		}
		counts[v]++
	}
	if len(counts) != len(col.Distinct) {
		t.Fatalf("Distinct has %d values, saw %d", len(col.Distinct), len(counts))
	}
	// s=1.2 over a 100k domain concentrates >10% of tuples on the
	// hottest key (the analytic mass is ~18%); near-uniform data would
	// put ~0.001% there, so the margin is enormous.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < len(col.Values)/10 {
		t.Fatalf("hottest key holds %d/%d tuples; not Zipf-skewed", max, len(col.Values))
	}

	if _, err := BuildZipf(ZipfSpec{}, rng); err == nil {
		t.Fatal("zero cardinality accepted")
	}
}
