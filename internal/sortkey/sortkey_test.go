package sortkey

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/meter"
	"repro/internal/storage"
)

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// encCompare compares two values through their encodings.
func encCompare(a, b storage.Value) int {
	return sign(bytes.Compare(Append(nil, a), Append(nil, b)))
}

// TestAppendOrderGrid checks the order-preservation property over a
// dense grid of same-type value pairs, including every documented edge:
// NaN, signed zeros, infinities, MinInt64, empty/prefix strings, strings
// with embedded zero bytes, and nulls against everything.
func TestAppendOrderGrid(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -256, -2, -1, 0, 1, 2, 255, 256, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.Inf(-1), -math.MaxFloat64, -1e10, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 1e10, math.MaxFloat64, math.Inf(1), math.NaN()}
	strs := []string{"", "\x00", "\x00\x01", "\x00\xff", "a", "a\x00", "a\x00b", "a\x01", "ab", "abc", "abcdefgh", "abcdefghi", "b", "ÿ", "\xff\xff"}
	bools := []bool{false, true}

	var groups [][]storage.Value
	add := func(vs []storage.Value) { groups = append(groups, vs) }
	g := []storage.Value{storage.NullValue}
	for _, v := range ints {
		g = append(g, storage.IntValue(v))
	}
	add(g)
	g = []storage.Value{storage.NullValue}
	for _, v := range floats {
		g = append(g, storage.FloatValue(v))
	}
	add(g)
	g = []storage.Value{storage.NullValue}
	for _, v := range strs {
		g = append(g, storage.StringValue(v))
	}
	add(g)
	g = []storage.Value{storage.NullValue}
	for _, v := range bools {
		g = append(g, storage.BoolValue(v))
	}
	add(g)

	for _, vs := range groups {
		for _, a := range vs {
			for _, b := range vs {
				want := sign(storage.Compare(a, b))
				if got := encCompare(a, b); got != want {
					t.Fatalf("Append order mismatch: %v vs %v: enc=%d compare=%d", a, b, got, want)
				}
				checkPrefix(t, a, b)
			}
		}
	}
}

// checkPrefix asserts the Prefix contract: prefixes never invert the
// order, and two decisive equal prefixes mean equal values.
func checkPrefix(t *testing.T, a, b storage.Value) {
	t.Helper()
	ka, da := Prefix(a)
	kb, db := Prefix(b)
	c := storage.Compare(a, b)
	if ka < kb && c >= 0 {
		t.Fatalf("prefix order inverted: %v (k=%x) < %v (k=%x) but compare=%d", a, ka, b, kb, c)
	}
	if ka > kb && c <= 0 {
		t.Fatalf("prefix order inverted: %v (k=%x) > %v (k=%x) but compare=%d", a, ka, b, kb, c)
	}
	if da && db && ka == kb && c != 0 {
		t.Fatalf("decisive prefixes equal but values differ: %v vs %v (k=%x)", a, b, ka)
	}
}

// TestRefEncoding covers the Ref type: order by resolved tuple ID, with
// the prefix contract holding against null.
func TestRefEncoding(t *testing.T) {
	tuples := testTuples(t, "r", 3)
	vals := []storage.Value{storage.NullValue}
	for _, tp := range tuples {
		vals = append(vals, storage.RefValue(tp))
	}
	for _, a := range vals {
		for _, b := range vals {
			want := sign(storage.Compare(a, b))
			if got := encCompare(a, b); got != want {
				t.Fatalf("ref Append order mismatch: %v vs %v: enc=%d compare=%d", a, b, got, want)
			}
			checkPrefix(t, a, b)
		}
	}
}

func testTuples(t *testing.T, name string, n int) []*storage.Tuple {
	t.Helper()
	schema, err := storage.NewSchema(storage.FieldDef{Name: "v", Type: storage.Int})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := storage.NewRelation(name, schema, storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*storage.Tuple, n)
	for i := 0; i < n; i++ {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tp
	}
	return tuples
}

// TestAppendKeyComposite checks that concatenated encodings order
// composite keys lexicographically, with the string terminator keeping
// entries self-delimiting ("ab"+"c" must not equal "a"+"bc").
func TestAppendKeyComposite(t *testing.T) {
	keys := [][]storage.Value{
		{storage.NullValue, storage.IntValue(5)},
		{storage.StringValue(""), storage.IntValue(9)},
		{storage.StringValue("a"), storage.IntValue(2)},
		{storage.StringValue("a"), storage.IntValue(3)},
		{storage.StringValue("a\x00"), storage.IntValue(0)},
		{storage.StringValue("ab"), storage.IntValue(-1)},
		{storage.StringValue("ab"), storage.NullValue},
		{storage.StringValue("b"), storage.IntValue(1)},
	}
	cmpKeys := func(a, b []storage.Value) int {
		for i := range a {
			// Column types must match (or be null) for storage.Compare;
			// the grid above keeps each column single-typed.
			if ta, tb := a[i].Type(), b[i].Type(); ta != tb && ta != storage.Null && tb != storage.Null {
				return 0 // skip incomparable pairs
			}
			if c := storage.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	for _, a := range keys {
		for _, b := range keys {
			if a[0].Type() != b[0].Type() && a[0].Type() != storage.Null && b[0].Type() != storage.Null {
				continue
			}
			want := sign(cmpKeys(a, b))
			got := sign(bytes.Compare(AppendKey(nil, a), AppendKey(nil, b)))
			if got != want {
				t.Fatalf("composite order mismatch: %v vs %v: enc=%d compare=%d", a, b, got, want)
			}
		}
	}
	// The self-delimiting property specifically.
	k1 := AppendKey(nil, []storage.Value{storage.StringValue("ab"), storage.StringValue("c")})
	k2 := AppendKey(nil, []storage.Value{storage.StringValue("a"), storage.StringValue("bc")})
	if bytes.Equal(k1, k2) {
		t.Fatal("composite encodings of (ab,c) and (a,bc) must differ")
	}
}

// keysOf converts int64s to prefix entries with their index as payload.
func intEntries(vals []int64) []Entry[int32] {
	ent := make([]Entry[int32], len(vals))
	for i, v := range vals {
		k, dec := Prefix(storage.IntValue(v))
		if !dec && v != math.MinInt64 {
			panic("int prefixes should be decisive")
		}
		ent[i] = Entry[int32]{K: k, P: int32(i)}
	}
	return ent
}

func checkSortedByK(t *testing.T, ent []Entry[int32]) {
	t.Helper()
	for i := 1; i < len(ent); i++ {
		if ent[i-1].K > ent[i].K {
			t.Fatalf("not sorted at %d: %x > %x", i, ent[i-1].K, ent[i].K)
		}
	}
}

// TestSortShapes drives the kernel over the shapes that exercise every
// path: random (scatter + runs), all-equal (single-bucket skip), already
// sorted, reversed, tiny (insertion only), and sizes straddling the run
// cutoff.
func TestSortShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string][]int64{
		"empty":    {},
		"one":      {42},
		"two":      {2, 1},
		"tiny":     {5, 3, 9, 1, 2, 8, 0, -4},
		"cutoff":   make([]int64, DefaultRunCutoff+1),
		"random":   make([]int64, 100000),
		"sorted":   make([]int64, 10000),
		"reversed": make([]int64, 10000),
		"allequal": make([]int64, 50000),
		"lowcard":  make([]int64, 80000),
		"negmix":   make([]int64, 30000),
	}
	for i := range shapes["cutoff"] {
		shapes["cutoff"][i] = int64(rng.Intn(1000))
	}
	for i := range shapes["random"] {
		shapes["random"][i] = rng.Int63() - rng.Int63()
	}
	for i := range shapes["sorted"] {
		shapes["sorted"][i] = int64(i)
	}
	for i := range shapes["reversed"] {
		shapes["reversed"][i] = int64(len(shapes["reversed"]) - i)
	}
	for i := range shapes["allequal"] {
		shapes["allequal"][i] = 77
	}
	for i := range shapes["lowcard"] {
		shapes["lowcard"][i] = int64(rng.Intn(8))
	}
	for i := range shapes["negmix"] {
		shapes["negmix"][i] = int64(rng.Intn(2001) - 1000)
	}

	for name, vals := range shapes {
		t.Run(name, func(t *testing.T) {
			var m meter.Counters
			s := NewSorter[int32]()
			ent := intEntries(vals)
			s.Sort(ent, nil, &m)
			checkSortedByK(t, ent)
			// The multiset of keys survived.
			want := slices.Clone(vals)
			slices.Sort(want)
			for i := range ent {
				k, _ := Prefix(storage.IntValue(want[i]))
				if ent[i].K != k {
					t.Fatalf("key multiset diverged at %d", i)
				}
			}
			// All-equal decisive keys are detected as a single bucket at
			// every level and legitimately cost nothing; every other
			// multi-element shape must meter passes or runs.
			if name != "allequal" && len(vals) > 1 && m.SortPasses == 0 && m.SortRuns == 0 {
				t.Fatal("sort did no metered work")
			}
		})
	}
}

// TestSortTieBreak forces the comparator fallback: long strings sharing
// 8-byte prefixes must come out in full comparator order.
func TestSortTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	strs := make([]string, 20000)
	prefixes := []string{"aaaaaaaa", "aaaaaaab", "prefix00"}
	for i := range strs {
		strs[i] = prefixes[rng.Intn(len(prefixes))] + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
	}
	ent := make([]Entry[int32], len(strs))
	allDecisive := true
	for i, v := range strs {
		k, dec := Prefix(storage.StringValue(v))
		if !dec {
			allDecisive = false
		}
		ent[i] = Entry[int32]{K: k, P: int32(i)}
	}
	if allDecisive {
		t.Fatal("long strings should not be prefix-decisive")
	}
	var m meter.Counters
	s := NewSorter[int32]()
	s.Sort(ent, func(a, b int32) int {
		switch {
		case strs[a] < strs[b]:
			return -1
		case strs[a] > strs[b]:
			return 1
		default:
			return 0
		}
	}, &m)
	for i := 1; i < len(ent); i++ {
		if strs[ent[i-1].P] > strs[ent[i].P] {
			t.Fatalf("tie-broken order wrong at %d: %q > %q", i, strs[ent[i-1].P], strs[ent[i].P])
		}
	}
	if m.SortRuns == 0 {
		t.Fatal("tie-break sort reported no comparator runs")
	}
}

// TestSortNullAndMinInt covers the k=0 collision: nulls and MinInt64
// share the zero prefix and must separate through the comparator.
func TestSortNullAndMinInt(t *testing.T) {
	vals := []storage.Value{
		storage.IntValue(math.MinInt64), storage.NullValue, storage.IntValue(1),
		storage.NullValue, storage.IntValue(math.MinInt64), storage.IntValue(-7),
	}
	// Pad with noise so the kernel takes the radix path at least once.
	for i := 0; i < 200; i++ {
		vals = append(vals, storage.IntValue(int64(i*37-3000)))
	}
	ent := make([]Entry[int32], len(vals))
	allDecisive := true
	for i, v := range vals {
		k, dec := Prefix(v)
		if !dec {
			allDecisive = false
		}
		ent[i] = Entry[int32]{K: k, P: int32(i)}
	}
	if allDecisive {
		t.Fatal("null/MinInt64 prefixes must be non-decisive")
	}
	s := NewSorter[int32]()
	s.Sort(ent, func(a, b int32) int { return storage.Compare(vals[a], vals[b]) }, nil)
	for i := 1; i < len(ent); i++ {
		if storage.Compare(vals[ent[i-1].P], vals[ent[i].P]) > 0 {
			t.Fatalf("order wrong at %d", i)
		}
	}
	// Nulls first.
	if vals[ent[0].P].Type() != storage.Null || vals[ent[1].P].Type() != storage.Null {
		t.Fatal("nulls must sort first")
	}
}

// TestSorterReuse runs several different-sized sorts through one sorter,
// verifying scratch reuse does not leak state between sorts.
func TestSorterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSorter[*storage.Tuple]()
	tp := testTuples(t, "reuse", 1)[0]
	for _, n := range []int{100, 70000, 10, 3000} {
		ent := s.Entries(n)
		for i := range ent {
			ent[i] = Entry[*storage.Tuple]{K: uint64(rng.Int63()), P: tp}
		}
		s.Sort(ent, nil, nil)
		for i := 1; i < len(ent); i++ {
			if ent[i-1].K > ent[i].K {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}
