package plan

import (
	"testing"

	"repro/internal/sortkey"
	"repro/internal/storage"
)

func TestSelectionPreferenceOrder(t *testing.T) {
	cases := []struct {
		in   SelectionInput
		want AccessPath
	}{
		{SelectionInput{Op: Eq, HasHash: true, HasTree: true}, PathHashLookup},
		{SelectionInput{Op: Eq, HasHash: false, HasTree: true}, PathTreeLookup},
		{SelectionInput{Op: Eq}, PathSequentialScan},
		{SelectionInput{Op: Lt, HasHash: true, HasTree: true}, PathTreeRange},
		{SelectionInput{Op: Ge, HasHash: true}, PathSequentialScan}, // hash cannot range
		{SelectionInput{Op: Ne, HasHash: true, HasTree: true}, PathSequentialScan},
	}
	for _, c := range cases {
		if got := ChooseSelection(c.in); got != c.want {
			t.Errorf("ChooseSelection(%+v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJoinPreferenceOrder(t *testing.T) {
	cases := []struct {
		name string
		in   JoinInput
		want JoinMethod
	}{
		{"precomputed beats everything",
			JoinInput{Equijoin: true, HasPrecomputed: true, OuterTree: true, InnerTree: true, DuplicatePct: -1, SemijoinPct: -1},
			JoinPrecomputed},
		{"both trees: tree merge",
			JoinInput{Equijoin: true, OuterTree: true, InnerTree: true, DuplicatePct: -1, SemijoinPct: -1},
			JoinTreeMerge},
		{"no indices: hash join",
			JoinInput{Equijoin: true, OuterCard: 30000, InnerCard: 30000, DuplicatePct: -1, SemijoinPct: -1},
			JoinHash},
		{"exception 1: small outer, inner tree",
			JoinInput{Equijoin: true, InnerTree: true, OuterCard: 10000, InnerCard: 30000, DuplicatePct: -1, SemijoinPct: -1},
			JoinTree},
		{"exception 1 boundary: outer over half",
			JoinInput{Equijoin: true, InnerTree: true, OuterCard: 20000, InnerCard: 30000, DuplicatePct: -1, SemijoinPct: -1},
			JoinHash},
		{"existing inner hash index wins over tree join",
			JoinInput{Equijoin: true, InnerTree: true, InnerHash: true, OuterCard: 1000, InnerCard: 30000, DuplicatePct: -1, SemijoinPct: -1},
			JoinHash},
		{"exception 2: high dup skewed, no trees",
			JoinInput{Equijoin: true, DuplicatePct: 70, SemijoinPct: 100, SkewedDups: true},
			JoinSortMerge},
		{"exception 2: 70% uniform dups below the 80% crossover",
			JoinInput{Equijoin: true, DuplicatePct: 70, SemijoinPct: 100},
			JoinHash},
		{"exception 2 with trees available: tree merge",
			JoinInput{Equijoin: true, OuterTree: true, InnerTree: true, DuplicatePct: 90, SemijoinPct: 100},
			JoinTreeMerge},
		{"non-equijoin uses tree join",
			JoinInput{Equijoin: false, InnerTree: true, DuplicatePct: -1, SemijoinPct: -1},
			JoinTree},
		{"non-equijoin without tree: nested loops",
			JoinInput{Equijoin: false, DuplicatePct: -1, SemijoinPct: -1},
			JoinNestedLoops},
	}
	for _, c := range cases {
		if got := ChooseJoin(c.in); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, p := range []AccessPath{PathHashLookup, PathTreeLookup, PathTreeRange, PathSequentialScan} {
		if p.String() == "" || p.String() == "?" {
			t.Errorf("AccessPath(%d) has no name", p)
		}
	}
	for _, j := range []JoinMethod{JoinPrecomputed, JoinTreeMerge, JoinTree, JoinHash, JoinSortMerge, JoinNestedLoops} {
		if j.String() == "" {
			t.Errorf("JoinMethod(%d) has no name", j)
		}
	}
	for _, o := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		if o.String() == "?" {
			t.Errorf("CmpOp(%d) has no name", o)
		}
	}
}

func TestChooseRadixBits(t *testing.T) {
	cfg := RadixConfig{}
	// Below the crossover: the paper-faithful chained-bucket path.
	if got := ChooseRadixBits(DefaultRadixMinBuildRows-1, cfg); got != nil {
		t.Fatalf("below crossover chose radix bits %v", got)
	}
	sum := func(bits []uint) uint {
		var s uint
		for _, b := range bits {
			s += b
		}
		return s
	}
	// At 1M build rows × 32 B/row = 32 MiB of table, a 256 KiB target
	// needs fan-out ≥ 128 → 7 bits, one pass.
	bits := ChooseRadixBits(1<<20, cfg)
	if sum(bits) != 7 || len(bits) != 1 {
		t.Fatalf("1M rows: bits = %v, want one 7-bit pass", bits)
	}
	// 1G rows would want 17 bits → clamped to MaxBits 14, split 7+7.
	bits = ChooseRadixBits(1<<30, cfg)
	if sum(bits) != DefaultRadixMaxBits || len(bits) != 2 {
		t.Fatalf("1G rows: bits = %v, want 14 total over 2 passes", bits)
	}
	for _, b := range bits {
		if b > DefaultRadixMaxPassBits {
			t.Fatalf("pass width %d exceeds cap %d", b, DefaultRadixMaxPassBits)
		}
	}
	// A small L2 target forces multi-pass plans sooner.
	bits = ChooseRadixBits(1<<20, RadixConfig{L2Bytes: 16 << 10, MaxPassBits: 6})
	if sum(bits) != 11 || len(bits) != 2 {
		t.Fatalf("small-L2: bits = %v, want 11 bits over 2 near-equal passes", bits)
	}
	if bits[0] != 6 || bits[1] != 5 {
		t.Fatalf("small-L2 split = %v, want [6 5]", bits)
	}
}

func TestForceRadixBits(t *testing.T) {
	// Forcing radix on a tiny build still partitions (minimum 2 bits).
	bits := ForceRadixBits(100, RadixConfig{})
	if len(bits) != 1 || bits[0] != 2 {
		t.Fatalf("forced tiny build: bits = %v, want [2]", bits)
	}
	// And the forced plan matches the chooser's above the crossover.
	a := ChooseRadixBits(1<<20, RadixConfig{})
	b := ForceRadixBits(1<<20, RadixConfig{})
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("forced %v != chosen %v above crossover", b, a)
	}
}

func TestRadixConfigClamps(t *testing.T) {
	c := RadixConfig{MaxBits: 40, MaxPassBits: 32}.withDefaults()
	if c.MaxBits != 16 || c.MaxPassBits != 16 {
		t.Fatalf("withDefaults did not clamp to the kernel cap: %+v", c)
	}
	if JoinRadixHash.String() != "Radix Hash Join" {
		t.Fatalf("JoinRadixHash.String() = %q", JoinRadixHash.String())
	}
}

func TestBudgetedRadixBits(t *testing.T) {
	var cfg RadixConfig
	base := ChooseRadixBits(1<<20, cfg)
	if base == nil {
		t.Fatal("1M rows should be over the radix crossover")
	}
	// No budget: pass-through, not clamped.
	bits, clamped := ClampRadixBits(ChooseRadixBits(1<<20, cfg), cfg, 0)
	if clamped || len(bits) != len(base) {
		t.Fatalf("unbudgeted = %v clamped=%v, want %v", bits, clamped, base)
	}
	// Huge budget: plan unchanged.
	bits, clamped = ClampRadixBits(ChooseRadixBits(1<<20, cfg), cfg, 1<<30)
	if clamped {
		t.Fatalf("1GiB budget clamped a %v plan to %v", base, bits)
	}
	// 64 KiB budget: staging allowance 64Ki/8/2048 = 4 partitions → 2 bits.
	bits, clamped = ClampRadixBits(ChooseRadixBits(1<<20, cfg), cfg, 64<<10)
	if !clamped {
		t.Fatal("64KiB budget did not clamp a 1M-row plan")
	}
	var total uint
	for _, b := range bits {
		total += b
	}
	if total != 2 {
		t.Fatalf("64KiB budget: total bits = %d (%v), want 2", total, bits)
	}
	// Below the crossover the chained join runs budget or not.
	if bits, clamped = ClampRadixBits(ChooseRadixBits(100, cfg), cfg, 64<<10); bits != nil || clamped {
		t.Fatalf("tiny build: %v %v", bits, clamped)
	}
	// Clamp floor: even a 1-byte budget keeps 2 bits of fanout.
	bits, _ = ClampRadixBits(ChooseRadixBits(1<<20, cfg), cfg, 1)
	total = 0
	for _, b := range bits {
		total += b
	}
	if total != 2 {
		t.Fatalf("floor: total bits = %d", total)
	}
}

func TestClampRadixBitsPassSplit(t *testing.T) {
	// A clamped width wider than MaxPassBits must re-split into passes.
	bits, clamped := ClampRadixBits([]uint{8, 6}, RadixConfig{MaxPassBits: 4}, 8<<20)
	if !clamped {
		t.Fatal("8MiB budget should clamp a 14-bit plan")
	}
	var total uint
	for _, b := range bits {
		total += b
		if b > 4 {
			t.Fatalf("pass wider than cap: %v", bits)
		}
	}
	// 8Mi/8/2048 = 512 partitions → 9 bits.
	if total != 9 {
		t.Fatalf("total = %d (%v), want 9", total, bits)
	}
}

func TestBudgetedAggBits(t *testing.T) {
	var cfg AggConfig
	method, bits, clamped := BudgetedAggBits(1<<20, cfg, 0)
	if method != AggRadixPartitioned || clamped {
		t.Fatalf("unbudgeted: %v %v %v", method, bits, clamped)
	}
	method, bits2, clamped := BudgetedAggBits(1<<20, cfg, 64<<10)
	if method != AggRadixPartitioned || !clamped {
		t.Fatalf("64KiB budget: %v %v %v", method, bits2, clamped)
	}
	var total uint
	for _, b := range bits2 {
		total += b
	}
	if total != 2 {
		t.Fatalf("clamped agg bits = %v", bits2)
	}
	// Below the crossover: flat table regardless of budget.
	if m, b, c := BudgetedAggBits(10, cfg, 1); m != AggFlatTable || b != nil || c {
		t.Fatalf("tiny input: %v %v %v", m, b, c)
	}
}

// TestMirroredKernelConstants: the planner keeps its own copies of two
// kernel widths, and nothing else ties them together. The sort crossover assumes the sort kernel's decisive-prefix width, and
// EXPLAIN's "N-tuple pointer blocks" line the storage layer's block size.
func TestMirroredKernelConstants(t *testing.T) {
	if DefaultSortPrefixBytes != sortkey.PrefixBytes {
		t.Errorf("DefaultSortPrefixBytes = %d, sortkey.PrefixBytes = %d", DefaultSortPrefixBytes, sortkey.PrefixBytes)
	}
	if DefaultBatchSize != storage.BatchSize {
		t.Errorf("DefaultBatchSize = %d, storage.BatchSize = %d", DefaultBatchSize, storage.BatchSize)
	}
}
