package plan

import (
	"fmt"
	"testing"
)

func TestChooseAggMethod(t *testing.T) {
	// Below the crossover: one flat table, no partitioning sweep.
	if m, bits := ChooseAggMethod(1000, AggConfig{}); m != AggFlatTable || bits != nil {
		t.Fatalf("small input: %v %v, want flat/nil", m, bits)
	}
	if m, _ := ChooseAggMethod(DefaultAggMinRows-1, AggConfig{}); m != AggFlatTable {
		t.Fatalf("just under MinRows: %v, want flat", m)
	}
	// At and above the crossover: partitioned, with enough bits that one
	// partition's worst-case table fits the L2 budget.
	m, bits := ChooseAggMethod(1<<20, AggConfig{})
	if m != AggRadixPartitioned || len(bits) == 0 {
		t.Fatalf("1M rows: %v %v, want partitioned with bits", m, bits)
	}
	var total uint
	for _, b := range bits {
		if b == 0 || b > DefaultRadixMaxPassBits {
			t.Fatalf("pass width %d out of (0, %d]", b, DefaultRadixMaxPassBits)
		}
		total += b
	}
	if total > DefaultRadixMaxBits {
		t.Fatalf("total bits %d exceed cap %d", total, DefaultRadixMaxBits)
	}
	// rows/2^total * GroupBytes must fit the budget.
	perPart := (1 << 20 >> total) * DefaultAggGroupBytes
	if perPart > DefaultRadixL2Bytes && total < DefaultRadixMaxBits {
		t.Fatalf("partition working set %d exceeds L2 budget with bits to spare", perPart)
	}
	// MinRows=1 forces partitioning for any input — the test hook.
	if m, _ := ChooseAggMethod(100, AggConfig{MinRows: 1}); m != AggRadixPartitioned {
		t.Fatalf("MinRows=1: %v, want partitioned", m)
	}
}

func TestChooseTopK(t *testing.T) {
	cases := []struct {
		rows, k int
		want    TopKMethod
	}{
		{1 << 20, 0, TopKFullSort},          // no limit → full sort
		{1 << 20, -1, TopKFullSort},         // no limit
		{1 << 20, 10, TopKHeap},             // tiny k over huge input
		{1 << 20, 64 << 10, TopKHeap},       // exactly MaxHeapK, ratio fine
		{1 << 20, 64<<10 + 1, TopKFullSort}, // past the heap-size cap
		{100, 50, TopKFullSort},             // k > rows/8 → sort
		{800, 100, TopKHeap},                // k == rows/8 boundary
		{799, 100, TopKFullSort},            // one row short of the ratio
	}
	for _, c := range cases {
		if got := ChooseTopK(c.rows, c.k); got != c.want {
			t.Fatalf("ChooseTopK(%d, %d) = %v, want %v", c.rows, c.k, got, c.want)
		}
	}
	// The constants are the crossover.
	if got := ChooseTopK(DefaultTopKHeapDivisor*500, 500); got != TopKHeap {
		t.Fatalf("k = rows/DefaultTopKHeapDivisor: %v, want heap", got)
	}
	if got := ChooseTopK(1<<30, DefaultTopKMaxHeapK+1); got != TopKFullSort {
		t.Fatalf("k past DefaultTopKMaxHeapK: %v, want sort", got)
	}
}

func TestAggTopKStringers(t *testing.T) {
	if AggFlatTable.String() == "" || AggRadixPartitioned.String() == "" ||
		TopKFullSort.String() == "" || TopKHeap.String() == "" {
		t.Fatal("empty method name")
	}
	if AggFlatTable.String() == AggRadixPartitioned.String() {
		t.Fatal("agg methods share a name")
	}
	if TopKFullSort.String() == TopKHeap.String() {
		t.Fatal("top-k methods share a name")
	}
}

// TestChooserGridAtDefaults pins every chooser's decision at the default
// configuration on both sides of each crossover — 8-row top-k ratio and
// 64Ki heap cap, 64Ki/128Ki sort crossovers by key width, 128Ki
// aggregation crossover and its bit widths, the 2-bit budget floor, and
// the batch-size cap — so a change to how the defaults are spelled
// cannot move a plan.
func TestChooserGridAtDefaults(t *testing.T) {
	topk := []struct {
		rows, k int
		want    TopKMethod
	}{
		{0, 1, TopKFullSort},
		{7, 1, TopKFullSort},
		{8, 1, TopKHeap},
		{799, 100, TopKFullSort},
		{800, 100, TopKHeap},
		{1<<19 - 1, 64 << 10, TopKFullSort},
		{1 << 19, 64 << 10, TopKHeap},
		{1 << 20, 64 << 10, TopKHeap},
		{1 << 20, 64<<10 + 1, TopKFullSort},
		{1 << 20, 0, TopKFullSort},
		{1 << 20, -1, TopKFullSort},
	}
	for _, c := range topk {
		if got := ChooseTopK(c.rows, c.k); got != c.want {
			t.Errorf("ChooseTopK(%d, %d) = %v, want %v", c.rows, c.k, got, c.want)
		}
	}

	sorts := []struct {
		rows, keyBytes int
		want           SortMethod
	}{
		{0, 8, SortQuick},
		{64<<10 - 1, 8, SortQuick},
		{64 << 10, 8, SortRadixKey},
		{1 << 20, 8, SortRadixKey},
		{64 << 10, 16, SortQuick},
		{128<<10 - 1, 16, SortQuick},
		{128 << 10, 16, SortRadixKey},
		{1 << 20, 16, SortRadixKey},
	}
	for _, c := range sorts {
		if got := ChooseSortMethod(c.rows, c.keyBytes, SortConfig{}); got != c.want {
			t.Errorf("ChooseSortMethod(%d, %d) = %v, want %v", c.rows, c.keyBytes, got, c.want)
		}
	}

	aggs := []struct {
		rows   int
		budget int64
		method AggMethod
		bits   []uint
		clamp  bool
	}{
		{0, 0, AggFlatTable, nil, false},
		{128<<10 - 1, 0, AggFlatTable, nil, false},
		{128<<10 - 1, 16 << 10, AggFlatTable, nil, false},
		{128 << 10, 0, AggRadixPartitioned, []uint{5}, false},
		{128 << 10, 16 << 10, AggRadixPartitioned, []uint{2}, true},
		{1 << 20, 0, AggRadixPartitioned, []uint{8}, false},
		{1 << 20, 16 << 10, AggRadixPartitioned, []uint{2}, true},
		{1<<20 + 1, 0, AggRadixPartitioned, []uint{5, 4}, false},
		{1 << 26, 0, AggRadixPartitioned, []uint{7, 7}, false},
		{1 << 27, 0, AggRadixPartitioned, []uint{7, 7}, false},
		{1 << 27, 16 << 10, AggRadixPartitioned, []uint{2}, true},
	}
	for _, c := range aggs {
		if c.budget == 0 {
			m, bits := ChooseAggMethod(c.rows, AggConfig{})
			if m != c.method || fmt.Sprint(bits) != fmt.Sprint(c.bits) {
				t.Errorf("ChooseAggMethod(%d) = %v %v, want %v %v", c.rows, m, bits, c.method, c.bits)
			}
		}
		m, bits, clamped := BudgetedAggBits(c.rows, AggConfig{}, c.budget)
		if m != c.method || fmt.Sprint(bits) != fmt.Sprint(c.bits) || clamped != c.clamp {
			t.Errorf("BudgetedAggBits(%d, %d) = %v %v %v, want %v %v %v",
				c.rows, c.budget, m, bits, clamped, c.method, c.bits, c.clamp)
		}
	}

	batches := []struct{ rows, want int }{
		{-1, 256}, {0, 256}, {1, 1}, {255, 255}, {256, 256}, {257, 256}, {1 << 20, 256},
	}
	for _, c := range batches {
		if got := ChooseBatchSize(c.rows); got != c.want {
			t.Errorf("ChooseBatchSize(%d) = %d, want %d", c.rows, got, c.want)
		}
	}
}
