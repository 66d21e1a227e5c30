package plan

// Grouped aggregation and top-k are post-paper operators, but they are
// planned with the same discipline as the radix join and the sort engine:
// a cost-based crossover decides between the cache-resident simple shape
// and the partitioned cache-conscious shape, and every choice is recorded
// as a decision-audit record so EXPLAIN ANALYZE can compare the estimate
// it rested on against what actually happened.

// AggMethod is a grouped-aggregation execution shape.
type AggMethod int

const (
	// AggFlatTable runs the whole input through one flat open-addressing
	// aggregation table — the degenerate single-partition plan. Correct at
	// any scale; fastest when the table (groups × slot footprint) stays
	// cache-resident.
	AggFlatTable AggMethod = iota
	// AggRadixPartitioned radix-partitions the input on the group-key hash
	// first (internal/radix), then aggregates each partition through its
	// own flat table. Groups cannot cross partitions, so each table is a
	// fraction of the whole and stays L2-resident — the same
	// partition-then-flat-table shape as the radix hash join.
	AggRadixPartitioned
)

// String names the method.
func (m AggMethod) String() string {
	switch m {
	case AggRadixPartitioned:
		return "radix-partitioned hash agg"
	default:
		return "flat-table hash agg"
	}
}

// AggConfig parameterizes the aggregation crossover. The zero value means
// "all defaults"; it is passed through withDefaults before use.
type AggConfig struct {
	// L2Bytes is the target per-partition aggregation-table working set.
	// Default 256 KiB, matching the radix join's budget.
	L2Bytes int
	// MinRows is the input cardinality below which the single flat table
	// runs: small inputs build a cache-resident table anyway and the
	// partitioning sweep would be pure overhead. Default 131072 rows.
	MinRows int
}

// Aggregation constants. DefaultAggGroupBytes is the assumed in-table
// footprint per distinct group: a 16-byte open-addressing slot at load
// factor 1/2 plus the aggregate-state row it points at. The chooser sizes
// for the worst case (every input row its own group) because group
// cardinality is unknown before execution — the decision audit records
// how far off that was. A partitioned plan's fan-out is capped like the
// radix join's, at DefaultRadixMaxPassBits a pass and DefaultRadixMaxBits
// in total.
const (
	DefaultAggGroupBytes = 64
	DefaultAggMinRows    = 128 << 10
)

func (c AggConfig) withDefaults() AggConfig {
	if c.L2Bytes <= 0 {
		c.L2Bytes = DefaultRadixL2Bytes
	}
	if c.MinRows == 0 {
		c.MinRows = DefaultAggMinRows
	}
	return c
}

// ChooseAggMethod picks the aggregation shape for rows input rows and, for
// the partitioned shape, the per-pass radix widths (most significant bits
// first, the same contract as ChooseRadixBits). Below the crossover it
// returns (AggFlatTable, nil): one table, no partitioning sweep. Above it,
// enough bits that one partition's worst-case table fits the L2 budget.
func ChooseAggMethod(rows int, cfg AggConfig) (AggMethod, []uint) {
	c := cfg.withDefaults()
	if rows < c.MinRows {
		return AggFlatTable, nil
	}
	bits := forcedRadixBits(rows, RadixConfig{L2Bytes: c.L2Bytes, EntryBytes: DefaultAggGroupBytes}.withDefaults())
	return AggRadixPartitioned, bits
}

// BudgetedAggBits is ChooseAggMethod under a memory grant of budget
// bytes: the same shape decision, with a partitioned plan's width
// clamped by ClampRadixBits. The boolean reports whether the budget
// narrowed the plan. budget <= 0 defers entirely to ChooseAggMethod.
func BudgetedAggBits(rows int, cfg AggConfig, budget int64) (AggMethod, []uint, bool) {
	method, bits := ChooseAggMethod(rows, cfg)
	if method != AggRadixPartitioned {
		return method, bits, false
	}
	bits, clamped := ClampRadixBits(bits, RadixConfig{}, budget)
	return method, bits, clamped
}

// TopKMethod is an ORDER BY execution shape.
type TopKMethod int

const (
	// TopKFullSort sorts the entire input (quicksort or radix-key sort by
	// ChooseSortMethod) and cuts the prefix. The only shape for unbounded
	// ORDER BY; also best when k is a large fraction of n.
	TopKFullSort TopKMethod = iota
	// TopKHeap streams the input through a bounded k-element max-heap:
	// rows past the heap's threshold are rejected with one comparison, so
	// the expected work is n + O(k·log k·log n) instead of sorting all n.
	TopKHeap
)

// String names the method.
func (m TopKMethod) String() string {
	switch m {
	case TopKHeap:
		return "bounded-heap top-k"
	default:
		return "full sort"
	}
}

// Top-k crossover constants. The heap runs when k <= rows /
// DefaultTopKHeapDivisor — the heap's per-survivor sift (log k moves) only
// wins while the threshold rejects the vast majority of rows in one
// comparison — and k <= DefaultTopKMaxHeapK: past that the sift constant
// and the heap's cache footprint lose to the radix sort's sequential
// passes even at favorable ratios.
const (
	DefaultTopKHeapDivisor = 8
	DefaultTopKMaxHeapK    = 64 << 10
)

// ChooseTopK picks the ORDER BY shape: a bounded heap when a LIMIT k is
// present and small relative to the input (k ≤ rows/DefaultTopKHeapDivisor,
// k ≤ DefaultTopKMaxHeapK), the full sort otherwise. k <= 0 means no limit.
func ChooseTopK(rows, k int) TopKMethod {
	if k <= 0 || k > DefaultTopKMaxHeapK {
		return TopKFullSort
	}
	if rows/DefaultTopKHeapDivisor < k {
		return TopKFullSort
	}
	return TopKHeap
}
